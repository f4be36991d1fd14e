"""Time-to-verdict benchmark for the mlex CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: ``src/mlex`` is imported from there.
One client, one thread, one job at a time (a closed loop): the workload's
fixed job list is run in passes through ``mlex.cli.main`` in-process,
with at least MIN_SAMPLES job samples and further jobs while they fit in
``--seconds``.  Every verdict is checked against the
oracle in ``oracle.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
job untraced and traced and prints the per-layer metrics; the traced
reports must be byte-identical to the untraced ones.  ``--workload all``
runs each workload in its own process and prints one table.  ``--smoke``
keeps the S rung only.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 100
SETUPS = 5

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def log(*parts):
    print(*parts, flush=True)


def load_cli():
    """mlex.cli.main imported afresh from this checkout's source tree, never
    an installed copy.  Earlier imports are dropped first, so every set-up
    round pays the whole import."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n == "mlex" or n.startswith("mlex.")]:
        del sys.modules[name]
    mlex = importlib.import_module("mlex")
    main = importlib.import_module("mlex.cli").main

    if not Path(mlex.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"mlex was found at {mlex.__file__}, outside {ROOT / 'src'}")
    return main


def run_job(main, job, tracer=None):
    """(seconds, exit code, report) of one in-process CLI call.  Each
    job starts from a collected heap, as a fresh CLI process would."""
    gc.collect()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = tracer.job(job.id, main, job.argv) if tracer else main(job.argv)
        except Exception as e:  # a crash is a failed verdict, not a crashed benchmark
            code = f"raised {type(e).__name__}: {e}"
        elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


def set_up(main, workload, seed, workdir, smoke):
    """Write the workload's files and run one warm-up job per subcommand."""
    jobs, files = workloads.build(workload, seed, workdir, smoke)
    seen = set()
    for job in sorted(jobs, key=lambda j: workloads.RUNGS.index(j.rung)):
        if job.command not in seen:
            seen.add(job.command)
            run_job(main, job)
    return jobs, files


class Pass:
    """One run of every job: time, exit code and report per job id."""

    def __init__(self):
        self.times, self.codes, self.reports = {}, {}, {}

    def record(self, job, result):
        self.times[job.id], self.codes[job.id], self.reports[job.id] = result

    @property
    def seconds(self):
        return sum(self.times.values())


def expected_counts(jobs, first):
    """Counts that come from a paired job's report or from the brute-force oracle."""
    out = {}
    for job in jobs:
        if job.pair is not None:
            out[job.id] = workloads.parse_count(workloads.CLASSES, first.reports[job.pair])
        if job.expect_later is not None:
            out[job.id] = job.expect_later()
    return out


def verdict_problems(jobs, passes):
    """(pass, job id) -> the oracle's problems with that verdict, plus a
    report that differs from the first pass's."""
    counts = expected_counts(jobs, passes[0])
    problems = {}
    for k, p in enumerate(passes):
        for job in jobs:
            if job.id not in p.codes:  # the last pass may stop part way
                continue
            found = workloads.check(job, p.codes[job.id], p.reports[job.id], counts)
            if p.reports[job.id] != passes[0].reports[job.id]:
                found.append("report differs from the first pass")
            if found:
                problems[(k, job.id)] = found
    return problems


def measure(main, jobs, seconds, traced):
    """Untraced: passes over the job list until MIN_SAMPLES are taken, then
    job by job while the next one (at its first-pass time) still fits in
    ``seconds``; the last pass may stop part way.  Traced: every job runs
    both untraced and traced, back to back and in alternating order, so
    that drift of the machine and the order cancel out of the overhead;
    the result alternates untraced and traced whole passes."""
    passes, tracers = [], []
    start = time.perf_counter()
    if not traced:
        min_passes = math.ceil(MIN_SAMPLES / len(jobs))
        while True:
            plain = Pass()
            passes.append(plain)
            for job in jobs:
                if len(passes) > min_passes and \
                        time.perf_counter() - start + passes[0].times[job.id] > seconds:
                    return passes, tracers
                plain.record(job, run_job(main, job))
    while True:
        round_start = time.perf_counter()
        plain, shadow, tracer = Pass(), Pass(), tracing.Tracer()
        passes += [plain, shadow]
        tracers.append(tracer)
        for k, job in enumerate(jobs):
            if k % 2:
                plain.record(job, run_job(main, job))
            tracer.install()
            try:
                shadow.record(job, run_job(main, job, tracer))
            finally:
                tracer.uninstall()
            if not k % 2:
                plain.record(job, run_job(main, job))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return passes, tracers


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _beta_inc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of the
    order statistics.  Job times cluster by kind of job, and the plain
    order statistic jumps between clusters when timing noise reorders the
    jobs next to it; this estimate moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_inc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def job_ms(job, passes):
    """Median time of one job over the passes that ran it, in ms."""
    return statistics.median(p.times[job.id] for p in passes if job.id in p.times) * 1e3


def geometric_mean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(jobs, passes, setup_s):
    """Every metric is taken over the per-job medians, so that each job of
    the list counts once however many passes ran it."""
    ms = {j.id: job_ms(j, passes) for j in jobs}
    m = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(ms) / sum(ms.values()) * 1e3, "1/s"),
        "verdict_p50_ms": (quantile(ms.values(), 0.5), "ms"),
        "verdict_p90_ms": (quantile(ms.values(), 0.9), "ms"),
    }
    for rung in workloads.RUNGS:
        mine = [ms[j.id] for j in jobs if j.rung == rung]
        if mine:
            m[f"verdict_ms.{rung}"] = (geometric_mean(mine), "ms")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def per_layer(plain, traced, tracers):
    """Self times per pass (mean over traced passes); counts and ratios
    from the first traced pass, which must repeat in every later one."""
    selfs = {}
    for t in tracers:
        for name, ms in t.self_ms().items():
            selfs[name] = selfs.get(name, 0.0) + ms / len(tracers)
    counts = tracers[0].counts
    m = {}
    for name, unit in tracing.metric_names():
        if name.endswith(".self_ms"):
            value = selfs.get(name[: -len(".self_ms")], 0.0)
        elif name in tracing.RATIOS:
            num, base = tracing.RATIOS[name]
            calls = counts.get(num.rsplit(".", 1)[0] + "." + base, 0)
            value = counts.get(num, 0) / calls if calls else 0.0
        elif name == "trace.overhead_frac":
            value = sum(p.seconds for p in traced) / sum(p.seconds for p in plain) - 1
        else:
            value = counts.get(name, 0)
        m[name] = (value, unit)
    stable = all(t.counts == counts for t in tracers)
    return m, stable


def run_workload(args):
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        setups = []
        for _ in range(SETUPS):
            shutil.rmtree(workdir)
            os.mkdir(workdir)
            t = time.perf_counter()
            main = load_cli()
            jobs, files = set_up(main, args.workload, args.seed, workdir, args.smoke)
            setups.append(time.perf_counter() - t)
        setup_s = statistics.median(setups)
        passes, tracers = measure(main, jobs, args.seconds, args.trace)
    except ImportError as e:
        print(f"error: cannot import mlex from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work_root.rmdir()

    problems = verdict_problems(jobs, passes)
    attempted, failed = sum(len(p.times) for p in passes), len(problems)

    inputs = hashlib.sha256(json.dumps(sorted(files.items())).encode()).hexdigest()
    partial = "" if args.trace else " (the last may stop part way)"
    log(f"# workload {args.workload}, seed {args.seed}, {len(jobs)} jobs, {len(passes)} passes{partial}")
    log(f"# inputs sha256 {inputs}")
    log("# job                  rung  median_ms  exit  report_sha256")
    for j in jobs:
        ms = job_ms(j, passes)
        digest = hashlib.sha256(passes[0].reports[j.id].encode()).hexdigest()
        log(f"  {j.id:<22} {j.rung:<4} {ms:>10.3f}  {passes[0].codes[j.id]!s:>4}  {digest}")
    for (k, job_id), found in problems.items():
        log(f"# FAILED pass {k} {job_id}: {'; '.join(found)}")

    correct = not problems
    if args.trace:
        plain, traced = passes[0::2], passes[1::2]
        metrics, stable = per_layer(plain, traced, tracers)
        if not stable:
            log("# FAILED traced counts differ between traced passes")
            correct = False
    else:
        metrics = end_to_end(jobs, passes, setup_s)
        log(f"# {attempted} job runs; p50/p90 over the medians of {len(jobs)} jobs; "
            f"{failed} failed (failed_frac {failed / attempted:.4f})")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<52} {value:>14.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is not inherited."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    log(f"# {'metric':<52} {'unit':<6} " + " ".join(f"{w:>14}" for w in workloads.WORKLOADS))
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        cells = [results[w]["metrics"].get(name, {}).get("value", float("nan")) for w in workloads.WORKLOADS]
        log(f"  {name:<52} {unit:<6} " + " ".join(f"{v:>14.6f}" for v in cells))
    for w in workloads.WORKLOADS:
        r = results[w]
        log(f"# {w}: correct {r['correct']}, failed_frac {r['failed'] / r['attempted']:.4f} "
            f"({r['failed']} of {r['attempted']})")
    print(json.dumps(results))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="S rung only")
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run_all(args) if args.workload == "all" else run_workload(args))
