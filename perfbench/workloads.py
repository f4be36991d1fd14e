"""The three workloads: seeded workspace files plus a fixed job list.

A job is one CLI call with the verdict the oracle expects.  Rungs are
sized by |E| = |Q| * |I|: S = 4, M = 8, L = 16.  Each workload's list is
REPLICAS[workload] independent draws of the same templates: job costs
depend on the drawn tables, so more draws per run keep the figures
steady from one seed to the next.  The counts fill 15-20 s per pass, so a
40 s run makes two or three passes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

WORKLOADS = ("verify", "classify", "affine")
RUNGS = ("S", "M", "L")
REPLICAS = {"verify": 4, "classify": 4, "affine": 6}

WHY = {
    "verify": "check, wells, hs, decompose, extract and series on one legal extension per datum, "
              "|E| = 4/8/16; time in termlang.holds and warm legality on a reused carrier",
    "classify": "exhaustive h2 (one action and all actions), equivalent, h1 and derivations, "
                "|E| = 4/8/16; many cold legality checks and witness-map searches",
    "affine": "h2 --affine at |E| = 4/8/16 plus expand; Smith/congruence solver and symbolic "
              "expander, bypassing legality and witness search",
}


@dataclass
class Job:
    id: str
    rung: str
    argv: list
    last: str | None = None  # expected last report line
    first: str | None = None  # expected first report line
    count: tuple | None = None  # (regex, expected count) on the report
    pair: str | None = None  # job id whose class count must agree
    lines: int | None = None  # expected number of report lines
    prefix: str | None = None  # expected start of the first report line
    expect_later: object = None  # callable giving the expected count, run after timing

    @property
    def command(self):
        return self.argv[0]


def parse_count(regex, out):
    m = re.search(regex, out, re.M)
    return int(m.group(1)) if m else None


CLASSES = r"^(\d+) classes$"


def check(job, code, out, expected_counts):
    """Problems with one job's verdict; an empty list when it is right.
    Every job of the workloads is expected to exit with code 0."""
    problems = []
    lines = out.splitlines()
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if job.last is not None and (not lines or lines[-1] != job.last):
        problems.append(f"last line {lines[-1] if lines else ''!r}, expected {job.last!r}")
    if job.first is not None and (not lines or lines[0] != job.first):
        problems.append(f"first line {lines[0] if lines else ''!r}, expected {job.first!r}")
    if job.prefix is not None and (not lines or not lines[0].startswith(job.prefix)):
        problems.append(f"first line {lines[0] if lines else ''!r}, expected prefix {job.prefix!r}")
    if job.lines is not None and len(lines) != job.lines:
        problems.append(f"{len(lines)} report lines, expected {job.lines}")
    if job.count is not None or job.id in expected_counts:
        regex, want = job.count if job.count else (CLASSES, None)
        if job.id in expected_counts:
            want = expected_counts[job.id]
        got = parse_count(regex, out)
        if got != want:
            problems.append(f"count {got}, expected {want}")
    return problems


class JobList:
    def __init__(self, workload, seed, workdir, smoke):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.jobs = []
        self.files = {}
        self.replica = 0

    def write(self, name, text):
        name = f"r{self.replica}_{name}"
        path = self.workdir / name
        path.write_text(text)
        self.files[name] = text
        return str(path)

    def add(self, rung, argv, **kw):
        if self.smoke and rung != "S":
            return None
        n = sum(1 for j in self.jobs if j.rung == rung and j.command == argv[0])
        job = Job(f"{rung}.{argv[0]}.{n}", rung, argv, **kw)
        self.jobs.append(job)
        return job


def _rung(qf, if_):
    size = 1
    for x in tuple(qf) + tuple(if_):
        size *= x
    return {4: "S", 8: "M", 16: "L"}[size]


# -- verify -------------------------------------------------------------------------

VERIFY_DATA = [
    # (modulus, Q factors, I factors, random action?)  zero operations throughout.
    # Without an action the cocycle gets a symmetric group factor set that
    # wells must trivialize first.  A trivial action on a rank-two kernel is
    # left out: wells then takes about 7 s at |E| = 8.
    (2, (2,), (2,), True), (2, (2,), (2,), False),
    (2, (2, 2), (2,), True), (2, (2,), (2, 2), True), (4, (2,), (4,), False),
    (2, (2, 2), (2, 2), True), (4, (2,), (2, 4), False), (4, (4,), (4,), True),
]


def build_verify(b):
    for k, (m, qf, if_, acted) in enumerate(VERIFY_DATA):
        rung = _rung(qf, if_)
        d = gen.draw_datum(b.rng, m, qf, if_)
        action = gen.draw_action(b.rng, d, nonzero=True) if acted else None
        name = "a1" if acted else "t0"
        if acted:
            d.actions["a1"] = action
        # a non-split extension: a zero T_f would make the draw much cheaper
        tf = gen.draw_tf(b.rng, d, nonzero=True)
        T = d.cocycle(name, tf)
        if not acted:
            T = d.shifted(T, d.witness(b.rng))
        d.cocycles["T"] = T
        ws = b.write(f"v{k}.mlex", gen.datum_text(d))
        ext = b.write(f"v{k}_ext.mlex", gen.extension_text(d, action, tf))
        b.add(rung, ["check", "--fixture", ws, "--samples", "3"], last="check OK")
        if rung in ("S", "M"):
            b.add(rung, ["wells", "--fixture", ws, "--cocycle", "T"], last="wells PASS")
        if k == 0:
            # hs takes about 20 s at |E| = 8
            b.add(rung, ["hs", "--fixture", ext, "--ideal", "K"], last="hs PASS")
        if rung == "S" or m == 4 or k == 2:
            # at |E| = 16 over m = 2 the isomorphism search takes over 15 s
            b.add(rung, ["decompose", "--fixture", ext, "--algebra", "M", "--kind", "solvable"],
                  last="reconstruction isomorphic: True")
        b.add(rung, ["extract", "--fixture", ext, "--algebra", "M", "--ideal", "K"],
              last=f"kernel abelian: True; central: {action is None}")
        if rung != "M":
            # zero operations on Q and I: products lie in the kernel and multiply to zero
            b.add(rung, ["series", "--fixture", ext, "--algebra", "M", "--kind", "derived"],
                  last="solvable: yes (2 steps)")


# -- classify -----------------------------------------------------------------------

def _equivalence_file(b, k, m, qf, if_):
    """T, two coboundary shifts of it and a shift of T + D with D != 0."""
    d = gen.draw_datum(b.rng, m, qf, if_)
    tf = gen.draw_tf(b.rng, d)
    T = d.cocycle("t0", tf)
    while True:
        D = gen.draw_tf(b.rng, d)
        if not D.is_zero():
            break
    other = gen.Bilinear(tf.xf, tf.yf, tf.zf,
                         {key: gen.add(tf.zf, v, D.gens[key]) for key, v in tf.gens.items()})
    d.cocycles.update(
        T=T,
        E1=d.shifted(T, d.witness(b.rng)),
        E2=d.shifted(T, d.witness(b.rng)),
        N=d.shifted(d.cocycle("t0", other), d.witness(b.rng)),
    )
    return b.write(f"e{k}.mlex", gen.datum_text(d))


def build_classify(b):
    eq = 0

    def equivalences(rung, m, qf, if_, pairs):
        nonlocal eq
        path = _equivalence_file(b, eq, m, qf, if_)
        eq += 1
        for left, right in pairs:
            verdict = "NOT EQUIVALENT" if "N" in (left, right) else "EQUIVALENT"
            b.add(rung, ["equivalent", "--fixture", path, "--left", left, "--right", right],
                  first=verdict)

    def closed(k, qf, if_, h2=True, h1=True, ders=True):
        d = gen.draw_datum(b.rng, 2, qf, if_, qop=True)
        path = b.write(f"c{k}.mlex", gen.datum_text(d))
        rung = _rung(qf, if_)
        if h2:
            b.add(rung, ["h2", "--datum", path, "--variety", "mlf", "--action", "t0"],
                  count=(CLASSES, oracle.closed_h2(d)))
        if h1:
            b.add(rung, ["h1", "--fixture", path, "--action", "t0"],
                  count=(r"^H1 classes: (\d+)$", oracle.closed_h1(d)))
        if ders:
            b.add(rung, ["derivations", "--fixture", path, "--action", "t0"],
                  count=(r"^(\d+) derivations$", oracle.closed_h1(d)))

    def paired(k, m, qf, if_):
        d = gen.draw_datum(b.rng, m, qf, if_, qop=True)
        d.actions["a1"] = gen.draw_action(b.rng, d, nonzero=True)
        path = b.write(f"p{k}.mlex", gen.datum_text(d))
        rung = _rung(qf, if_)
        argv = ["h2", "--datum", path, "--variety", "mlf", "--action", "a1"]
        affine = b.add(rung, argv + ["--affine"])
        if affine is not None:
            b.add(rung, argv, pair=affine.id)

    def all_actions(k, m, qf, if_):
        d = gen.draw_datum(b.rng, m, qf, if_, qop=True)
        path = b.write(f"x{k}.mlex", gen.datum_text(d))
        b.add(_rung(qf, if_), ["h2", "--datum", path, "--variety", "mlf"],
              expect_later=lambda: oracle.h2_all_actions(d.m, d.qf, d.if_, tuple(d.qop.gens.items())))

    # S: |E| = 4.  The cheap S jobs are numerous enough that the median of
    # all jobs falls inside the M cluster rather than where costs climb.
    closed(0, (2,), (2,))
    closed(6, (2,), (2,))
    paired(0, 2, (2,), (2,))
    all_actions(0, 2, (2,), (2,))
    all_actions(1, 4, (2,), (2,))
    equivalences("S", 2, (2,), (2,), [("T", "E1"), ("E2", "N")])
    equivalences("S", 2, (2,), (2,), [("T", "E1"), ("E1", "E2"), ("T", "N"), ("E2", "N")])
    # M: |E| = 8.  As many jobs below the 20-30 ms cluster as above it.
    closed(1, (2,), (2, 2))
    closed(2, (2, 2), (2,), h2=False)
    closed(7, (2,), (2, 2), h2=False)
    closed(8, (2,), (2, 2), h2=False)
    paired(1, 2, (2,), (2, 2))
    paired(2, 4, (2,), (4,))
    all_actions(2, 4, (2,), (4,))
    equivalences("M", 2, (2, 2), (2,), [("T", "E1"), ("E2", "N")])
    equivalences("M", 2, (2,), (2, 2), [("T", "N")])
    # L: |E| = 16
    paired(3, 2, (2,), (2, 2, 2))
    closed(3, (2, 2), (2, 2), h2=False)
    if b.replica == 0:
        # about 1 s; once per list, so that p90 lies inside the 0.2-0.3 s band
        closed(4, (2, 2, 2), (2,), h2=False, ders=False)
    closed(5, (2,), (2, 2, 2), h2=False)
    equivalences("L", 2, (2, 2), (2, 2), [("T", "E1"), ("E2", "N")])
    equivalences("L", 2, (2, 2, 2), (2,), [("E1", "E2"), ("T", "N")])


# -- affine -------------------------------------------------------------------------

# |Q| = 8 by Z2 is left out: one affine H2 there takes over 15 s.
AFFINE_DATA = [((2,), (2,))] * 3 + [((2, 2), (2,))] * 4 + [((2,), (2, 2))] * 5 \
    + [((2, 2), (2, 2))] * 5 + [((2,), (2, 2, 2))] * 4


def _variety_files(b):
    """Leibniz and Rota-Baxter varieties; the seed draws their modulus
    and the Rota-Baxter weight."""
    m = b.rng.choice((2, 4))
    leib = b.write("leibniz.mlex", f"[ring] modulus = {m}\n"
                   "[variety leibniz] signature = br/2; bracket = br; "
                   'identity "[x,[y,z]] = [[x,y],z] + [y,[x,z]]"\n')
    m = b.rng.choice((4, 6))
    weight = b.rng.randrange(1, m)
    rota = b.write("rota.mlex", f"[ring] modulus = {m}\n"
                   "[variety rotabaxter] signature = br/2,P/1; bracket = br; "
                   f'identity "[P(x), P(y)] = P([P(x), y]) + P([x, P(y)]) + {weight}*P([x, y])"\n')
    return [(leib, "leibniz"), (rota, "rotabaxter")]


def build_affine(b):
    for k, (qf, if_) in enumerate(AFFINE_DATA):
        d = gen.draw_datum(b.rng, 2, qf, if_, qop=True)
        path = b.write(f"a{k}.mlex", gen.datum_text(d))
        b.add(_rung(qf, if_), ["h2", "--datum", path, "--variety", "mlf", "--action", "t0", "--affine"],
              count=(CLASSES, oracle.closed_h2(d)))
    for path, name in _variety_files(b):
        for emit in ("general", "action", "strict"):
            for extra in ([], ["--sexp"]):
                b.add("S", ["expand", "--variety", path, "--emit", emit] + extra,
                      lines=2 if extra else 1, prefix=f"{name}[0] {emit}: ")


TEMPLATES = {"verify": build_verify, "classify": build_classify, "affine": build_affine}


def build(workload, seed, workdir, smoke=False):
    """Write the workload's files under workdir and return (jobs, files)."""
    b = JobList(workload, seed, workdir, smoke)
    for replica in range(REPLICAS[workload]):
        b.replica = replica
        TEMPLATES[workload](b)
    return interleave(b.jobs), b.files


def interleave(jobs):
    """Spread each rung's jobs evenly over the pass, so that a slow
    stretch of the machine does not fall on one rung only."""
    position = {}
    for rung in RUNGS:
        mine = [j for j in jobs if j.rung == rung]
        position.update({id(j): (i + 0.5) / len(mine) for i, j in enumerate(mine)})
    return sorted(jobs, key=lambda j: position[id(j)])
