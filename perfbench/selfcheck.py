"""The benchmark's own checks, on the S rung:

- the generator writes byte-identical files for one seed, in three
  separate processes;
- a smoke run of every workload is correct;
- two traced runs give identical call counts, counts and ratios, and
  their reports are byte-identical to the untraced ones (run.py fails a
  traced run otherwise).

    python3 perfbench/selfcheck.py [--seed N]

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    inputs = re.search(r"^# inputs sha256 (\w+)$", proc.stdout, re.M).group(1)
    return inputs, json.loads(proc.stdout.strip().splitlines()[-1])


def counted(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if not k.endswith(".self_ms") and k != "trace.overhead_frac"}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args().seed
    failures = []
    for w in workloads.WORKLOADS:
        (i0, plain), (i1, first), (i2, second) = run(w, seed, 0), run(w, seed, 1), run(w, seed, 1)
        if not i0 == i1 == i2:
            failures.append(f"{w}: generated files differ between runs")
        if not plain["correct"]:
            failures.append(f"{w}: smoke run not correct")
        if not (first["correct"] and second["correct"]):
            failures.append(f"{w}: traced run not correct")
        if counted(first) != counted(second):
            failures.append(f"{w}: traced counts differ between runs")
        print(f"{w}: checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("selfcheck", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
