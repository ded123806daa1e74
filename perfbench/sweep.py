"""Run the benchmark over several seeds and workloads and summarise the spread.

    python3 perfbench/sweep.py --results perfbench/results/base --seeds 1-10 --seconds 30

Runs run.py once per (seed, workload), seed by seed so that slow drift in
the machine's speed falls on every workload alike, keeps each results file
in --results, and prints compare.py's table for the directory. Exits
non-zero if a run fails or reports incorrect output, or if a spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--results", required=True, help="directory for the results files")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=int, default=compare.SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in compare.SPEC["workloads"]))
    args = p.parse_args(argv)

    ok = True
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--results", args.results]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"FAILED {workload} seed {seed}: {done.stderr.strip()[-500:]}", flush=True)
            else:
                print(f"done {workload} seed {seed}", flush=True)
    return 0 if compare.report(compare.load(args.results)) and ok else 1


if __name__ == "__main__":
    sys.exit(main())
