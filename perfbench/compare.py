"""Summarise and compare benchmark results directories.

    python3 perfbench/compare.py DIR             # spread of each metric in DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR  # NEW against BASE

A results directory holds the files run.py writes (``--results``), one per
(workload, seed, trace) run; sweep.py fills one with many seeds. For each
workload and metric this prints the median and the spread (interquartile
range over median, quartiles as ``statistics.quantiles(values, n=4)``) of
the values over the runs. Given two directories, it also prints the change
of the median and, for end-to-end metrics, whether it is worse than the
bound BENCHMARK.json fixes. Both sides must be run with the same
``--seconds`` on the same machine, and the environment blocks of the
results files should agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(directory) -> dict:
    """{(workload, metric): [value per run]} over the results files in directory."""
    values = defaultdict(list)
    files = sorted(Path(directory).glob("*-trace[01].json"))
    if not files:
        raise SystemExit(f"no results files in {directory}")
    for path in files:
        record = json.loads(path.read_text())
        for name, metric in record["result"]["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def spread(values) -> tuple[float, float]:
    """(median, interquartile range / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def worse_by(base: float, new: float, name: str) -> float:
    """Share of base by which new is worse (negative when better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if METRICS.get(name, {}).get("better") == "higher" else change


def report(base: dict, new: dict | None = None, out=sys.stdout) -> bool:
    """Print the table; False if a bound is exceeded (a spread beyond its
    bound on a single directory, or a median worse than it on two)."""
    ok = True
    for key in sorted(base):
        workload, name = key
        med, iqr = spread(base[key])
        spec = METRICS.get(name, {})
        bound = spec.get("bound")
        line = (f"{workload:>13} {name:<36} {spec.get('unit', '?'):<13} n={len(base[key]):<3} "
                f"median={med:<12.6g} spread={iqr:6.3f}")
        if new is None:
            if bound is not None and name != "setup_s" and iqr > bound:
                ok = False
                line += f"  SPREAD>{bound}"
        elif key in new:
            new_med, new_iqr = spread(new[key])
            worse = worse_by(med, new_med, name)
            line += f" | new median={new_med:<12.6g} spread={new_iqr:6.3f} worse_by={worse:+.3f}"
            if bound is not None and worse > bound:
                ok = False
                line += f"  WORSE>{bound}"
        print(line, file=out)
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dirs", nargs="+", help="one or two results directories")
    args = p.parse_args(argv)
    if len(args.dirs) > 2:
        p.error("give one or two results directories")
    base = load(args.dirs[0])
    new = load(args.dirs[1]) if len(args.dirs) == 2 else None
    return 0 if report(base, new) else 1


if __name__ == "__main__":
    sys.exit(main())
