"""Run perfbench from two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload prefill_long \\
        --pairs 10 --seconds 55 --out pairs.json

PARENT and CHANGE are checkouts of the repository (``git archive`` of
two commits, say). Pair i runs seed i (1..N) on both sides with
``python3 perfbench/run.py --workload W --seed i --seconds S --trace 0``,
each from its own checkout; the parent runs first on odd seeds and
second on even ones, so neither side always runs on a warmer host.

For each end-to-end metric of CHANGE's ``BENCHMARK.json``, with its
better direction, the summary gives both sides' medians and quartiles,
the pairs the change won, the change's relative distance from the
parent's median (positive is worse) and whether that median difference
exceeds the parent's quartile spread, and whether the change is within
the metric's bound. It also gives, per side, the median of every set-up
step in ``details.setup_repeats_s`` over all runs' repeats and the
median cold import, ``details.setup_import_s``: ``setup_s`` is that one
import plus the set-up steps, so the two tell which of them moved.
``--out`` writes the summary and every run's metrics as JSON.

Exits 1 if any run fails or reports ``correct: false``. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Compare the two sides of ``pairs``, each a dict with a ``parent``
    and a ``change`` run record (``metrics``: name -> value,
    ``setup_import_s``: seconds, and ``setup_repeats_s``: a list of
    {step: seconds}), over the ``end_to_end`` metric specs of
    BENCHMARK.json."""
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        by_side = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(by_side[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gain = [(a - b) if lower else (b - a) for a, b in zip(*by_side.values())]
        relative = (change - parent) / parent if parent else 0.0
        worse_by = relative if lower else -relative
        metrics[name] = {
            "unit": spec.get("unit"),
            "better": spec["better"],
            "bound": spec.get("bound"),
            **stats,
            "pairs_won": sum(g > 0 for g in gain),
            "ties": sum(g == 0 for g in gain),
            "worse_by": worse_by,
            "within_bound": spec.get("bound") is None or worse_by <= spec["bound"],
            "beats_parent_iqr": ((parent - change) if lower else (change - parent))
            > stats["parent"]["q3"] - stats["parent"]["q1"],
            "pair_ratios": [b / a if a else None for a, b in zip(*by_side.values())],
        }
    setup = {}
    for side in SIDES:
        repeats = [r for p in pairs for r in p[side]["setup_repeats_s"]]
        steps = dict.fromkeys(step for r in repeats for step in r)
        setup[side] = {step: statistics.median(r[step] for r in repeats) for step in steps}
    imports = {side: statistics.median(p[side]["setup_import_s"] for p in pairs)
               for side in SIDES}
    return {"pairs": len(pairs), "metrics": metrics, "setup_import_medians_s": imports,
            "setup_step_medians_s": setup}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from ``checkout``: its metrics, correctness and
    set-up steps, or ``ok: False`` with the reason."""
    with tempfile.TemporaryDirectory() as results:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", "--results", results]
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        path = Path(results) / f"{workload}-seed{seed}-trace0.json"
        if done.returncode != 0 or not path.is_file():
            return {"ok": False, "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
        record = json.loads(path.read_text())
    result, details = record["result"], record["details"]
    return {
        "ok": bool(result["correct"]),
        "correct": result["correct"],
        "failed": result["failed"],
        "requests_timed": details["requests_timed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "setup_import_s": details["setup_import_s"],
        "setup_repeats_s": details["setup_repeats_s"],
    }


def print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: {summary['pairs']} pairs")
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"  {name:<20} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
              f"  change {c['median']:.4f}  won {m['pairs_won']}/{summary['pairs']}"
              f"  worse_by {m['worse_by']:+.4f} (bound {m['bound']})"
              f"  beats parent IQR: {m['beats_parent_iqr']}")
    imports = summary["setup_import_medians_s"]
    print(f"  cold import median (s): parent {imports['parent']:.5f}"
          f"  change {imports['change']:.5f}")
    print("  set-up step medians (s):")
    setup = summary["setup_step_medians_s"]
    for step in setup["parent"]:
        print(f"    {step:<20} parent {setup['parent'][step]:.5f}"
              f"  change {setup['change'].get(step, float('nan')):.5f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, failures = [], []
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed}
        for side in order:
            run = run_once(getattr(args, side), args.workload, seed, args.seconds)
            pair[side] = run
            print(f"seed {seed} {side}: "
                  + (f"{run['requests_timed']} requests" if "metrics" in run else run["error"])
                  + ("" if run["ok"] else " FAILED"), file=sys.stderr)
            if not run["ok"]:
                failures.append(f"seed {seed} {side}")
        pairs.append(pair)
    if failures:
        print(f"failed or incorrect runs: {', '.join(failures)}", file=sys.stderr)
        return 1
    summary = summarize(pairs, end_to_end)
    print_summary(args.workload, summary)
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "summary": summary, "runs": pairs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
