"""Benchmark entry point: pin BLAS threads and run one workload in a fresh process.

    python3 perfbench/run.py --workload prefill_long --seed 0 --seconds 30 --trace 0

The workload runs in a child process (worker.py) whose environment fixes
the BLAS thread count and puts this checkout's src/ on the import path;
the child prints the result object as its last line of stdout. Exits
non-zero, printing no result, when the checkout has no sharpv sources.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: on a 2-core machine it gave a faster and steadier
# prefill than two, and leaves the second core to the rest of the system.
BLAS_THREADS = "1"
TIMEOUT_S = 170


def main() -> int:
    if not (SRC / "sharpv" / "__init__.py").is_file():
        print(f"error: no sharpv sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *sys.argv[1:]],
                              cwd=ROOT, env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
