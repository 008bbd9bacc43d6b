#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Starts bench.py for one workload in
a fresh process with BLAS pinned to one thread, waits for it and passes its
exit code on. The last line of its standard output is the JSON result.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
TIMEOUT_S = 175


def main() -> int:
    if not (SOURCE / "narrsum" / "__init__.py").is_file():
        print(f"error: no narrsum sources under {SOURCE}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, str(HERE / "bench.py"), *sys.argv[1:]], cwd=ROOT, env=env)
    # Turn a termination request into SystemExit so that the child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
