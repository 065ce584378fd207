"""Run the solve benchmark from the repository root.

    python3 perfbench/run.py --workload cold_3x10 --seed 0 --seconds 30 --trace 0

The program is imported from the checkout's own src/ directory, never
from an installed copy; without it the command fails before measuring.
The last line of standard output is the JSON result.
"""

import os
import sys
from pathlib import Path


def main():
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "ovsam" / "__init__.py").is_file():
        print(f"perfbench: no ovsam package under {src}", file=sys.stderr)
        return 2
    # One single-threaded process: the load is one client with one
    # request in flight, and BLAS threads would only add contention.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import ovsam

    if not Path(ovsam.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported ovsam from {ovsam.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
