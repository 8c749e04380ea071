"""Run one workload of the zerowind benchmark from the root of a zerowind checkout.

    python3 perfbench/run.py --workload cosine-sums --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os
import sys
from pathlib import Path

# One thread per BLAS/OpenMP pool, set before numpy is first imported:
# np.roots calls LAPACK, whose pool would otherwise size itself to the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "zerowind"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no zerowind sources at {package}; run from a zerowind checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    import bench

    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
