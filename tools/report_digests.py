"""Hash the canonical reports of the benchmark's input pools.

    python3 tools/report_digests.py [--workloads NAME ...] [--seeds N ...] [--against FILE]

For each workload (default: all four of ``perfbench/workloads.py``) and
seed (default: 1 2 3), runs every input of the pool a timed run cycles
through (``pool_size`` inputs) and prints one line: the workload, the
seed, the sha256 of the reports' canonical JSON, one per line, and the
number of operations that failed.  Run it on two checkouts to check that
a change keeps every report byte; it is not part of the test suite.

With ``--against FILE``, the output of an earlier run, each line is also
compared with the line of the same workload and seed in FILE; any line
that differs or is missing there is named on standard error, and the exit
status is 1.  Lines of FILE for pools not run are ignored.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

# One thread per BLAS/OpenMP pool, as perfbench/run.py sets them, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, canonical  # noqa: E402


def pool_digest(name: str, seed: int) -> tuple[str, int]:
    """The sha256 of the pool's canonical reports and the number of its operations that failed."""
    wl = WORKLOADS[name]
    digest, failed = hashlib.sha256(), 0
    for item in wl.inputs(seed, wl.pool_size):
        out = wl.run(item)
        failed += out.failure is not None
        digest.update(canonical(out.report) + b"\n")
    return digest.hexdigest(), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--against", type=Path, metavar="FILE", help="a saved run to compare each line with")
    args = parser.parse_args(argv)
    saved = {}
    if args.against is not None:
        for line in args.against.read_text().splitlines():
            pool, _, _ = line.rpartition(" sha256=")
            saved[pool] = line
    status = 0
    for name in args.workloads:
        for seed in args.seeds:
            digest, failed = pool_digest(name, seed)
            pool = f"{name} seed={seed}"
            line = f"{pool} sha256={digest} failed={failed}"
            print(line, flush=True)
            if args.against is not None and saved.get(pool) != line:
                print(f"report_digests: {pool} differs from {args.against}: {saved.get(pool, 'no line')}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
