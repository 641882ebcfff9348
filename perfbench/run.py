"""pertbvp benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep-series --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every op's output is checked against pertbvp's oracles; the environment,
per-case errors and the spans of a traced run are written under
``.perfbench_out/``.  See perfbench/README.md for the metrics and workloads.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("cli-roundtrip", "deep-series", "excited-oracle")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pertbvp" / "__init__.py").is_file():
        print(f"error: pertbvp sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread per process (children inherit it); numpy reads these
    # when it is first imported, which happens in bench
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
