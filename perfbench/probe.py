"""Set-up probe: a fresh process that imports pertbvp, builds the case of a
workload's first slot (problem and state) and runs it once as a warm-up op.
bench.py times it from spawn to exit; that wall time is one ``setup_s``
sample.

Usage: python3 perfbench/probe.py --workload deep-series --seed 1
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import ops  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    ops.series_op(cases.make_cases(args.workload, args.seed, shuffle=False)[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
