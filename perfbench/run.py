"""Driver entry point: one workload, one process, one contract line.

    python3 perfbench/run.py --workload train_small --seed 0 --seconds 10 --trace 0

The last line of stdout is the JSON object the builder contract asks
for; everything else goes to stderr.  Exits non-zero, printing no
result, when the program under test (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main(argv=None) -> int:
    t_start = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench import catalogue, harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full result JSON here")
    parser.add_argument("--out", default=os.path.join(root, "perfbench_out"),
                        help="directory for the span files of a traced run")
    args = parser.parse_args(argv)

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    harness.pin_threads()
    sys.path.insert(0, src)
    return harness.run_one(
        args.workload, args.seed, args.seconds, bool(args.trace),
        t_start, args.detail, args.out,
    )


if __name__ == "__main__":
    sys.exit(main())
