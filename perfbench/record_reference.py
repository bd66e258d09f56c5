"""Record the seed-0 reference CSVs that run.py compares against.

    python3 perfbench/record_reference.py

Runs one seed-0 pass of every workload and copies its CSVs into
perfbench/reference/. Only for code whose outputs are known to be
right: the files define what later commits are checked against.
"""

import sys
import time

import run
import workloads


def main():
    for name in workloads.WORKLOADS:
        r = run.Run(name, 0, time.perf_counter() + 600.0, record=True)
        try:
            r.one_pass()
        finally:
            r.cleanup()
        if r.failures:
            print(f"{name}: invariant failures {r.failures}", file=sys.stderr)
            return 1
        print(f"{name}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
