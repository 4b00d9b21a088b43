"""Benchmark for pointnull: four seeded workloads, measured end to end or traced.

Run from the repository root, for example:

    python3 bench/run.py --workload calibrate --seed 1 --seconds 10 --trace 0

Workloads: simulate, calibrate, sweep, cli. With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics, and the spans are written under bench/.work/. The run record --
inputs, sizes, sample counts and problems found -- is printed first and
also written under bench/.work/; the last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``. The program
exits with status 2, printing no result, when the checkout holds no
pointnull sources.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result, record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.write_record(record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
