#!/usr/bin/env python3
"""Compares a bench_micro_kernels run against the checked-in kernel trajectory.

usage:
  build/bench/bench_micro_kernels --benchmark_format=json \\
      --benchmark_repetitions=3 > run.json
  tools/bench_kernels_diff.py run.json [--baseline BENCH_kernels.json]
  tools/bench_kernels_diff.py run.json --row LABEL

The first form prints, per kernel, the ns/op of the last row of the baseline
file and of the run, and flags every kernel more than 10 % slower;
it exits 1 if any kernel is flagged. The second form prints the run reduced
to one trajectory row ({"rev": LABEL, "ns_per_op": {...}}) for appending to
BENCH_kernels.json. With repetitions, a kernel's ns/op is the fastest
repetition: on a shared machine the minimum is the least noisy estimate.
"""

import argparse
import json
import sys

NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
THRESHOLD = 0.10  # A kernel this much slower than the baseline is flagged.


def reduce_run(path):
    with open(path) as f:
        run = json.load(f)
    ns = {}
    for b in run["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        name = b.get("run_name", b["name"])
        t = b["real_time"] * NS_PER[b["time_unit"]]
        ns[name] = round(min(ns.get(name, t), t), 1)
    return ns


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("run")
    parser.add_argument("--baseline", default="BENCH_kernels.json")
    parser.add_argument("--row")
    args = parser.parse_args()

    ns = reduce_run(args.run)
    if args.row:
        print(json.dumps({"rev": args.row, "ns_per_op": ns}))
        return 0

    with open(args.baseline) as f:
        base = json.load(f)["rows"][-1]
    flagged = 0
    print("%-30s %14s %14s %8s" % ("kernel", base["rev"], "run", "change"))
    for name, before in base["ns_per_op"].items():
        if name not in ns:
            print("%-30s %14.0f %14s" % (name, before, "missing"))
            continue
        ratio = ns[name] / before - 1.0
        slow = ratio > THRESHOLD
        flagged += slow
        print("%-30s %14.0f %14.0f %+7.0f%%%s" % (
            name, before, ns[name], 100 * ratio, "  SLOWER" if slow else ""))
    print("%d of %d kernels more than %.0f%% slower than %s" % (
        flagged, len(base["ns_per_op"]), 100 * THRESHOLD, base["rev"]))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
