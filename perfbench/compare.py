#!/usr/bin/env python3
"""Compares two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py BASE_RUN... -- NEW_RUN...

Each argument is a file holding the stdout of one run.py invocation (its
context line and its result line). The two sets must describe the same
measurement: same workload, trace mode, run length, seeds, nproc, build
type, SIMD level (active and detected), chaos profile and checkpoint
filesystem. If any of these differ the script refuses, with exit code 2.
Otherwise it prints, per metric, each side's median, the change, and the
base side's spread (quartile distance over median).
"""
import json
import statistics
import sys

IDENTITY = ("workload", "trace", "seconds", "nproc", "build_type",
            "simd_active", "simd_detected", "chaos_profile", "checkpoint_fs")


def load(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.startswith("{")]
    context = next(line["context"] for line in lines if "context" in line)
    return context, lines[-1]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [[load(p) for p in argv[:split]], [load(p) for p in argv[split + 1:]]]
    if not sides[0] or not sides[1]:
        print("compare.py: each side needs at least one run", file=sys.stderr)
        return 2
    for key in IDENTITY:
        seen = {run[0].get(key) for side in sides for run in side}
        if len(seen) > 1:
            print(f"compare.py: refusing, runs differ in {key}: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2
    seeds = [sorted(run[0].get("seed") for run in side) for side in sides]
    if seeds[0] != seeds[1]:
        print(f"compare.py: refusing, seed sets differ: {seeds[0]} vs {seeds[1]}",
              file=sys.stderr)
        return 2
    for side in sides:
        for context, result in side:
            if not result.get("correct"):
                print(f"compare.py: run with seed {context.get('seed')} "
                      "failed its output checks", file=sys.stderr)
                return 2
    names = sorted(set().union(*(run[1]["metrics"] for side in sides for run in side)))
    print(f"{'metric':48s} {'base':>12s} {'new':>12s} {'change':>8s} {'base spread':>11s}")
    for name in names:
        vals = [[run[1]["metrics"][name]["value"] for run in side
                 if name in run[1]["metrics"]] for side in sides]
        if not vals[0] or not vals[1]:
            continue
        base, new = statistics.median(vals[0]), statistics.median(vals[1])
        change = (new - base) / base if base else float("nan")
        print(f"{name:48s} {base:12.6g} {new:12.6g} {change:+8.2%} {spread(vals[0]):11.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
