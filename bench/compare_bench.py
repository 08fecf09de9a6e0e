#!/usr/bin/env python3
"""Benchmark regression checker.

Diffs a freshly produced google-benchmark JSON (bench/run_bench.sh
output: the throughput / sharded / merge / window / concurrent suites)
against a committed baseline and fails when any benchmark's throughput
regresses by more than the tolerance (default 15%).

Benchmarks are matched by name. Throughput is `items_per_second` when
the benchmark reports it, otherwise the inverse of `cpu_time` (so pure
latency benchmarks still compare meaningfully). Benchmarks that exist
only in one file are reported but never fatal -- adding or retiring a
benchmark must not break CI. With --missing-baseline-ok, a baseline
FILE that does not exist is a clean skip (exit 0) rather than an input
error: a suite added in the head revision (e.g. BENCH_concurrent.json
when the base predates the concurrent tier) has no baseline yet, and CI
compares every suite the head produces without special-casing new ones.

Workload-identity context keys (currently `ats_cluster_fault_profile`,
written by bench/bench_cluster.cc) gate the comparison: when BOTH files
carry such a key and the values differ, the runs measured different
workloads and any ratio between them is meaningless -- that is a
malformed comparison (exit 2), not a regression. A key present in only
one file is fine (a suite gained or lost the key across revisions).

The concurrent suite gets one more identity axis: `num_cpus`. Its
headline numbers are thread-scaling ratios, so a 16-core baseline vs a
4-core head run (or the 1-CPU local baseline vs a multi-core CI run) is
a different experiment, exactly like a fault-profile mismatch -- the
comparison is refused (exit 2) whenever both docs report num_cpus, the
values differ, and either doc contains a "Concurrent"-named benchmark.
Non-concurrent suites stay comparable across machines: their numbers
are single-thread throughputs where core count is noise, not identity.

--require-scaling PREFIX asserts multi-writer scaling within the
CURRENT file alone: for every benchmark named PREFIX/T (optionally with
a /real_time suffix), throughput(T) / throughput(1) must be at least
0.5 * min(T, num_cpus). This is the concurrent ingest acceptance gate:
>= T/2 ideal-normalized scaling, capped by the cores the runner
actually has. On a 1-CPU runner (or when num_cpus is missing) the check
is skipped with a note -- scaling is unobservable there, and failing
would punish the machine, not the code. The gate runs even when the
baseline comparison was skipped via --missing-baseline-ok.

Usage:
  bench/compare_bench.py BASELINE.json CURRENT.json \
      [--max-regression 0.15] [--missing-baseline-ok] \
      [--require-scaling BM_ConcurrentIngest]

Exit status: 0 when no benchmark regresses past the threshold and every
--require-scaling gate holds (or is skipped), 1 otherwise, 2 on
malformed input (including workload-identity mismatches).
"""

import argparse
import json
import os
import re
import sys


# Context keys that define the measured workload's identity: two runs
# whose values differ are DIFFERENT experiments, and comparing them
# would be a silent lie (e.g. a low-chaos run "beating" a high-chaos
# baseline).
WORKLOAD_IDENTITY_KEYS = ("ats_cluster_fault_profile",)


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def has_concurrent_benchmarks(doc):
    return any(
        "Concurrent" in (b.get("name") or "")
        for b in doc.get("benchmarks", [])
    )


def check_workload_identity(base_doc, cur_doc, base_path, cur_path):
    base_ctx = base_doc.get("context", {})
    cur_ctx = cur_doc.get("context", {})
    for key in WORKLOAD_IDENTITY_KEYS:
        if key not in base_ctx or key not in cur_ctx:
            continue  # key adopted/retired across revisions: comparable
        if base_ctx[key] != cur_ctx[key]:
            print(
                f"error: {key} differs between {base_path} "
                f"({base_ctx[key]!r}) and {cur_path} ({cur_ctx[key]!r}); "
                "these runs measured different workloads and cannot be "
                "compared",
                file=sys.stderr,
            )
            sys.exit(2)
    # num_cpus is workload identity for the concurrent suite only:
    # thread-scaling numbers from machines with different core counts
    # are different experiments.
    if has_concurrent_benchmarks(base_doc) or has_concurrent_benchmarks(
        cur_doc
    ):
        base_cpus = base_ctx.get("num_cpus")
        cur_cpus = cur_ctx.get("num_cpus")
        if (
            base_cpus is not None
            and cur_cpus is not None
            and base_cpus != cur_cpus
        ):
            print(
                f"error: num_cpus differs between {base_path} "
                f"({base_cpus}) and {cur_path} ({cur_cpus}); concurrent "
                "thread-scaling runs from machines with different core "
                "counts measured different workloads and cannot be "
                "compared",
                file=sys.stderr,
            )
            sys.exit(2)


def load_throughputs(doc):
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if not name:
            continue
        if "items_per_second" in b:
            out[name] = float(b["items_per_second"])
        elif float(b.get("cpu_time", 0.0)) > 0.0:
            out[name] = 1.0 / float(b["cpu_time"])
    return out


def check_scaling(cur_doc, cur, prefix):
    """Gates PREFIX/T scaling within `cur`; returns the number of failures."""
    num_cpus = cur_doc.get("context", {}).get("num_cpus")
    if not num_cpus or int(num_cpus) < 2:
        print(
            f"scaling gate for {prefix}: skipped "
            f"(num_cpus={num_cpus!r}; scaling is unobservable here)"
        )
        return 0
    num_cpus = int(num_cpus)

    # PREFIX/T with an optional google-benchmark modifier suffix
    # (e.g. BM_ConcurrentIngest/8/real_time).
    pattern = re.compile(re.escape(prefix) + r"/(\d+)(/|$)")
    by_threads = {}
    for name, throughput in cur.items():
        m = pattern.match(name)
        if m:
            by_threads[int(m.group(1))] = throughput

    if not by_threads:
        print(
            f"error: --require-scaling {prefix}: no benchmarks named "
            f"{prefix}/T in the current file",
            file=sys.stderr,
        )
        return 1
    if 1 not in by_threads or by_threads[1] <= 0.0:
        print(
            f"error: --require-scaling {prefix}: missing a positive "
            f"{prefix}/1 single-writer baseline",
            file=sys.stderr,
        )
        return 1

    failures = 0
    base = by_threads[1]
    for threads in sorted(by_threads):
        if threads == 1:
            continue
        ratio = by_threads[threads] / base
        required = 0.5 * min(threads, num_cpus)
        ok = ratio >= required
        print(
            f"scaling {prefix}/{threads}: {ratio:.2f}x vs 1 writer "
            f"(required >= {required:.2f}x on {num_cpus} cpus)"
            + ("" if ok else "  FAIL")
        )
        if not ok:
            failures += 1
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="fatal fractional throughput drop (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--missing-baseline-ok",
        action="store_true",
        help="treat a nonexistent baseline file as a clean skip "
        "(new suite without a baseline yet) instead of an input error",
    )
    parser.add_argument(
        "--require-scaling",
        action="append",
        default=[],
        metavar="PREFIX",
        help="assert PREFIX/T throughput scaling within CURRENT: "
        "throughput(T)/throughput(1) >= 0.5*min(T, num_cpus); skipped "
        "on 1-cpu runners; repeatable",
    )
    args = parser.parse_args()

    cur_doc = load_doc(args.current)
    cur = load_throughputs(cur_doc)

    baseline_missing = args.missing_baseline_ok and not os.path.exists(
        args.baseline
    )
    regressions = []
    if baseline_missing:
        print(
            f"no baseline at {args.baseline} (new suite); "
            "skipping comparison"
        )
    else:
        base_doc = load_doc(args.baseline)
        check_workload_identity(
            base_doc, cur_doc, args.baseline, args.current
        )
        base = load_throughputs(base_doc)

        rows = []
        for name in sorted(base):
            if name not in cur:
                rows.append((name, "baseline-only", ""))
                continue
            ratio = (
                cur[name] / base[name] if base[name] > 0 else float("inf")
            )
            flag = ""
            if ratio < 1.0 - args.max_regression:
                flag = "REGRESSION"
                regressions.append((name, ratio))
            elif ratio > 1.0 + args.max_regression:
                flag = "improved"
            rows.append((name, f"{ratio:6.2f}x", flag))
        for name in sorted(set(cur) - set(base)):
            rows.append((name, "new", ""))

        width = max((len(r[0]) for r in rows), default=20)
        print(f"{'benchmark':<{width}}  current/baseline")
        for name, ratio, flag in rows:
            print(f"{name:<{width}}  {ratio:>16}  {flag}")

    # The scaling gate is independent of the baseline: it judges the
    # current run against itself, so it still applies when the baseline
    # comparison was skipped.
    scaling_failures = 0
    for prefix in args.require_scaling:
        scaling_failures += check_scaling(cur_doc, cur, prefix)

    failed = False
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.max_regression:.0%}:",
            file=sys.stderr,
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x of baseline", file=sys.stderr)
        failed = True
    if scaling_failures:
        print(
            f"\n{scaling_failures} scaling requirement(s) not met",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("\nno regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
