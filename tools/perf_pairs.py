#!/usr/bin/env python3
"""Runs alternating parent/change perfbench pairs and judges each metric.

    python3 tools/perf_pairs.py --base PARENT_CHECKOUT --new CHANGE_CHECKOUT \\
        --workload distinct_fanin [--workload ...] --pairs 10 --seconds 20 \\
        --seed 1 --out DIR
    python3 tools/perf_pairs.py --report-only --base ... --new ... \\
        --workload ... --pairs 10 --out DIR

Each checkout is the root of a full tree with perfbench/run.py (each
builds its own program into its own .bench_build/). Pair i runs both
sides one after the other; the side that runs first alternates (the
parent first in even pairs). Every run's stdout is kept as
DIR/<workload>_<pair>_<base|new>.txt, which perfbench/compare.py also
reads; --report-only judges saved runs without running anything.

Per workload, for every metric the change checkout's BENCHMARK.json
declares (end-to-end, then per-layer; --trace 1 runs carry only the
per-layer ones), it prints each side's median and quartiles, the change
in the medians, how many pairs the change won (ties count for neither
side) and a verdict:

  gain        the change won >= 9/10 of the pairs and the medians differ,
              in the better direction, by more than the parent's
              quartile distance;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own spread (quartile distance over median)
              exceeds the bound and the runs do not separate (not every
              change run better than every parent run);
  within      none of the above.

A per-layer metric has no bound, so it reads "gain" or "-".

Exits 1 if a run failed its output checks or a metric reads "worse", 2
on bad arguments or missing runs, 0 otherwise.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("base", "new")
WIN_SHARE = 0.9


def side_order(pair):
    """The order in which pair `pair` runs its two sides."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values):
    """(q1, median, q3); the same quartile rule as perfbench/compare.py."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return q[0], med, q[2]


def summarize(base, new, better, bound):
    """Judges one metric from paired runs: base[i] and new[i] ran together.

    `bound` is the metric's allowed worsening, or None for a per-layer
    metric, which can only read "gain" or "-".
    """
    if len(base) != len(new) or not base:
        raise ValueError("need the same non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    losses = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    change = (n_med - b_med) / b_med if b_med else math.nan
    base_iqr = b_q3 - b_q1
    gain = (wins >= math.ceil(WIN_SHARE * len(base)) and
            sign * (n_med - b_med) > base_iqr)
    spread = base_iqr / b_med if b_med else math.nan
    if better == "higher":
        separated = min(new) > max(base)
    else:
        separated = max(new) < min(base)
    if gain:
        verdict = "gain"
    elif bound is None:
        verdict = "-"
    elif -sign * change > bound:
        verdict = "worse"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"base": (b_q1, b_med, b_q3), "new": (n_q1, n_med, n_q3),
            "change": change, "wins": wins, "losses": losses,
            "pairs": len(base), "base_spread": spread, "verdict": verdict}


def load_result(path):
    """The result object: the last stdout line that parses as JSON."""
    with open(path) as f:
        lines = [line for line in f if line.startswith("{")]
    if not lines:
        raise ValueError(f"{path}: no result line")
    return json.loads(lines[-1])


def run_path(out, workload, pair, side):
    return os.path.join(out, f"{workload}_{pair:02d}_{side}.txt")


def run_one(checkout, workload, args, path):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(path, "w") as out, open(path + ".log", "w") as log:
        subprocess.run(cmd, cwd=checkout, stdout=out, stderr=log, check=False)


def declared_metrics(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"] + spec.get("per_layer", [])


def fmt(quartile_triple):
    return "/".join(f"{v:.4g}" for v in quartile_triple)


def report(workload, results, metrics):
    """Prints one workload's table; returns its failure flags."""
    failed = any(not r.get("correct") or r.get("failed")
                 for side in results.values() for r in side)
    worse = False
    print(f"== {workload}: {len(results['base'])} pairs"
          f"{'  (A RUN FAILED ITS OUTPUT CHECKS)' if failed else ''}")
    print(f"{'metric':44s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s}"
          f" {'change':>8s} {'wins':>7s} {'spread':>7s}  verdict")
    for m in metrics:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in results[s]
                    if name in r["metrics"]] for s in SIDES}
        if len(vals["base"]) != len(results["base"]) or \
                len(vals["new"]) != len(results["new"]):
            continue
        s = summarize(vals["base"], vals["new"], m["better"], m.get("bound"))
        worse |= s["verdict"] == "worse"
        print(f"{name:44s} {fmt(s['base']):>30s} {fmt(s['new']):>30s}"
              f" {s['change']:+8.2%} {s['wins']:>3d}/{s['pairs']:<3d}"
              f" {s['base_spread']:7.3f}  {s['verdict']}")
    return failed, worse


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--new", required=True, help="change checkout")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", required=True)
    parser.add_argument("--report-only", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"base": args.base, "new": args.new}
    os.makedirs(args.out, exist_ok=True)
    if not args.report_only:
        for pair in range(args.pairs):
            for workload in args.workload:
                for side in side_order(pair):
                    run_one(checkouts[side], workload, args,
                            run_path(args.out, workload, pair, side))
    metrics = declared_metrics(args.new)
    status = 0
    for workload in args.workload:
        try:
            results = {side: [load_result(run_path(args.out, workload, p, side))
                              for p in range(args.pairs)] for side in SIDES}
        except (OSError, ValueError) as err:
            print(f"perf_pairs: {err}", file=sys.stderr)
            return 2
        failed, worse = report(workload, results, metrics)
        if failed or worse:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
