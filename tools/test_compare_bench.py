#!/usr/bin/env python3
"""Unit tests for bench/compare_bench.py.

Covers the comparison semantics CI relies on -- regression detection,
tolerance, benchmarks present in only one file -- and in particular the
base-missing skip path (--missing-baseline-ok) that lets CI compare
every BENCH_*.json suite the head produces even when the base revision
predates a suite (e.g. BENCH_concurrent.json).

Run directly (python3 tools/test_compare_bench.py) or through CTest,
which registers it when a Python interpreter is found.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "bench",
    "compare_bench.py")


def run_tool(args):
    return subprocess.run(
        [sys.executable, TOOL] + args, capture_output=True, text=True)


def write_bench_json(path, name_to_items_per_second, context=None):
    doc = {
        "benchmarks": [
            {"name": name, "run_type": "iteration", "items_per_second": v}
            for name, v in name_to_items_per_second.items()
        ]
    }
    if context is not None:
        doc["context"] = context
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def test_missing_baseline_skips_cleanly_with_flag(self):
        current = self.path("current.json")
        write_bench_json(current, {"BM_ConcurrentIngest/8": 1e6})
        result = run_tool(
            [self.path("nonexistent.json"), current, "--missing-baseline-ok"])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("skipping comparison", result.stdout)

    def test_missing_baseline_is_an_error_without_flag(self):
        current = self.path("current.json")
        write_bench_json(current, {"BM_X": 1e6})
        result = run_tool([self.path("nonexistent.json"), current])
        self.assertEqual(result.returncode, 2)

    def test_regression_past_threshold_fails(self):
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_X": 100.0, "BM_Y": 100.0})
        write_bench_json(cur, {"BM_X": 80.0, "BM_Y": 100.0})  # -20%
        result = run_tool([base, cur, "--max-regression", "0.15"])
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_X", result.stderr)

    def test_within_tolerance_passes(self):
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_X": 100.0})
        write_bench_json(cur, {"BM_X": 90.0})  # -10% < 15%
        result = run_tool([base, cur, "--max-regression", "0.15"])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_one_sided_benchmarks_are_never_fatal(self):
        # A benchmark added in the head (baseline-missing) or retired in
        # the head (current-missing) must not fail the comparison.
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_Common": 100.0, "BM_Retired": 50.0})
        write_bench_json(cur, {"BM_Common": 100.0, "BM_New": 50.0})
        result = run_tool([base, cur])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("baseline-only", result.stdout)
        self.assertIn("new", result.stdout)

    def test_mismatched_fault_profile_is_an_input_error(self):
        # Two BENCH_cluster.json runs measured under different chaos
        # profiles are different experiments: the comparison must refuse
        # (exit 2, like malformed input), never report a ratio.
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(
            base, {"BM_ClusterChaosFlat": 100.0},
            context={"ats_cluster_fault_profile": "drop=0.05,dup=0.02"})
        write_bench_json(
            cur, {"BM_ClusterChaosFlat": 500.0},
            context={"ats_cluster_fault_profile": "drop=0.00,dup=0.00"})
        result = run_tool([base, cur])
        self.assertEqual(result.returncode, 2)
        self.assertIn("ats_cluster_fault_profile", result.stderr)
        self.assertIn("different workloads", result.stderr)

    def test_matching_fault_profile_compares_normally(self):
        profile = {"ats_cluster_fault_profile": "drop=0.05,dup=0.02"}
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_ClusterChaosFlat": 100.0},
                         context=profile)
        write_bench_json(cur, {"BM_ClusterChaosFlat": 60.0},
                         context=profile)  # -40%: a real regression
        result = run_tool([base, cur, "--max-regression", "0.15"])
        self.assertEqual(result.returncode, 1)

    def test_fault_profile_in_only_one_file_is_comparable(self):
        # A suite that gained the identity key since the base revision
        # (or a non-cluster suite with no such key at all) compares
        # normally.
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_X": 100.0})
        write_bench_json(
            cur, {"BM_X": 100.0},
            context={"ats_cluster_fault_profile": "drop=0.05"})
        result = run_tool([base, cur])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_malformed_input_is_an_input_error(self):
        base, cur = self.path("base.json"), self.path("cur.json")
        with open(base, "w", encoding="utf-8") as f:
            f.write("not json{")
        write_bench_json(cur, {"BM_X": 1.0})
        result = run_tool([base, cur])
        self.assertEqual(result.returncode, 2)

    # --- num_cpus identity for the concurrent suite ---------------------

    def test_concurrent_num_cpus_mismatch_is_an_input_error(self):
        # Thread-scaling numbers from a 1-cpu local run vs a multi-core
        # CI run are different experiments: refuse, like a fault-profile
        # mismatch.
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_ConcurrentIngest/8/real_time": 100.0},
                         context={"num_cpus": 1})
        write_bench_json(cur, {"BM_ConcurrentIngest/8/real_time": 500.0},
                         context={"num_cpus": 16})
        result = run_tool([base, cur])
        self.assertEqual(result.returncode, 2)
        self.assertIn("num_cpus", result.stderr)
        self.assertIn("different workloads", result.stderr)

    def test_non_concurrent_num_cpus_mismatch_is_comparable(self):
        # Core count is noise, not identity, for single-thread suites.
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_Throughput": 100.0},
                         context={"num_cpus": 1})
        write_bench_json(cur, {"BM_Throughput": 100.0},
                         context={"num_cpus": 16})
        result = run_tool([base, cur])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_concurrent_num_cpus_in_only_one_file_is_comparable(self):
        base, cur = self.path("base.json"), self.path("cur.json")
        write_bench_json(base, {"BM_ConcurrentIngest/8": 100.0})
        write_bench_json(cur, {"BM_ConcurrentIngest/8": 100.0},
                         context={"num_cpus": 16})
        result = run_tool([base, cur])
        self.assertEqual(result.returncode, 0, result.stderr)

    # --- --require-scaling ----------------------------------------------

    def scaling_doc(self, path, per_thread, num_cpus):
        write_bench_json(
            path,
            {
                f"BM_ConcurrentIngest/{t}/real_time": v
                for t, v in per_thread.items()
            },
            context={"num_cpus": num_cpus})

    def test_scaling_gate_passes_when_met(self):
        cur = self.path("cur.json")
        # 8 writers on 16 cpus: required >= 4.0x; 5.0x passes.
        self.scaling_doc(cur, {1: 100.0, 8: 500.0}, num_cpus=16)
        result = run_tool([
            self.path("nonexistent.json"), cur, "--missing-baseline-ok",
            "--require-scaling", "BM_ConcurrentIngest"])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("scaling BM_ConcurrentIngest/8", result.stdout)

    def test_scaling_gate_fails_when_unmet(self):
        cur = self.path("cur.json")
        # 8 writers on 16 cpus: required >= 4.0x; 2.0x fails -- and the
        # gate must fire even though the baseline comparison was skipped.
        self.scaling_doc(cur, {1: 100.0, 8: 200.0}, num_cpus=16)
        result = run_tool([
            self.path("nonexistent.json"), cur, "--missing-baseline-ok",
            "--require-scaling", "BM_ConcurrentIngest"])
        self.assertEqual(result.returncode, 1)
        self.assertIn("scaling requirement", result.stderr)

    def test_scaling_requirement_is_capped_by_num_cpus(self):
        cur = self.path("cur.json")
        # 16 writers on 4 cpus: required >= 0.5*min(16,4) = 2.0x, not 8x.
        self.scaling_doc(cur, {1: 100.0, 16: 210.0}, num_cpus=4)
        result = run_tool([
            self.path("nonexistent.json"), cur, "--missing-baseline-ok",
            "--require-scaling", "BM_ConcurrentIngest"])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_scaling_gate_skips_on_one_cpu(self):
        cur = self.path("cur.json")
        self.scaling_doc(cur, {1: 100.0, 8: 100.0}, num_cpus=1)
        result = run_tool([
            self.path("nonexistent.json"), cur, "--missing-baseline-ok",
            "--require-scaling", "BM_ConcurrentIngest"])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("skipped", result.stdout)

    def test_scaling_gate_with_no_matching_benchmarks_fails(self):
        # A typo'd prefix (or a head that silently dropped the sweep)
        # must not pass as a vacuous success.
        cur = self.path("cur.json")
        write_bench_json(cur, {"BM_Other/8": 100.0},
                         context={"num_cpus": 16})
        result = run_tool([
            self.path("nonexistent.json"), cur, "--missing-baseline-ok",
            "--require-scaling", "BM_ConcurrentIngest"])
        self.assertEqual(result.returncode, 1)
        self.assertIn("no benchmarks named", result.stderr)


if __name__ == "__main__":
    unittest.main()
