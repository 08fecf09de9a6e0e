#!/usr/bin/env python3
"""Unit tests for the statistics in tools/perf_pairs.py.

Covers the pairing order, the quartiles, the win count (ties count for
neither side) and each verdict of the gain rule: >= 9/10 pair wins and a
median gap larger than the parent's quartile distance.

    python3 tools/test_perf_pairs.py
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402


class SideOrder(unittest.TestCase):
    def test_first_side_alternates(self):
        self.assertEqual(perf_pairs.side_order(0), ("base", "new"))
        self.assertEqual(perf_pairs.side_order(1), ("new", "base"))
        self.assertEqual(perf_pairs.side_order(2), ("base", "new"))


class Quartiles(unittest.TestCase):
    def test_matches_compare_py_rule(self):
        # statistics.quantiles(n=4), exclusive method, as compare.py.
        q1, med, q3 = perf_pairs.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_single_run_has_no_spread(self):
        self.assertEqual(perf_pairs.quartiles([3.0]), (3.0, 3.0, 3.0))


class Summarize(unittest.TestCase):
    BASE = [3.3, 3.4, 3.5, 3.2, 3.45, 3.35, 3.5, 3.3, 3.4, 3.38]

    def test_clear_gain(self):
        new = [b * 2.0 for b in self.BASE]
        s = perf_pairs.summarize(self.BASE, new, "higher", 0.25)
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["verdict"], "gain")
        self.assertAlmostEqual(s["change"], 1.0)

    def test_lower_is_better_gain(self):
        new = [b * 0.5 for b in self.BASE]
        s = perf_pairs.summarize(self.BASE, new, "lower", 0.25)
        self.assertEqual(s["verdict"], "gain")

    def test_eight_of_ten_wins_is_not_a_gain(self):
        new = [b * 2.0 for b in self.BASE]
        new[0] = self.BASE[0] - 0.1
        new[1] = self.BASE[1] - 0.1
        s = perf_pairs.summarize(self.BASE, new, "higher", 0.25)
        self.assertEqual((s["wins"], s["losses"]), (8, 2))
        self.assertNotEqual(s["verdict"], "gain")

    def test_ties_count_for_neither_side(self):
        s = perf_pairs.summarize(self.BASE, list(self.BASE), "higher", 0.25)
        self.assertEqual((s["wins"], s["losses"]), (0, 0))
        self.assertEqual(s["verdict"], "within")

    def test_all_wins_inside_the_spread_is_not_a_gain(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        new = [b + 0.5 for b in base]  # wins every pair, gap 0.5 < IQR 5.5
        s = perf_pairs.summarize(base, new, "higher", 10.0)
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["verdict"], "within")

    def test_worse_beyond_bound(self):
        new = [b * 0.7 for b in self.BASE]  # -30% on a higher-is-better
        s = perf_pairs.summarize(self.BASE, new, "higher", 0.25)
        self.assertEqual(s["verdict"], "worse")
        up = perf_pairs.summarize(self.BASE, [b * 1.3 for b in self.BASE],
                                  "lower", 0.25)
        self.assertEqual(up["verdict"], "worse")

    def test_wide_spread_is_unresolved_unless_separated(self):
        base = [100, 300, 150, 320, 110, 290, 130, 310, 120, 305]
        new = [b * 1.1 for b in base]  # +10%, inside the 25% bound
        s = perf_pairs.summarize(base, new, "lower", 0.25)
        self.assertGreater(s["base_spread"], 0.25)
        self.assertEqual(s["verdict"], "unresolved")
        apart = perf_pairs.summarize([10, 40, 12, 38], [41, 50, 45, 60],
                                     "higher", 0.25)
        self.assertNotEqual(apart["verdict"], "unresolved")

    def test_per_layer_metric_has_no_bound(self):
        slower = perf_pairs.summarize(self.BASE, [b * 0.5 for b in self.BASE],
                                      "higher", None)
        self.assertEqual(slower["verdict"], "-")
        faster = perf_pairs.summarize(self.BASE, [b * 2 for b in self.BASE],
                                      "higher", None)
        self.assertEqual(faster["verdict"], "gain")

    def test_mismatched_run_counts_are_refused(self):
        with self.assertRaises(ValueError):
            perf_pairs.summarize([1.0, 2.0], [1.0], "higher", 0.25)


class ReportOnly(unittest.TestCase):
    def test_reads_saved_runs_and_exits_on_verdict(self):
        with tempfile.TemporaryDirectory() as tmp:
            checkout = os.path.join(tmp, "checkout")
            out = os.path.join(tmp, "out")
            os.makedirs(checkout)
            os.makedirs(out)
            with open(os.path.join(checkout, "BENCHMARK.json"), "w") as f:
                json.dump({"end_to_end": [
                    {"name": "ingest_mitems_s", "better": "higher",
                     "bound": 0.25}]}, f)
            for pair in range(10):
                for side, rate in (("base", 3.0 + 0.01 * pair),
                                   ("new", 6.0 + 0.01 * pair)):
                    path = perf_pairs.run_path(out, "w", pair, side)
                    with open(path, "w") as f:
                        f.write('{"context": {}}\n')
                        f.write(json.dumps({"correct": True, "failed": 0,
                                            "metrics": {"ingest_mitems_s": {
                                                "value": rate}}}) + "\n")
            args = ["--report-only", "--base", checkout, "--new", checkout,
                    "--workload", "w", "--out", out]
            with open(os.devnull, "w") as devnull:
                saved = sys.stdout, sys.stderr
                sys.stdout = sys.stderr = devnull
                try:
                    self.assertEqual(perf_pairs.main(args), 0)
                    # An eleventh pair was never run.
                    self.assertEqual(perf_pairs.main(args + ["--pairs", "11"]),
                                     2)
                finally:
                    sys.stdout, sys.stderr = saved


if __name__ == "__main__":
    unittest.main()
