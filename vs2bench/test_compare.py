#!/usr/bin/env python3
"""Tests of the comparator: python3 -m unittest discover -s vs2bench"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer.self_ms", "unit": "ms", "better": "lower"}],
}

# Ten values with a 2% spread around 100.
BASE = [99.0, 101.0, 100.5, 99.5, 100.0, 98.8, 101.2, 100.2, 99.8, 100.1]


def records(workload, values, trace=0, name="lat_ms", seeds=None):
    seeds = seeds or range(1, len(values) + 1)
    return [{"workload": workload, "seed": s, "trace": trace, "inject": "",
             "result": {"metrics": {name: {"value": v, "unit": "x"}}}}
            for s, v in zip(seeds, values)]


def only(rows, metric):
    return [r for r in rows if r["metric"] == metric]


class VerdictTest(unittest.TestCase):
    def test_same_distribution_is_unchanged(self):
        change = [v + 0.05 * ((-1) ** i) for i, v in enumerate(BASE[::-1])]
        self.assertEqual(compare.verdict(BASE, change, "lower", 0.1)[0],
                         "unchanged")

    def test_consistently_lower_latency_is_improved(self):
        change = [v * 0.8 for v in BASE]
        self.assertEqual(compare.verdict(BASE, change, "lower", 0.1)[0],
                         "improved")

    def test_slowdown_beyond_bound_is_regressed(self):
        change = [v * 1.15 for v in BASE]
        self.assertEqual(compare.verdict(BASE, change, "lower", 0.1)[0],
                         "regressed")

    def test_consistent_slowdown_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in BASE]  # loses every pair, by 5%
        self.assertEqual(compare.verdict(BASE, change, "lower", 0.1)[0],
                         "unchanged")

    def test_direction_follows_better(self):
        change = [v * 1.05 for v in BASE]
        self.assertEqual(compare.verdict(BASE, change, "higher", 0.1)[0],
                         "improved")
        change = [v * 0.85 for v in BASE]
        self.assertEqual(compare.verdict(BASE, change, "higher", 0.1)[0],
                         "regressed")

    def test_eight_of_ten_wins_is_not_a_gain(self):
        change = [v * 0.8 for v in BASE]
        change[0] = BASE[0] * 1.1
        change[1] = BASE[1] * 1.1
        self.assertNotEqual(compare.verdict(BASE, change, "lower", 0.3)[0],
                            "improved")

    def test_win_inside_parent_noise_is_not_a_gain(self):
        parent = [100, 80, 120, 90, 110, 85, 115, 95, 105, 100]
        change = [v - 1 for v in parent]  # wins every pair, by 1%
        self.assertEqual(compare.verdict(parent, change, "lower", 0.5)[0],
                         "unchanged")

    def test_ties_count_for_neither(self):
        verdict, change_wins, parent_wins = compare.verdict(
            BASE, list(BASE), "lower", 0.1)
        self.assertEqual((verdict, change_wins, parent_wins),
                         ("unchanged", 0, 0))

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [100, 60, 140, 80, 120, 70, 130, 90, 110, 100]
        change = [110, 70, 150, 60, 100, 90, 140, 80, 120, 90]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "unresolved")

    def test_worse_beyond_bound_needs_no_consistent_losses(self):
        # The parent wins only 8 of 10 pairs; the median is still 30% worse
        # and both spreads are inside the bound.
        parent = [100, 100, 100, 100, 100, 100, 100, 100, 100, 100]
        change = [130, 130, 130, 130, 130, 130, 130, 130, 90, 90]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1),
                         ("regressed", 2, 8))

    def test_spread_wider_than_bound_hides_a_regression(self):
        parent = [100, 96, 104, 98, 102, 97, 103, 99, 101, 100]
        change = [130, 100, 160, 110, 150, 120, 140, 115, 145, 130]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "unresolved")

    def test_wide_spread_but_every_run_better_is_unchanged(self):
        # Wins every pair, but by less than the parent's own spread: not a
        # gain, and not unresolved either, since no run of it reads worse.
        parent = [100.0] * 5 + [200.0] * 5
        change = [99.0] * 10
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "unchanged")
        change[0] = 101.0
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "unresolved")

    def test_all_zero_metric_is_unchanged(self):
        self.assertEqual(compare.verdict([0.0] * 10, [0.0] * 10, "lower",
                                         0.1)[0], "unchanged")


class CompareTest(unittest.TestCase):
    def test_rows_per_workload_and_metric(self):
        parent = records("w1", BASE) + records("w2", BASE)
        change = records("w1", [v * 0.8 for v in BASE]) + records("w2", BASE)
        rows = compare.compare(parent, change, {
            **BENCH, "end_to_end": BENCH["end_to_end"][:1]})
        verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
        self.assertEqual(verdicts, {("w1", "lat_ms"): "improved",
                                    ("w2", "lat_ms"): "unchanged"})

    def test_pairs_by_seed(self):
        parent = records("w1", BASE, seeds=range(1, 11))
        # Same values, listed in reverse seed order: pairing must realign.
        change = records("w1", BASE[::-1], seeds=range(10, 0, -1))
        rows = compare.compare(parent, change, {
            **BENCH, "end_to_end": BENCH["end_to_end"][:1]})
        self.assertEqual(rows[0]["change_wins"] + rows[0]["parent_wins"], 0)

    def test_info_rows_are_compared_when_recorded(self):
        parent = records("w1", BASE)
        change = records("w1", BASE)
        for r in parent:
            r["info"] = {"docs_per_s": {"value": 100.0, "unit": "1/s"}}
        for r in change:
            r["info"] = {"docs_per_s": {"value": 130.0, "unit": "1/s"}}
        rows = compare.compare(parent, change, {
            **BENCH, "end_to_end": BENCH["end_to_end"][:1]})
        self.assertEqual(
            [(r["kind"], r["metric"], r["verdict"]) for r in rows],
            [("end_to_end", "lat_ms", "unchanged"),
             ("info", "docs_per_s", "improved")])

    def test_per_layer_rows_use_the_extra_bound(self):
        parent = records("w1", BASE, trace=1, name="layer.self_ms")
        # 15% worse: beyond the end-to-end rows' 0.1, within EXTRA_BOUND.
        change = records("w1", [v * 1.15 for v in BASE], trace=1,
                         name="layer.self_ms")
        rows = compare.compare(parent, change, BENCH)
        self.assertEqual(only(rows, "layer.self_ms")[0]["verdict"],
                         "unchanged")
        change = records("w1", [v * (1.05 + compare.EXTRA_BOUND)
                                for v in BASE], trace=1,
                         name="layer.self_ms")
        rows = compare.compare(parent, change, BENCH)
        self.assertEqual(only(rows, "layer.self_ms")[0]["verdict"],
                         "regressed")


if __name__ == "__main__":
    unittest.main()
