"""Unit tests for the benchmark's own statistics and metric derivation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


def timed(name, parent, start, end):
    return {"name": name, "parent": parent, "seconds": end - start, "start": start, "end": end}


def total(name, parent, seconds):
    return {"name": name, "parent": parent, "seconds": seconds}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_statistics_module(self):
        values = [0.91, 1.02, 0.97, 1.10, 0.95, 1.00, 1.04, 0.99, 0.93, 1.07]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([7.0, 7.0, 7.0]), 0.0)


class FailFrac(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(stats.fail_frac(0, 12), 0.0)
        self.assertEqual(stats.fail_frac(3, 12), 0.25)

    def test_rejects_impossible_counts(self):
        for failed, attempted in ((0, 0), (-1, 4), (5, 4)):
            with self.assertRaises(ValueError):
                stats.fail_frac(failed, attempted)


class RatesForSeed(unittest.TestCase):
    def test_default_seed_gives_the_base_rates(self):
        for base in run.WORKLOADS.values():
            self.assertEqual(stats.rates_for_seed(base, 0), base)

    def test_seeds_stay_within_one_percent_and_repeat(self):
        for base in run.WORKLOADS.values():
            seen = set()
            for seed in range(1, 200):
                rates = stats.rates_for_seed(base, seed)
                self.assertEqual(rates, stats.rates_for_seed(base, seed))
                self.assertLessEqual(abs(rates - base), base * 0.01)
                seen.add(rates)
            self.assertGreater(len(seen), 1, "seeds must move the rate axis")


class SelfTimes(unittest.TestCase):
    def test_timed_children_are_subtracted_once_where_they_overlap(self):
        nodes = [
            timed("workload", None, 0.0, 10.0),
            timed("a", 0, 1.0, 4.0),
            timed("b", 0, 3.0, 6.0),  # overlaps `a` by 1 s
            timed("c", 0, 9.0, 12.0),  # sticks out of the parent by 2 s
        ]
        own = stats.self_times(nodes)
        self.assertAlmostEqual(own[0], 10.0 - 5.0 - 1.0)
        self.assertEqual(own[1:], [3.0, 3.0, 3.0])

    def test_program_totals_are_subtracted_as_they_are(self):
        nodes = [
            timed("exec.explore", None, 0.0, 2.0),
            total("exec.eval", 0, 1.5),
            total("store.assemble", 0, 0.1),
        ]
        own = stats.self_times(nodes)
        self.assertAlmostEqual(own[0], 0.4)
        self.assertEqual(own[1:], [1.5, 0.1])

    def test_total_only_parents_subtract_their_children(self):
        nodes = [
            timed("shard.round", None, 0.0, 1.0),
            total("exec.explore", 0, 0.3),
            total("exec.eval", 1, 0.2),
        ]
        self.assertAlmostEqual(stats.self_times(nodes)[1], 0.1)

    def test_subtree_membership(self):
        nodes = [
            timed("workload", None, 0.0, 1.0),
            timed("exec.explore", 0, 0.0, 0.5),
            total("exec.eval", 1, 0.4),
            timed("key.intern", None, 1.0, 1.2),
        ]
        self.assertEqual(stats.in_subtree(nodes, "workload"), [True, True, True, False])


class LayerMetrics(unittest.TestCase):
    def test_sweep_shaped_iteration(self):
        nodes = [
            timed("workload", None, 0.0, 2.0),
            timed("exec.explore", 0, 0.0, 1.8),
            timed("report.render", 0, 1.8, 1.9),
            total("exec.eval", 1, 1.5),
            total("store.assemble", 1, 0.1),
            timed("key.intern", None, 2.0, 2.5),
            timed("store.frontier_replay", None, 2.5, 3.0),
        ]
        metrics = run.layer_metrics(nodes, {"exec.cells_evaluated": 600})
        self.assertAlmostEqual(metrics["exec.explore_s"], 1.8)
        self.assertAlmostEqual(metrics["exec.unattributed_s"], 0.2)
        self.assertAlmostEqual(metrics["self.exec_s"], 0.2 + 1.5)
        self.assertAlmostEqual(metrics["self.store_s"], 0.1)
        self.assertAlmostEqual(metrics["trace.workload_s"], 2.0)
        # Unattributed: the workload's own 0.1 s plus explore's 0.2 s.
        self.assertAlmostEqual(metrics["trace.unattributed_s"], 0.3)
        self.assertAlmostEqual(metrics["key.intern_s"], 0.5)
        self.assertEqual(metrics["exec.cells_evaluated"], 600)
        self.assertEqual(metrics["shard.round_s"], 0)
        names = {name for name, _, _ in run.PER_LAYER}
        self.assertEqual(set(metrics) | {"telemetry.trace_overhead_s"}, names)


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
