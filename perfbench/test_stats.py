#!/usr/bin/env python3
"""Tests for the benchmark's statistics, sample reduction and metric tables.

    python3 perfbench/test_stats.py
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.9, 1.4, 1.0, 1.2, 1.1, 0.95, 1.3, 1.05, 1.15, 1.25]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(stats.spread([7.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_empty_input_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.quartiles([])


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.9), 90)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile([5.0], 0.99), 5.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0.0)


class Repetitions(unittest.TestCase):
    def test_best_of_reps_is_columnwise_min(self):
        self.assertEqual(stats.best_of_reps([3, 1, 2, 2, 5, 1], 3), [2, 1, 1])
        self.assertEqual(stats.best_of_reps([4, 5], 2), [4, 5])

    def test_best_of_reps_rejects_partial_reps(self):
        with self.assertRaises(ValueError):
            stats.best_of_reps([1, 2, 3], 2)
        with self.assertRaises(ValueError):
            stats.best_of_reps([], 2)

    def test_midmean_drops_the_outer_quarters(self):
        self.assertEqual(stats.midmean([100, 2, 3, 0]), 2.5)
        self.assertEqual(stats.midmean([5, 1, 3, 2, 4, 9, 0, 7]), 3.5)
        self.assertEqual(stats.midmean([4.0, 2.0]), 3.0)
        with self.assertRaises(ValueError):
            stats.midmean([])

    def test_midmean_moves_smoothly_between_two_modes(self):
        # Shifting 10 % of 100 samples from a fast to a slow mode moves
        # the median across the whole gap but the midmean by a fifth of it.
        def two_modes(slow):
            return [1.0] * (100 - slow) + [2.0] * slow
        self.assertEqual(stats.median(two_modes(45)), 1.0)
        self.assertEqual(stats.median(two_modes(55)), 2.0)
        self.assertAlmostEqual(stats.midmean(two_modes(55)) -
                               stats.midmean(two_modes(45)), 0.2)


def record(samples, values=None):
    return {"samples": samples, "values": values or {}, "provenance": {}}


class SampleReduction(unittest.TestCase):
    """run.metrics_of turns a raw record into the named metrics."""

    def test_service_stream(self):
        jobs = [0.1 * (i + 1) for i in range(100)]
        rec = record({"setup_s": [3.0, 1.0, 2.0], "run_s": [5.0, 7.0],
                      "latency_s": jobs}, {"peak_rss_mib": 12.5})
        m = run.metrics_of(rec, trace=0)
        self.assertEqual([name for name, _ in run.END_TO_END], list(m))
        self.assertEqual(m["setup_s"], (2.0, "s"))
        self.assertEqual(m["run_s"], (6.0, "s"))
        self.assertAlmostEqual(m["latency_midmean_s"][0], 5.05)
        self.assertAlmostEqual(m["latency_tail_s"][0], 7.5)  # p75 of 100
        self.assertEqual(rec["provenance"]["latency_tail_q"], 0.75)
        self.assertEqual(rec["provenance"]["latency_samples"], 100)
        self.assertEqual(m["peak_rss_mib"], (12.5, "MiB"))

    def test_sim_best_of_reps(self):
        # Three repetitions of a 4-step budget; one slow period per step.
        reps = [[1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 3.0, 9.0],
                [1.0, 5.0, 3.0, 4.0]]
        rec = record({"setup_s": [0.3, 0.1, 0.2], "run_s": [10.0, 15.5, 13.0],
                      "latency_s": [x for rep in reps for x in rep]},
                     {"peak_rss_mib": 2.0})
        rec["provenance"]["nsteps"] = 4
        m = run.metrics_of(rec, trace=0)
        self.assertEqual(m["run_s"], (10.0, "s"))
        self.assertEqual(m["latency_midmean_s"], (2.5, "s"))
        self.assertEqual(m["latency_tail_s"], (4.0, "s"))
        self.assertEqual(rec["provenance"]["latency_reps"], 3)

    def test_sim_samples_must_be_whole_reps(self):
        rec = record({"setup_s": [1.0], "run_s": [1.0],
                      "latency_s": [1.0] * 7}, {"peak_rss_mib": 1.0})
        rec["provenance"]["nsteps"] = 4
        with self.assertRaises(ValueError):
            run.metrics_of(rec, trace=0)

    def test_generator_lag_is_nearest_rank_p90(self):
        lags = [0.001 * i for i in range(100)]
        values = {name: 1.0 for name, _ in run.PER_LAYER}
        rec = record({"generator_lag_s": lags, "queue_s": [0.2, 0.1, 0.3]},
                     values)
        m = run.metrics_of(rec, trace=1)
        self.assertAlmostEqual(m["svc.generator_lag_p90_s"][0], 0.089)
        self.assertEqual(m["svc.queue_p50_s"][0], 0.2)
        # Layers without samples keep the measured value.
        self.assertEqual(m["svc.exec_p50_s"][0], 1.0)
        self.assertEqual([name for name, _ in run.PER_LAYER], list(m))

    def test_on_schedule_generator_has_zero_lag(self):
        values = {name: 0.0 for name, _ in run.PER_LAYER}
        rec = record({"generator_lag_s": [0.0] * 50}, values)
        self.assertEqual(run.metrics_of(rec, 1)["svc.generator_lag_p90_s"][0],
                         0.0)


class Verdict(unittest.TestCase):
    def test_worse_beyond_bound(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02]
        head = [1.2, 1.21, 1.19, 1.2, 1.22]
        word, change = stats.verdict(base, head, 0.1)
        self.assertEqual(word, "worse")
        self.assertAlmostEqual(change, 0.2)

    def test_within_bound_is_ok(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02]
        head = [1.05, 1.06, 1.04, 1.05, 1.07]
        self.assertEqual(stats.verdict(base, head, 0.1)[0], "ok")

    def test_wide_spread_is_unresolved(self):
        base = [0.5, 1.0, 1.5, 1.0, 0.6, 1.4]
        head = [1.0] * 6
        self.assertEqual(stats.verdict(base, head, 0.1)[0], "unresolved")

    def test_higher_is_better(self):
        word, change = stats.verdict([10.0] * 3, [8.0] * 3, 0.1,
                                     better="higher")
        self.assertEqual(word, "worse")
        self.assertAlmostEqual(change, 0.2)


class MetricTables(unittest.TestCase):
    """run.py's metric tables and BENCHMARK.json name the same metrics."""

    def setUp(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        self.spec = json.loads(path.read_text())

    def test_end_to_end(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
            list(run.END_TO_END))

    def test_per_layer(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            list(run.PER_LAYER))

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
