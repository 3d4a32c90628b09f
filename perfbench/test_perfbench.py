"""Tests of the benchmark's own statistics and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import checks
import run
import stats
import traced
import workloads


class TailRule(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertIsNone(stats.tail([1.0] * 10))
        self.assertIsNone(stats.tail([]))

    def test_eleven_samples_give_the_minimum(self):
        value, percentile, count = stats.tail(list(range(11, 0, -1)))
        self.assertEqual((value, count), (1, 11))
        self.assertAlmostEqual(percentile, 100 / 11)

    def test_hundred_samples_give_the_ninetieth_percentile(self):
        samples = [float(i) for i in range(1, 101)]
        value, percentile, count = stats.tail(list(reversed(samples)))
        self.assertEqual((value, percentile, count), (90.0, 90.0, 100))
        self.assertEqual(sum(s > value for s in samples), 10)


class TotalsOverTime(unittest.TestCase):
    def test_total_rate_is_total_work_over_total_time(self):
        self.assertEqual(stats.total_rate([4, 6], [1.0, 4.0]), 2.0)
        with self.assertRaises(ValueError):
            stats.total_rate([1], [0.0])

    def test_total_moves_smoothly_where_a_median_jumps(self):
        # Units of equal work on a host with two speeds 35 % apart: as
        # one unit moves from the fast mode to the slow one, the median
        # unit rate jumps between the modes while the total barely moves.
        def mix(slow):
            return [1.35] * slow + [1.0] * (20 - slow)

        medians = [statistics.median(1 / t for t in mix(s)) for s in (9, 11)]
        totals = [stats.total_rate([1] * 20, mix(s)) for s in (9, 11)]
        self.assertGreater(medians[0] / medians[1], 1.3)
        self.assertLess(totals[0] / totals[1], 1.04)

    def test_interquartile_mean_ignores_one_stalled_sample(self):
        self.assertEqual(stats.interquartile_mean([1.0, 1.0, 1.0, 9.0]), 1.0)
        self.assertEqual(stats.interquartile_mean([2.0]), 2.0)


class ReplayedOps(unittest.TestCase):
    def test_sweep_plan_counts_units_schemes_and_warmup(self):
        # 3 profiles x 2 geometries, 4 schemes, 50 000 ops + 5 000 warm-up.
        self.assertEqual(stats.sweep_replayed_ops(3, 2, 4, 50_000), 1_320_000)
        self.assertEqual(stats.sweep_replayed_ops(1, 1, 1, 99), 99 + 9)

    def test_serve_series_job_matches_its_plan(self):
        c = workloads.SERVE_SERIES
        self.assertEqual(workloads.job_replayed_ops(),
                         stats.sweep_replayed_ops(len(c["profiles"]), len(c["geometries"]), 4, c["ops"]))


def served(document, state="completed", index=0):
    line = json.dumps({"ok": True, "document": document}).encode()
    return workloads.Job(index, 1.0, 0.0, 0.0, 1.0, 0.0, state, line)


class OutputChecks(unittest.TestCase):
    DOCUMENT = {"ops": 10, "seed": 1, "geometries": [{"benchmarks": [{"array_accesses": 41}]}]}

    def test_matching_document_passes(self):
        expected = {0: checks.document_digest(self.DOCUMENT)}
        self.assertEqual(checks.served_failures([served(self.DOCUMENT)], expected), 0)

    def test_corrupted_document_counts_as_failed(self):
        expected = {0: checks.document_digest(self.DOCUMENT)}
        corrupted = json.loads(json.dumps(self.DOCUMENT))
        corrupted["geometries"][0]["benchmarks"][0]["array_accesses"] += 1
        jobs = [served(self.DOCUMENT), served(corrupted)]
        self.assertEqual(checks.served_failures(jobs, expected), 1)

    def test_unfinished_or_refused_jobs_count_as_failed(self):
        expected = {0: checks.document_digest(self.DOCUMENT)}
        refused = workloads.Job(0, 1.0, 0.0, 0.0, 1.0, 0.0, "completed",
                                b'{"ok":false,"error":{"code":"not-finished"}}')
        jobs = [served(self.DOCUMENT, state="failed"), refused,
                workloads.Job(0, 1.0, 0.0, 0.0, 1.0, 0.0, "completed", b"")]
        self.assertEqual(checks.served_failures(jobs, expected), 3)

    def test_simulate_lines_must_match(self):
        out = ("scheme WG+RB on 10 ops:\n  array accesses 7 (reads 5)\n"
               "  requests: accesses=10 (r 4/5 hit)\n")
        good = workloads.Proc(1.0, 1.0, 1.0, 0, out)
        expected = checks.digest(checks.stats_lines(out))
        self.assertTrue(checks.simulate_ok(good, expected))
        self.assertFalse(checks.simulate_ok(workloads.Proc(1.0, 1.0, 1.0, 0, out.replace("7", "8")), expected))
        self.assertFalse(checks.simulate_ok(workloads.Proc(1.0, 1.0, 1.0, 1, out), expected))
        self.assertFalse(checks.simulate_ok(workloads.Proc(1.0, 1.0, 1.0, 0, ""), expected))


class TracedRun(unittest.TestCase):
    def test_log2_quantile_interpolates_inside_the_bucket(self):
        # Four observations in [4, 8) and four in [8, 16).
        histogram = {"count": 8, "max": 15, "buckets": [[3, 4], [4, 4]]}
        self.assertEqual(traced.log2_quantile(histogram, 0.5), 8.0)
        self.assertEqual(traced.log2_quantile(histogram, 0.25), 6.0)

    def test_exact_counts_must_repeat_bit_for_bit(self):
        first = {"a": 0.1 + 0.2, "b": 3.0, "timing": 1.0}
        second = {"a": 0.3, "b": 3.0, "timing": 2.0}
        self.assertEqual(traced.exact_mismatches(first, second, {"a", "b"}), ["a"])


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

    def test_scored_workloads_exist_in_run_py(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertTrue(names)
        self.assertLessEqual(set(names), set(workloads.WORKLOADS))

    def test_metrics_match_what_run_py_reports(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
                         traced.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
