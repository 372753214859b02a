"""Self-tests of the benchmark: the statistics helpers, and that a seed
fixes the deterministic metrics of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The seed test builds the harness (as run.py does) and runs each workload
twice for a fraction of a second.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTests(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        self.assertEqual(stats.samples_beyond(90, 100), 10)

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(100, 0, -1)]
        self.assertEqual(stats.percentile(samples, 90), 90.0)

    def test_refuses_percentile_with_fewer_than_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(99)), 90))
        self.assertIsNotNone(stats.percentile(list(range(100)), 90))
        self.assertIsNone(stats.percentile(list(range(19)), 50))
        self.assertIsNotNone(stats.percentile(list(range(20)), 50))
        self.assertIsNone(stats.percentile([], 50))


class ChunkedMedianTests(unittest.TestCase):
    def test_is_the_median_when_samples_do_not_drift(self):
        samples = [float(x % 21) for x in range(105)]
        self.assertEqual(stats.p50(samples), 10.0)

    def test_mean_of_chunk_medians_follows_the_share_of_slow_phases(self):
        # Fast phase (1.0) for two chunks, slow (1.3) for three: a median
        # over the run would read 1.3; the chunk medians' mean reads the
        # mix.
        samples = [1.0] * 42 + [1.3] * 63
        self.assertAlmostEqual(stats.p50(samples), (2 * 1.0 + 3 * 1.3) / 5)
        self.assertEqual(stats.percentile(samples, 50), 1.3)

    def test_last_chunk_takes_the_remainder(self):
        samples = [1.0] * 21 + [2.0] * 20 + [9.0] * 10
        # Chunks: 21 x 1.0, then 30 samples whose median is 2.0.
        self.assertAlmostEqual(stats.p50(samples), 1.5)

    def test_refuses_fewer_than_one_chunk(self):
        self.assertIsNone(stats.p50([1.0] * (stats.CHUNK - 1)))
        self.assertEqual(stats.p50([1.0] * stats.CHUNK), 1.0)
        self.assertEqual(stats.samples_beyond(50, stats.CHUNK),
                         stats.MIN_BEYOND)


class PerClassTests(unittest.TestCase):
    def test_per_class_then_geomean(self):
        # Two job sizes far apart: a pooled median would land on one
        # cluster or the other; the per-class route combines them.
        classes = {"small": [2.0] * 100, "large": [8.0] * 100}
        for estimate in (stats.p50, stats.p90):
            combined, rows = stats.per_class(classes, estimate)
            self.assertAlmostEqual(combined, 4.0)
            self.assertEqual(rows, [("large", 100, 8.0), ("small", 100, 2.0)])

    def test_one_short_class_makes_the_combination_missing(self):
        classes = {"full": list(range(200)), "short": list(range(60))}
        combined, rows = stats.per_class(classes, stats.p90)
        self.assertIsNone(combined)
        self.assertIn(("short", 60, None), rows)
        combined50, _ = stats.per_class(classes, stats.p50)
        self.assertIsNotNone(combined50)
        combined50, rows = stats.per_class({"c": list(range(20))}, stats.p50)
        self.assertIsNone(combined50)
        self.assertEqual(rows, [("c", 20, None)])


class MetricNameTests(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    DOC = {
        "attempted": 1, "failed": 0, "ok_jobs": 1, "timed_wall_s": 1.0,
        "setup_s": [1.0], "peak_rss_mb": 1.0,
        "latency_ms": {"c": [1.0] * 100},
        "traced_latency_ms": {"c": [1.0] * 100},
        "snapshots": {"c": {"cycles": 1, "dispatches": 1, "code_size": 1}},
        "layers": {},
    }

    def declared(self, key):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["unit"] for m in json.load(f)[key]}

    def test_end_to_end(self):
        got = {k: u for k, (_, u) in run.end_to_end(self.DOC).items()}
        self.assertEqual(got, self.declared("end_to_end"))

    def test_per_layer(self):
        got = {k: u for k, (_, u) in run.per_layer(self.DOC).items()}
        self.assertEqual(got, self.declared("per_layer"))


class SeedDeterminismTests(unittest.TestCase):
    def test_same_seed_gives_identical_deterministic_metrics(self):
        self.assertTrue(run.build())
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                results = []
                for _ in range(2):
                    rc, doc = run.run_harness(workload, 7, 0.2, 0)
                    self.assertEqual(rc, 0)
                    self.assertEqual(doc["failed"], 0)
                    results.append(run.deterministic_metrics(doc))
                self.assertEqual(results[0], results[1])


if __name__ == "__main__":
    unittest.main()
