"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s fleetbench -p 'test_*.py'
"""

import unittest

import metrics
from metrics import Span


class TailPercentileTest(unittest.TestCase):
    def test_beyond_counts_samples_ranked_above(self):
        self.assertEqual(metrics.beyond(0.9, 100), 10)
        self.assertEqual(metrics.beyond(0.9, 99), 9)
        self.assertEqual(metrics.beyond(0.99, 1000), 10)
        self.assertEqual(metrics.beyond(0.999, 10000), 10)

    def test_picks_highest_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail(list(range(100)))[0], "p90")
        self.assertEqual(metrics.tail(list(range(999)))[0], "p90")
        self.assertEqual(metrics.tail(list(range(1000)))[0], "p99")
        self.assertEqual(metrics.tail(list(range(9999)))[0], "p99")
        self.assertEqual(metrics.tail(list(range(10000)))[0], "p99.9")

    def test_value_is_nearest_rank(self):
        label, value, beyond = metrics.tail([float(v) for v in range(1, 101)])
        self.assertEqual((label, value, beyond), ("p90", 90.0, 10))
        # Unsorted input gives the same answer.
        shuffled = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(metrics.tail(shuffled)[1], 90.0)

    def test_too_few_samples_has_no_tail(self):
        self.assertIsNone(metrics.tail(list(range(99))))
        self.assertIsNone(metrics.tail([]))

    def test_floor_count_pins_the_percentile(self):
        # 2500 samples would allow p99, but a run guaranteed only 108
        # reports p90 every time, however many more it completed.
        values = list(range(2500))
        label, value, beyond = metrics.tail(values, floor_count=108)
        self.assertEqual(label, "p90")
        self.assertEqual(value, 2249)
        self.assertEqual(beyond, 250)
        self.assertEqual(metrics.tail(values, floor_count=1024)[0], "p99")


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
        spans = [
            Span(7, 0, -1, "campaign", 0, 100),
            Span(7, 1, 0, "a", 10, 40),
            Span(7, 2, 1, "a1", 15, 25),
            Span(7, 3, 0, "b", 50, 90),
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[(7, 0)], 100 - 30 - 40)
        self.assertEqual(selfs[(7, 1)], 30 - 10)
        self.assertEqual(selfs[(7, 2)], 10)
        self.assertEqual(selfs[(7, 3)], 40)
        # Self times of a tree add up to the root's duration.
        self.assertEqual(sum(selfs.values()), 100)

    def test_overlapping_children_counted_once(self):
        spans = [
            Span(1, 0, -1, "root", 0, 100),
            Span(1, 1, 0, "x", 10, 60),
            Span(1, 2, 0, "y", 40, 70),  # overlaps x by 20
        ]
        self.assertEqual(metrics.self_times(spans)[(1, 0)], 100 - 60)

    def test_children_clipped_to_parent(self):
        spans = [
            Span(1, 0, -1, "root", 10, 50),
            Span(1, 1, 0, "late", 40, 80),
        ]
        self.assertEqual(metrics.self_times(spans)[(1, 0)], 30)

    def test_campaigns_do_not_mix(self):
        # Same span ids in two campaigns: children attach to their own root.
        spans = [
            Span(1, 0, -1, "campaign", 0, 100),
            Span(1, 1, 0, "collect", 0, 50),
            Span(2, 0, -1, "campaign", 0, 100),
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[(1, 0)], 50)
        self.assertEqual(selfs[(2, 0)], 100)

    def test_parse_round_trip(self):
        lines = ["3\t0\t-1\tcampaign\t100\t900\tanchors=12\tdrops=0\n",
                 "3\t1\t0\tgp.infer\t200\t700\tevaluations=5.5\n",
                 "\n"]
        spans = metrics.parse_spans(lines)
        self.assertEqual(len(spans), 2)
        self.assertEqual(spans[0].attrs, {"anchors": 12.0, "drops": 0.0})
        self.assertEqual(spans[1].duration, 500)
        self.assertEqual(metrics.self_times(spans)[(3, 0)], 300)


class FailureShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(metrics.failure_share(200, 0), 0.0)
        self.assertEqual(metrics.failure_share(200, 3), 0.015)
        self.assertEqual(metrics.failure_share(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                metrics.failure_share(attempted, failed)

    def test_end_to_end_rates_count_only_completed_cars(self):
        raw = {
            "campaign_walls": [1.0] * 100, "min_campaigns": 100,
            "attempted": 100, "failed": 4, "wall_s": 10.0, "user_s": 30.0,
            "sys_s": 10.0, "peak_rss_mb": 50.0, "setup_s": [0.2, 0.1, 0.3],
        }
        values, note = metrics.end_to_end(raw)
        self.assertEqual(values["cars_per_s"][0], 9.6)
        self.assertEqual(values["cpu_s_per_car"][0], 0.4)
        self.assertEqual(values["setup_s"][0], 0.2)
        self.assertIn("p90 of 100 campaigns", note)


if __name__ == "__main__":
    unittest.main()
