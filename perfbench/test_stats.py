"""Self-tests of the benchmark's percentile rules.

Run with: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import stats


class NearestRank(unittest.TestCase):
    def test_known_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.nearest_rank(values, 0.50), 50)
        self.assertEqual(stats.nearest_rank(values, 0.95), 95)
        self.assertEqual(stats.nearest_rank(values, 0.99), 99)
        self.assertEqual(stats.nearest_rank(values, 1.0), 100)
        self.assertEqual(stats.nearest_rank([7], 0.95), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.nearest_rank([5, 1, 4, 2, 3], 0.5), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2)

    def test_failures_count_as_infinite(self):
        values = [1.0] * 95 + [math.inf] * 5
        self.assertEqual(stats.nearest_rank(values, 0.95), 1.0)
        values = [1.0] * 94 + [math.inf] * 6
        self.assertEqual(stats.nearest_rank(values, 0.95), math.inf)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1], 0)


class TailRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(200, 0.95), 10)
        self.assertEqual(stats.samples_beyond(199, 0.95), 9)
        self.assertEqual(stats.samples_beyond(100, 0.50), 50)
        self.assertEqual(stats.samples_beyond(1, 0.95), 0)

    def test_p95_needs_200_samples(self):
        self.assertFalse(stats.has_tail(199, 0.95))
        self.assertTrue(stats.has_tail(200, 0.95))
        self.assertTrue(stats.has_tail(20, 0.50))
        self.assertFalse(stats.has_tail(19, 0.50))

    def test_tail_percentile_clamps_to_ten_beyond(self):
        values = list(range(1, 201))
        self.assertEqual(stats.tail_percentile(values, 0.95), (190, 0.95))
        values = list(range(1, 41))  # 40 samples: p75 has 10 beyond
        value, used = stats.tail_percentile(values, 0.95)
        self.assertEqual((value, used), (30, 0.75))
        self.assertEqual(stats.samples_beyond(40, used), 10)
        values = list(range(1, 16))  # too few for any tail: the median
        self.assertEqual(stats.tail_percentile(values, 0.95), (8, 0.5))


if __name__ == "__main__":
    unittest.main()
