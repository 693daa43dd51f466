"""Self-tests of the benchmark's statistics.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import statistics
import unittest

import stats


class MedianAndSpread(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_rejects_empty(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_iqr_share_matches_python_quartiles(self):
        xs = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.iqr_share(xs), (q3 - q1) / 14.5)

    def test_iqr_share_of_constant_is_zero(self):
        self.assertEqual(stats.iqr_share([5.0] * 10), 0.0)

    def test_iqr_share_of_single_sample_is_zero(self):
        self.assertEqual(stats.iqr_share([7.0]), 0.0)


class Tail(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        xs = list(range(1, 101))  # 1..100
        value, pct, n = stats.tail(xs)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_order_does_not_matter(self):
        xs = [5, 3, 9, 1, 7, 2, 8, 6, 4, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]
        value, pct, n = stats.tail(xs)
        self.assertEqual((value, pct, n), (10, 50.0, 20))

    def test_eleven_samples_give_the_minimum_with_ten_beyond(self):
        value, pct, n = stats.tail(list(range(11, 0, -1)))
        self.assertEqual(value, 1)
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(n, 11)

    def test_too_few_samples_fall_back_to_minimum_at_p0(self):
        self.assertEqual(stats.tail([4, 2, 9]), (2, 0.0, 3))

    def test_rejects_empty(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class Pairing(unittest.TestCase):
    def samples(self):
        # ABAB: step 0 runs modular first, step 1 monolith first, ...
        return [
            {"op": "modular", "step": 0, "wall_ms": 12.0},
            {"op": "monolith", "step": 0, "wall_ms": 10.0},
            {"op": "monolith", "step": 1, "wall_ms": 20.0},
            {"op": "modular", "step": 1, "wall_ms": 30.0},
            {"op": "modular", "step": 2, "wall_ms": 11.0},
            {"op": "monolith", "step": 2, "wall_ms": 10.0},
            {"op": "modular", "step": 3, "wall_ms": 99.0},  # partner missing
        ]

    def test_pairs_by_step_whatever_the_order(self):
        self.assertEqual(stats.abab_pairs(self.samples()),
                         [(12.0, 10.0), (30.0, 20.0), (11.0, 10.0)])

    def test_pair_ratio_median(self):
        pairs = stats.abab_pairs(self.samples())
        self.assertAlmostEqual(stats.pair_ratio_median(pairs), 1.2)

    def test_ratio_of_medians_differs_from_median_of_ratios(self):
        pairs = [(2.0, 1.0), (3.0, 3.0), (10.0, 4.0)]
        self.assertAlmostEqual(stats.pair_ratio_median(pairs), 2.0)
        self.assertAlmostEqual(stats.median([a for a, _ in pairs]) /
                               stats.median([b for _, b in pairs]), 1.0)


if __name__ == "__main__":
    unittest.main()
