"""Tests for the Fenwick tree weighted sampler."""

import numpy as np
import pytest

from repro.utils.fenwick import FenwickTree


class TestConstruction:
    def test_from_list(self):
        t = FenwickTree([1, 2, 3])
        assert len(t) == 3
        assert t.total == 6

    def test_from_numpy(self):
        t = FenwickTree(np.array([5, 0, 7], dtype=np.int64))
        assert t.total == 12

    def test_empty_weights_ok(self):
        t = FenwickTree([0, 0, 0])
        assert t.total == 0

    def test_single_element(self):
        t = FenwickTree([42])
        assert t.total == 42
        assert t.get(0) == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FenwickTree([1, -1])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            FenwickTree(np.zeros((2, 2), dtype=np.int64))


class TestPrefixSums:
    def test_all_prefixes(self):
        w = [3, 1, 4, 1, 5, 9, 2, 6]
        t = FenwickTree(w)
        for k in range(len(w) + 1):
            assert t.prefix_sum(k) == sum(w[:k])

    def test_get_matches_weights(self):
        w = [3, 0, 4, 7]
        t = FenwickTree(w)
        assert [t.get(i) for i in range(4)] == w

    def test_prefix_out_of_range(self):
        t = FenwickTree([1, 2])
        with pytest.raises(IndexError):
            t.prefix_sum(3)
        with pytest.raises(IndexError):
            t.prefix_sum(-1)


class TestUpdates:
    def test_add_then_sums(self):
        t = FenwickTree([1, 1, 1, 1])
        t.add(2, 5)
        assert t.get(2) == 6
        assert t.total == 9
        assert t.prefix_sum(3) == 8

    def test_add_negative_delta(self):
        t = FenwickTree([5, 5])
        t.add(0, -3)
        assert t.get(0) == 2

    def test_add_out_of_range(self):
        t = FenwickTree([1])
        with pytest.raises(IndexError):
            t.add(1, 1)
        with pytest.raises(IndexError):
            t.add(-1, 1)

    def test_to_array_roundtrip(self):
        w = np.array([2, 0, 9, 4, 4], dtype=np.int64)
        t = FenwickTree(w)
        t.add(1, 3)
        w[1] += 3
        assert np.array_equal(t.to_array(), w)


class TestFind:
    def test_find_boundaries(self):
        # weights [2, 3, 5]: targets 0,1 -> 0; 2,3,4 -> 1; 5..9 -> 2.
        t = FenwickTree([2, 3, 5])
        expected = [0, 0, 1, 1, 1, 2, 2, 2, 2, 2]
        assert [t.find(k) for k in range(10)] == expected

    def test_find_skips_zero_weights(self):
        t = FenwickTree([0, 4, 0, 1])
        assert t.find(0) == 1
        assert t.find(3) == 1
        assert t.find(4) == 3

    def test_find_out_of_range(self):
        t = FenwickTree([1, 1])
        with pytest.raises(ValueError):
            t.find(2)
        with pytest.raises(ValueError):
            t.find(-1)

    def test_find_after_updates(self):
        t = FenwickTree([1, 1, 1])
        t.add(0, -1)
        assert t.find(0) == 1

    def test_sample_distribution(self, rng):
        w = [1, 0, 3]
        t = FenwickTree(w)
        counts = np.zeros(3)
        for _ in range(4000):
            counts[t.sample(rng)] += 1
        assert counts[1] == 0
        assert abs(counts[2] / 4000 - 0.75) < 0.05

    def test_sample_all_zero_raises(self, rng):
        t = FenwickTree([0, 0])
        with pytest.raises(ValueError, match="all-zero"):
            t.sample(rng)


class TestAgainstNaive:
    def test_find_at_ball_quantile_matches_quantile_removal_a(self, rng):
        """``find(min(int(u·m), m − 1))`` is 𝒜(v)'s inverse CDF at u.

        The scalar relocation and open paths remove through the tree at
        the generic path's uniform, so the two must agree at every u:
        random ones, the extremes 0 and nextafter(1, 0), and k/m for
        every ball k.
        """
        from repro.balls.distributions import quantile_removal_a
        from repro.balls.load_vector import LoadVector

        for _ in range(100):
            n = int(rng.integers(1, 40))
            v = LoadVector.random(int(rng.integers(1, 3 * n + 2)), n, rng).loads
            t = FenwickTree(v)
            m = t.total
            us = [0.0, float(np.nextafter(1.0, 0.0)), *rng.random(20).tolist()]
            us += [k / m for k in range(m)]
            for u in us:
                assert t.find(min(int(u * m), m - 1)) == quantile_removal_a(v, u)

    def test_randomized_equivalence(self, rng):
        """Fenwick ops agree with a plain array under random updates."""
        n = 37
        ref = rng.integers(0, 10, size=n).astype(np.int64)
        t = FenwickTree(ref.copy())
        for _ in range(300):
            i = int(rng.integers(0, n))
            delta = int(rng.integers(0, 5)) - ref[i] if ref[i] > 3 else int(rng.integers(0, 5))
            if ref[i] + delta < 0:
                continue
            t.add(i, delta)
            ref[i] += delta
            k = int(rng.integers(0, n + 1))
            assert t.prefix_sum(k) == ref[:k].sum()
        if ref.sum() > 0:
            target = int(rng.integers(0, ref.sum()))
            assert t.find(target) == int(np.searchsorted(np.cumsum(ref), target, side="right"))
