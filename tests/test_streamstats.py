"""Streaming estimators (repro.obs.streamstats) vs exact numpy answers."""

import math

import numpy as np
import pytest

from repro.obs.streamstats import ExpHistogram, Extrema, P2Quantile, Welford


class TestWelford:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_numpy_on_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(loc=3.0, scale=2.5, size=997)
        w = Welford()
        for x in xs:
            w.update(float(x))
        assert w.n == xs.size
        assert w.mean == pytest.approx(float(xs.mean()), rel=1e-12)
        assert w.variance == pytest.approx(float(xs.var()), rel=1e-9)
        assert w.std == pytest.approx(float(xs.std()), rel=1e-9)

    def test_batched_merge_equals_sequential(self):
        rng = np.random.default_rng(7)
        xs = rng.exponential(size=500)
        seq = Welford()
        for x in xs:
            seq.update(float(x))
        batched = Welford()
        for chunk in np.array_split(xs, 7):
            batched.update_many(chunk)
        assert batched.n == seq.n
        assert batched.mean == pytest.approx(seq.mean, rel=1e-12)
        assert batched.variance == pytest.approx(seq.variance, rel=1e-9)

    def test_empty_and_single(self):
        w = Welford()
        assert w.variance == 0.0 and w.std == 0.0
        w.update_many([])
        assert w.n == 0
        w.update(5.0)
        assert w.mean == 5.0 and w.variance == 0.0
        assert w.snapshot() == {"n": 1, "mean": 5.0, "std": 0.0}


class TestP2Quantile:
    def test_exact_for_first_five(self):
        q = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            q.update(x)
        assert q.value == pytest.approx(float(np.quantile([5.0, 1.0, 3.0], 0.5)))

    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_converges_to_numpy_quantile(self, target, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=20_000)
        est = P2Quantile(target)
        est.update_many(xs)
        exact = float(np.quantile(xs, target))
        # P² is an estimator; on 20k N(0,1) draws it lands within a few
        # hundredths of the exact sample quantile.
        assert est.value == pytest.approx(exact, abs=0.05)
        assert est.n == xs.size

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_value_is_zero(self):
        assert P2Quantile(0.5).value == 0.0


class TestExpHistogram:
    def test_bucket_of_is_bit_length(self):
        for v in (0, 1, 2, 3, 4, 7, 8, 1023, 1024, 2**40):
            assert ExpHistogram.bucket_of(v) == v.bit_length()
        with pytest.raises(ValueError):
            ExpHistogram.bucket_of(-1)

    def test_counts_match_bincount(self):
        rng = np.random.default_rng(11)
        vals = rng.integers(0, 10_000, size=2000)
        h = ExpHistogram()
        h.update(vals)
        expect = np.bincount(
            [int(v).bit_length() for v in vals], minlength=ExpHistogram.NBUCKETS
        )
        assert np.array_equal(h.counts, expect)
        assert h.total == vals.size
        sparse = h.nonzero()
        assert sum(sparse.values()) == vals.size
        assert all(h.counts[k] == c for k, c in sparse.items())

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_update_is_bit_length_around_powers_of_two(self, dtype):
        # floor(log2(float(v))) + 1 put 2^k - 1 in bucket k + 1 from
        # k = 49 on; frexp's exponent is exact below 2^53.
        top = np.iinfo(dtype).max
        vals = [0, 0] + [
            v for k in range(1, 53) for v in (2**k - 1, 2**k, 2**k + 1)
            if v <= top
        ]
        h = ExpHistogram()
        h.update(np.array(vals, dtype=dtype))
        expect = np.bincount(
            [v.bit_length() for v in vals], minlength=ExpHistogram.NBUCKETS
        )
        assert np.array_equal(h.counts, expect)

    def test_bucket_bounds_partition_the_ints(self):
        assert ExpHistogram.bucket_bounds(0) == (0, 0)
        prev_hi = 0
        for j in range(1, 12):
            lo, hi = ExpHistogram.bucket_bounds(j)
            assert lo == prev_hi + 1
            assert hi == 2 * lo - 1
            prev_hi = hi

    def test_rejects_negative_loads(self):
        h = ExpHistogram()
        with pytest.raises(ValueError):
            h.update([3, -1])
        h.update([])
        assert h.total == 0


class TestExtrema:
    def test_tracks_min_max_last(self):
        e = Extrema()
        assert e.snapshot() == {"n": 0}
        for x in (3.0, -1.0, 2.0):
            e.update(x)
        snap = e.snapshot()
        assert snap == {"n": 3, "min": -1.0, "max": 3.0, "last": 2.0}
        assert not math.isinf(snap["min"])
