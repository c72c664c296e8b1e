"""Tests for normalized load vectors and the Fact 3.2 operations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.balls.load_vector import (
    LoadVector,
    count_above,
    count_at_least,
    delta_distance,
    l1_distance,
    ominus,
    ominus_index,
    oplus,
    oplus_index,
)


class TestConstruction:
    def test_normalizes_by_default(self):
        v = LoadVector([1, 3, 2])
        assert v.loads.tolist() == [3, 2, 1]

    def test_normalize_false_checks(self):
        with pytest.raises(ValueError, match="not normalized"):
            LoadVector([1, 2], normalize=False)

    def test_all_in_one(self):
        v = LoadVector.all_in_one(7, 3)
        assert v.loads.tolist() == [7, 0, 0]
        assert v.m == 7 and v.n == 3

    def test_balanced_divisible(self):
        assert LoadVector.balanced(6, 3).loads.tolist() == [2, 2, 2]

    def test_balanced_remainder(self):
        assert LoadVector.balanced(7, 3).loads.tolist() == [3, 2, 2]

    def test_empty(self):
        v = LoadVector.empty(4)
        assert v.m == 0 and v.max_load == 0 and v.num_nonempty == 0

    def test_random_sum_and_order(self, rng):
        v = LoadVector.random(50, 10, rng)
        assert v.m == 50
        assert v.is_normalized()

    def test_random_deterministic(self):
        assert LoadVector.random(20, 5, 3) == LoadVector.random(20, 5, 3)


class TestProtocol:
    def test_equality_and_hash(self):
        a = LoadVector([2, 1, 1])
        b = LoadVector([1, 2, 1])
        assert a == b and hash(a) == hash(b)

    def test_inequality(self):
        assert LoadVector([2, 1]) != LoadVector([3, 0])

    def test_getitem_len(self):
        v = LoadVector([3, 1])
        assert len(v) == 2 and v[0] == 3

    def test_copy_is_deep(self):
        v = LoadVector([2, 2])
        c = v.copy()
        c.add(1)
        assert v != c

    def test_as_tuple(self):
        assert LoadVector([0, 5]).as_tuple() == (5, 0)

    def test_repr(self):
        assert "LoadVector" in repr(LoadVector([1]))


class TestDerived:
    def test_max_min_load(self):
        v = LoadVector([4, 2, 0])
        assert v.max_load == 4 and v.min_load == 0

    def test_num_nonempty(self):
        assert LoadVector([3, 1, 0, 0]).num_nonempty == 2
        assert LoadVector([1, 1, 1]).num_nonempty == 3
        assert LoadVector([4]).num_nonempty == 1


class TestFact32:
    """Fact 3.2: ⊕ hits the first index of the run, ⊖ the last."""

    def test_oplus_index_first_of_run(self):
        v = np.array([3, 2, 2, 2, 1], dtype=np.int64)
        assert oplus_index(v, 2) == 1  # run of 2s starts at index 1
        assert oplus_index(v, 3) == 1
        assert oplus_index(v, 0) == 0

    def test_ominus_index_last_of_run(self):
        v = np.array([3, 2, 2, 2, 1], dtype=np.int64)
        assert ominus_index(v, 1) == 3  # run of 2s ends at index 3
        assert ominus_index(v, 4) == 4

    def test_oplus_preserves_normalization(self):
        v = np.array([2, 2, 1, 0], dtype=np.int64)
        for i in range(4):
            out = oplus(v, i)
            assert (np.diff(out) <= 0).all()
            assert out.sum() == v.sum() + 1

    def test_ominus_preserves_normalization(self):
        v = np.array([3, 2, 2, 1], dtype=np.int64)
        for i in range(4):
            out = ominus(v, i)
            assert (np.diff(out) <= 0).all()
            assert out.sum() == v.sum() - 1

    def test_ominus_empty_bin_raises(self):
        v = np.array([2, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="empty bin"):
            ominus(v, 1)

    def test_fact32_matches_sort(self, rng):
        """v ⊕ e_i equals sort(v + e_i) for random states — the Fact 3.2 claim."""
        for _ in range(100):
            n = int(rng.integers(2, 8))
            v = np.sort(rng.integers(0, 6, size=n))[::-1].astype(np.int64)
            i = int(rng.integers(0, n))
            direct = v.copy()
            direct[i] += 1
            assert np.array_equal(oplus(v, i), np.sort(direct)[::-1])
            if v[i] > 0:
                direct = v.copy()
                direct[i] -= 1
                assert np.array_equal(ominus(v, i), np.sort(direct)[::-1])

    def test_inplace_methods_return_touched_index(self):
        v = LoadVector([2, 2, 0])
        j = v.add(1)
        assert j == 0 and v.loads.tolist() == [3, 2, 0]
        s = v.remove(0)
        assert s == 0 and v.loads.tolist() == [2, 2, 0]


class TestDistances:
    def test_l1(self):
        a = np.array([3, 1], dtype=np.int64)
        b = np.array([2, 2], dtype=np.int64)
        assert l1_distance(a, b) == 2

    def test_delta_is_half_l1(self):
        a = np.array([4, 0, 0], dtype=np.int64)
        b = np.array([2, 1, 1], dtype=np.int64)
        assert delta_distance(a, b) == 2

    def test_delta_zero_iff_equal(self):
        a = np.array([2, 1], dtype=np.int64)
        assert delta_distance(a, a) == 0

    def test_delta_requires_equal_mass(self):
        with pytest.raises(ValueError, match="equal total"):
            delta_distance(
                np.array([2, 0], dtype=np.int64), np.array([2, 1], dtype=np.int64)
            )

    def test_delta_method_checks_n(self):
        with pytest.raises(ValueError):
            LoadVector([1, 1]).delta(LoadVector([2]))

    def test_delta_bounded_by_m(self):
        # Δ(v, u) <= m - ceil(m/n), as the paper notes.
        m, n = 9, 3
        worst = LoadVector.all_in_one(m, n)
        bal = LoadVector.balanced(m, n)
        assert worst.delta(bal) <= m - (m + n - 1) // n


# ---------------------------------------------------------------------------
# Descending counts: one search on the live array, no copy of it
# ---------------------------------------------------------------------------

@st.composite
def _descending(draw):
    """A descending int64 or int32 vector: random, all-equal or all-zero."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "all_equal", "all_zero"]))
    if kind == "random":
        vals = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    else:
        vals = [0 if kind == "all_zero" else draw(st.integers(1, 12))] * n
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    return np.sort(np.array(vals, dtype=dtype))[::-1].copy()


class TestDescendingCounts:
    """count_above / count_at_least against a search on the negated copy."""

    @settings(max_examples=200)
    @given(_descending())
    @example(np.array([5], dtype=np.int64))
    @example(np.zeros(1, dtype=np.int32))
    @example(np.full(7, 3, dtype=np.int32))
    @example(np.zeros(9, dtype=np.int64))
    def test_counts_match_negated_search(self, v):
        # Below the minimum, above the maximum, on every entry and on
        # every absent value in between; Python and numpy needles of
        # both widths (an int64 needle must not widen an int32 row).
        for x in range(int(v.min()) - 2, int(v.max()) + 3):
            for needle in (x, np.int64(x), np.int32(x)):
                assert count_above(v, needle) == np.searchsorted(-v, -x, side="left")
                assert count_at_least(v, needle) == np.searchsorted(-v, -x, side="right")
        for i in range(v.shape[0]):
            assert oplus_index(v, i) == np.searchsorted(-v, -v[i], side="left")
            assert ominus_index(v, i) == np.searchsorted(-v, -v[i], side="right") - 1


def _peak_bytes(fn) -> int:
    """Peak traced allocation while *fn* runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoCopyPerSearch:
    """At n = 2²⁰ one copy of the loads is 8 MiB; a search must make none."""

    N = 2**20
    LIMIT = 64 * 1024

    def test_fact32_edits(self):
        v = LoadVector.random(self.N, self.N, seed=0).loads

        def edits():
            for k in range(50):
                v[oplus_index(v, k)] += 1
                v[ominus_index(v, k)] -= 1

        assert _peak_bytes(edits) < self.LIMIT

    @pytest.mark.parametrize("scenario", ["a", "b"])
    def test_scalar_phases(self, scenario):
        from repro.balls.rules import ABKURule
        from repro.balls.scenario_a import ScenarioAProcess
        from repro.balls.scenario_b import ScenarioBProcess

        cls = ScenarioAProcess if scenario == "a" else ScenarioBProcess
        proc = cls(ABKURule(2), LoadVector.random(self.N, self.N, seed=1), seed=2)
        proc.run(1)
        assert _peak_bytes(lambda: proc.run(200)) < self.LIMIT
