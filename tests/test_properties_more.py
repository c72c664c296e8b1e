"""Additional property-based tests: edge orientation, metric axioms on
sampled states, batch-vs-scalar law agreement, removal quantiles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balls.distributions import quantile_removal_a, quantile_removal_b
from repro.coupling.grand import _rank_move
from repro.edgeorient.state import (
    canonical_discrepancies,
    discrepancies_to_xvector,
    greedy_neighbors,
    xvector_to_discrepancies,
)


def _random_disc_vector(draw, n_min=2, n_max=8, spread=4):
    n = draw(st.integers(n_min, n_max))
    vals = [draw(st.integers(-spread, spread)) for _ in range(n - 1)]
    vals.append(-sum(vals))
    return vals


class TestEdgeStateProperties:
    @given(st.data())
    def test_canonical_sorted_and_zero_sum(self, data):
        vals = _random_disc_vector(data.draw)
        c = canonical_discrepancies(vals)
        assert sum(c) == 0
        assert list(c) == sorted(c, reverse=True)

    @given(st.data())
    @settings(max_examples=50)
    def test_neighbors_preserve_zero_sum(self, data):
        vals = _random_disc_vector(data.draw, spread=3)
        c = canonical_discrepancies(vals)
        for s in greedy_neighbors(c):
            assert sum(s) == 0
            assert list(s) == sorted(s, reverse=True)

    @given(st.data())
    @settings(max_examples=50)
    def test_xvector_roundtrip_in_range(self, data):
        """Round-trip holds whenever the discrepancies fit the class range."""
        n = data.draw(st.integers(4, 10))
        cap = (n - 1 + 1) // 2 if (n - 1) % 2 else (n - 1) // 2
        vals = [data.draw(st.integers(-cap, cap)) for _ in range(n - 1)]
        s = sum(vals)
        if abs(s) > cap:
            return
        vals.append(-s)
        c = canonical_discrepancies(vals)
        x = discrepancies_to_xvector(c, n)
        assert xvector_to_discrepancies(x, n) == c


class TestRankMoveProperties:
    @given(st.data())
    @settings(max_examples=80)
    def test_rank_move_invariants(self, data):
        vals = _random_disc_vector(data.draw, n_min=3, n_max=10)
        d = np.sort(np.array(vals, dtype=np.int64))[::-1].copy()
        phi = data.draw(st.integers(0, d.size - 2))
        psi = data.draw(st.integers(phi + 1, d.size - 1))
        before_sum = int(d.sum())
        before_abs = int(np.abs(d).sum())
        _rank_move(d, phi, psi)
        assert int(d.sum()) == before_sum
        assert (np.diff(d) <= 0).all()
        # Greedy never increases total |discrepancy| by more than 2
        # (one +1 can create at most one unit of new imbalance per side).
        assert int(np.abs(d).sum()) <= before_abs + 2


class TestQuantileProperties:
    @given(st.data())
    @settings(max_examples=60)
    def test_quantile_a_matches_pmf(self, data):
        loads = [data.draw(st.integers(0, 8)) for _ in range(data.draw(st.integers(1, 6)))]
        v = np.sort(np.array(loads, dtype=np.int64))[::-1]
        m = int(v.sum())
        if m == 0:
            return
        # Exact pmf induced by the quantile map on the 1/m grid.
        counts = np.zeros(v.size)
        for ball in range(m):
            counts[quantile_removal_a(v, (ball + 0.5) / m)] += 1
        assert np.array_equal(counts, v)

    @given(st.data())
    @settings(max_examples=60)
    def test_quantile_b_uniform_over_nonempty(self, data):
        loads = [data.draw(st.integers(0, 5)) for _ in range(data.draw(st.integers(1, 6)))]
        v = np.sort(np.array(loads, dtype=np.int64))[::-1]
        s = int((v > 0).sum())
        if s == 0:
            return
        counts = np.zeros(v.size)
        for k in range(s):
            counts[quantile_removal_b(v, (k + 0.5) / s)] += 1
        assert np.array_equal(counts[:s], np.ones(s))


class TestBatchLawProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_batch_single_replica_is_lawful(self, seed):
        """A 1-replica batch run stays a valid Ω_m trajectory."""
        from repro.balls.load_vector import LoadVector
        from repro.balls.rules import ABKURule
        from repro.engine import VectorizedEngine, scenario_a_spec

        bp = VectorizedEngine.make(
            scenario_a_spec(ABKURule(2)), LoadVector.random(12, 6, seed), 1,
            seed=seed,
        )
        for _ in range(50):
            bp.step()
            row = bp.loads[0]
            assert row.sum() == 12
            assert (np.diff(row) <= 0).all()
            assert (row >= 0).all()


class TestMajorizationProperties:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_grand_phase_monotone_at_random_sizes(self, data):
        """Sampled monotone-CFTP soundness: the scenario-A grand phase
        preserves majorization on random comparable pairs (sizes beyond
        the exhaustive checker's reach)."""
        from repro.balls.distributions import quantile_removal_a
        from repro.balls.load_vector import ominus, oplus
        from repro.balls.majorization import majorizes
        from repro.balls.rules import ABKURule

        n = data.draw(st.integers(2, 8))
        m = data.draw(st.integers(2, 14))
        # Build u, then a comparable v above it by k upward transfers
        # (move a ball from a lower-loaded position to a higher one).
        u = np.zeros(n, dtype=np.int64)
        for _ in range(m):
            u[data.draw(st.integers(0, n - 1))] += 1
        u = np.sort(u)[::-1].copy()
        v = u.copy()
        for _ in range(data.draw(st.integers(0, 3))):
            src = int(np.argmin(v + (v == 0) * 10**6))
            if v[src] == 0:
                continue
            v[src] -= 1
            v[0] += 1
            v = np.sort(v)[::-1].copy()
        assert majorizes(v, u)
        d = data.draw(st.integers(1, 3))
        rule = ABKURule(d)
        q = data.draw(st.floats(0, 0.999999))
        vstar = ominus(v, quantile_removal_a(v, q))
        ustar = ominus(u, quantile_removal_a(u, q))
        assert majorizes(vstar, ustar)
        rs = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
        )
        v2 = oplus(vstar, rule.select_from_source(vstar, rs))
        u2 = oplus(ustar, rule.select_from_source(ustar, rule.phi(rs)))
        assert majorizes(v2, u2)
