"""Tests for the extension modules: the vectorized batch fleet, custom
removal, product chains, two-phase Theorem 2 schedule."""

import numpy as np
import pytest

from repro.balls.custom_removal import (
    CustomRemovalProcess,
    coalescence_time_custom,
    custom_removal_kernel,
    removal_pmf_from_weights,
    weight_max_only,
    weight_power,
    weight_scenario_a,
    weight_scenario_b,
)
from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule, UniformRule
from repro.coupling.two_phase import TwoPhaseResult, two_phase_coalescence_edge
from repro.engine import VectorizedEngine, scenario_a_spec, scenario_b_spec
from repro.markov import scenario_a_kernel, scenario_b_kernel
from repro.markov.product import (
    CoupledChain,
    build_coupled_chain_a,
    build_coupled_chain_b,
)


def _fleet(rule, start, replicas, *, scenario="a", seed=None):
    """R replicas of I_A or I_B on the vectorized engine."""
    spec = scenario_a_spec(rule) if scenario == "a" else scenario_b_spec(rule)
    return VectorizedEngine.make(spec, start, replicas, seed=seed)


class TestBatchProcess:
    def test_mass_conserved_all_replicas(self, abku2):
        bp = _fleet(abku2, LoadVector.random(20, 10, 0), 8, seed=1)
        bp.run(300)
        assert (bp.loads.sum(axis=1) == 20).all()

    def test_rows_stay_normalized(self, abku2):
        bp = _fleet(abku2, LoadVector.all_in_one(15, 6), 5, seed=2)
        for _ in range(200):
            bp.step()
            assert (np.diff(bp.loads, axis=1) <= 0).all()
            assert (bp.loads >= 0).all()

    @pytest.mark.parametrize("scenario", ["a", "b"])
    def test_matches_scalar_stationary_tail(self, abku2, scenario):
        """Batch and scalar simulators agree on the stationary profile."""
        from repro.balls.scenario_a import ScenarioAProcess
        from repro.balls.scenario_b import ScenarioBProcess

        n = 300
        bp = _fleet(
            abku2, LoadVector.random(n, n, 3), 20, scenario=scenario, seed=4
        )
        bp.run(15 * n)
        cls = ScenarioAProcess if scenario == "a" else ScenarioBProcess
        sp = cls(abku2, LoadVector.random(n, n, 5), seed=6)
        sp.run(15 * n)
        v = sp.loads
        scalar_tail = np.array([(v >= i).mean() for i in range(4)])
        assert np.abs(bp.tail(3) - scalar_tail).max() < 0.05

    def test_recovery_times_match_theory_band(self, abku2):
        bp = _fleet(abku2, LoadVector.all_in_one(64, 64), 30, seed=7)
        times = bp.recovery_times(4, max_steps=20000)
        assert (times > 0).all()
        # O(n ln n) band: comfortably under, say, 10 n ln n.
        assert np.median(times) < 10 * 64 * np.log(64)

    def test_recovery_zero_when_already_recovered(self, abku2):
        bp = _fleet(abku2, LoadVector.balanced(16, 16), 4, seed=8)
        assert (bp.recovery_times(2, 10) == 0).all()

    def test_max_loads_shape(self, abku2):
        bp = _fleet(abku2, LoadVector.balanced(8, 4), 6, seed=9)
        assert bp.max_loads().shape == (6,)

    def test_rejects_non_abku(self, adaptive_rule):
        # ADAP(χ) needs the sequential sampling loop: scalar path only.
        with pytest.raises(TypeError, match="not vectorizable"):
            _fleet(adaptive_rule, LoadVector.balanced(4, 2), 2)

    def test_deterministic(self, abku2):
        a = _fleet(abku2, LoadVector.balanced(10, 5), 3, seed=11).run(100)
        b = _fleet(abku2, LoadVector.balanced(10, 5), 3, seed=11).run(100)
        assert np.array_equal(a.loads, b.loads)


class TestCustomRemoval:
    def test_pmf_special_cases(self):
        v = np.array([3, 2, 1, 0], dtype=np.int64)
        from repro.balls.distributions import (
            removal_distribution_a,
            removal_distribution_b,
        )

        assert np.allclose(
            removal_pmf_from_weights(v, weight_scenario_a),
            removal_distribution_a(v),
        )
        assert np.allclose(
            removal_pmf_from_weights(v, weight_scenario_b),
            removal_distribution_b(v),
        )

    def test_pmf_never_hits_empty_bins(self):
        v = np.array([2, 1, 0], dtype=np.int64)
        pmf = removal_pmf_from_weights(v, lambda load: 1.0)  # even 'uniform'
        assert pmf[2] == 0.0

    def test_pmf_all_zero_raises(self):
        v = np.array([2, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="positive removal weight"):
            removal_pmf_from_weights(v, lambda load: 0.0)

    def test_negative_weight_rejected(self):
        v = np.array([2, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            removal_pmf_from_weights(v, lambda load: -1.0)

    def test_power_weight_validation(self):
        with pytest.raises(ValueError):
            weight_power(0)

    def test_max_only_is_documented_non_example(self):
        with pytest.raises(NotImplementedError):
            weight_max_only()

    def test_kernel_reduces_to_scenario_a(self, abku2):
        ka = scenario_a_kernel(abku2, 3, 4)
        kc = custom_removal_kernel(abku2, weight_scenario_a, 3, 4)
        assert np.abs(ka.P - kc.P).max() < 1e-12

    def test_kernel_reduces_to_scenario_b(self, abku2):
        kb = scenario_b_kernel(abku2, 3, 4)
        kc = custom_removal_kernel(abku2, weight_scenario_b, 3, 4)
        assert np.abs(kb.P - kc.P).max() < 1e-12

    def test_process_conserves_mass(self, abku2):
        p = CustomRemovalProcess(
            abku2, weight_power(2.0), LoadVector.all_in_one(12, 6), seed=0
        )
        p.run(400)
        assert p.m == 12

    def test_pressure_removal_speeds_recovery(self, abku2):
        m = n = 48
        slow = CustomRemovalProcess(
            abku2, weight_power(1.0), LoadVector.all_in_one(m, n), seed=1
        )
        fast = CustomRemovalProcess(
            abku2, weight_power(4.0), LoadVector.all_in_one(m, n), seed=1
        )
        t_slow = slow.run_until(4, 10**6)
        t_fast = fast.run_until(4, 10**6)
        assert 0 < t_fast <= t_slow

    def test_coalescence_custom(self, abku2):
        t = coalescence_time_custom(
            abku2, weight_power(2.0),
            LoadVector.all_in_one(16, 16), LoadVector.balanced(16, 16),
            seed=2,
        )
        assert t > 0

    def test_coalescence_validation(self, abku2):
        with pytest.raises(ValueError):
            coalescence_time_custom(
                abku2, weight_scenario_a,
                LoadVector.balanced(4, 2), LoadVector.balanced(6, 2),
            )


class TestProductChains:
    def test_coupled_chain_validation(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            CoupledChain([(0, 0)], np.array([[0.5]]))

    def test_uncoalescing_coupling_rejected(self):
        pairs = [(0, 0), (0, 1), (1, 1)]
        P = np.array([
            [0.0, 1.0, 0.0],  # coalesced pair escapes: invalid
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        with pytest.raises(ValueError, match="un-coalesces"):
            CoupledChain(pairs, P)

    @pytest.fixture(scope="class")
    def cc_a(self, ):
        return build_coupled_chain_a(ABKURule(2), 3, 4)

    def test_expected_times_nonnegative(self, cc_a):
        times = cc_a.expected_coalescence_times()
        assert all(t >= 0 for t in times.values())
        # Diagonal pairs coalesce at time 0.
        for (x, y), t in times.items():
            if x == y:
                assert t == 0.0

    def test_worst_expected_within_theorem1(self, cc_a):
        from repro.coupling.recovery import theorem1_bound

        assert cc_a.worst_expected_coalescence() <= theorem1_bound(4, 0.25)

    def test_tail_bound_dominates_exact_mixing(self, cc_a, abku2):
        from repro.markov import exact_mixing_time

        tau = exact_mixing_time(scenario_a_kernel(abku2, 3, 4), 0.25)
        assert cc_a.tail_bound_mixing_time(0.25) >= tau

    def test_adjacent_pairs_contract_per_cor42(self, cc_a):
        """One-step expected distance on adjacent pairs <= 1 - 1/m (the
        product chain must agree with the exhaustive §4 check)."""
        from repro.balls.load_vector import delta_distance

        m = 4
        for i, (x, y) in enumerate(cc_a.pairs):
            xa = np.array(x, dtype=np.int64)
            ya = np.array(y, dtype=np.int64)
            if delta_distance(xa, ya) != 1:
                continue
            e = sum(
                p * delta_distance(
                    np.array(cc_a.pairs[j][0], dtype=np.int64),
                    np.array(cc_a.pairs[j][1], dtype=np.int64),
                )
                for j, p in enumerate(cc_a.P[i])
                if p > 0
            )
            assert e <= 1.0 - 1.0 / m + 1e-9

    def test_scenario_b_chain(self, abku2):
        cc = build_coupled_chain_b(abku2, 3, 3)
        assert cc.worst_expected_coalescence() > 0

    def test_marginal_is_the_kernel(self, cc_a, abku2):
        """Row-marginals of the product chain equal the I_A kernel."""
        ch = scenario_a_kernel(abku2, 3, 4)
        for i, (x, _y) in enumerate(cc_a.pairs):
            marg = np.zeros(ch.size)
            for j, p in enumerate(cc_a.P[i]):
                if p > 0:
                    marg[ch.index_of(cc_a.pairs[j][0])] += p
            assert np.abs(marg - ch.P[ch.index_of(x)]).max() < 1e-9


class TestTwoPhase:
    def test_runs_and_coalesces(self):
        from repro.analysis.recovery_measure import crash_state_edge

        res = two_phase_coalescence_edge(
            crash_state_edge(12), [0] * 12, burn_in_factor=1.0, seed=0
        )
        assert isinstance(res, TwoPhaseResult)
        assert res.coupling_steps >= 0
        assert res.total_steps == res.burn_in_steps + res.coupling_steps

    def test_burn_in_tames_discrepancies(self):
        """After the burn-in, max discrepancy is O(ln n) — the Theorem 2
        proof's hinge."""
        n = 32
        res = two_phase_coalescence_edge(
            [n // 2 - i for i in range(n // 2)] + [-(i + 1) for i in range(n // 2)],
            [0] * n,
            burn_in_factor=2.0,
            seed=1,
        )
        assert res.max_disc_after_burn_in <= 4 * np.log(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_phase_coalescence_edge([1, 0], [0, 0])
        with pytest.raises(ValueError):
            two_phase_coalescence_edge([0, 0], [0, 0, 0])

    def test_cap_reported(self):
        res = two_phase_coalescence_edge(
            [3, 0, 0, 0, 0, -3], [0] * 6, burn_in_factor=0.1,
            max_steps=1, seed=2,
        )
        # Either it got lucky in one step or reports -1; total then -1.
        if res.coupling_steps == -1:
            assert res.total_steps == -1
