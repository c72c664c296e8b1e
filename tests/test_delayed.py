"""Tests for delayed (s-step) path coupling."""

import numpy as np
import pytest

from repro.balls.rules import ABKURule
from repro.coupling.delayed import delayed_path_coupling_bound, exact_s_step_contraction
from repro.coupling.recovery import claim53_bound, theorem1_bound
from repro.markov import exact_mixing_time, scenario_b_kernel
from repro.markov.product import build_coupled_chain_a, build_coupled_chain_b


@pytest.fixture(scope="module")
def cc_a():
    return build_coupled_chain_a(ABKURule(2), 3, 4)


@pytest.fixture(scope="module")
def cc_b():
    return build_coupled_chain_b(ABKURule(2), 3, 4)


class TestExactContraction:
    def test_one_step_matches_cor42(self, cc_a):
        """ρ₁ of the §4 coupling equals the Corollary 4.2 value exactly."""
        rho1 = exact_s_step_contraction(cc_a, 1)
        assert rho1 == pytest.approx(1.0 - 1.0 / 4, abs=1e-10)

    def test_contraction_compounds(self, cc_a):
        """ρ_s ≤ ρ₁^s would hold for a Markovian contraction; at least
        ρ_s must be decreasing and below ρ₁ for s ≥ 2."""
        rhos = [exact_s_step_contraction(cc_a, s) for s in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    def test_scenario_b_delayed_contracts(self, cc_b):
        """The §5 coupling's ρ₁ ≤ 1 (no strict one-step contraction in
        general) but iterating buys ρ_s < 1 — the delayed-coupling
        phenomenon."""
        rho1 = exact_s_step_contraction(cc_b, 1)
        assert rho1 <= 1.0 + 1e-10
        rho8 = exact_s_step_contraction(cc_b, 8)
        assert rho8 < 1.0

    def test_validation(self, cc_a):
        with pytest.raises(ValueError):
            exact_s_step_contraction(cc_a, 0)


class TestDelayedBound:
    def test_formula(self):
        assert delayed_path_coupling_bound(0.5, 3, 8, 0.25) == 3 * int(
            np.ceil(np.log(32) / 0.5)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            delayed_path_coupling_bound(1.0, 2, 8)
        with pytest.raises(ValueError):
            delayed_path_coupling_bound(0.5, 0, 8)
        with pytest.raises(ValueError):
            delayed_path_coupling_bound(0.5, 2, 0.5)

    def test_dominates_exact_mixing_scenario_b(self, cc_b, abku2):
        """The delayed bound is a rigorous τ bound: it must dominate the
        exact mixing time, and at small sizes it's far better than the
        Claim 5.3 constants."""
        n, m = 3, 4
        s = 8
        rho_s = exact_s_step_contraction(cc_b, s)
        D = m - -(-m // n)  # m - ceil(m/n)
        bound = delayed_path_coupling_bound(rho_s, s, max(D, 1), 0.25)
        tau = exact_mixing_time(scenario_b_kernel(abku2, n, m), 0.25)
        assert tau <= bound
        assert bound < claim53_bound(n, m, 0.25)

    def test_scenario_a_delayed_consistent_with_theorem1(self, cc_a):
        """Delayed bounds with s > 1 stay in the Theorem 1 ballpark."""
        m = 4
        for s in (1, 2, 4):
            rho_s = exact_s_step_contraction(cc_a, s)
            bound = delayed_path_coupling_bound(rho_s, s, m, 0.25)
            # Same order as Theorem 1 at this size (within 3x).
            assert bound <= 3 * theorem1_bound(m, 0.25)
