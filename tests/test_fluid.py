"""Tests for the Mitzenmacher fluid-limit substrate."""

import numpy as np
import pytest

from repro.fluid.dynamic_ode import dynamic_rhs, solve_dynamic_fluid
from repro.fluid.equilibrium import (
    doubly_exponential_tail,
    fixed_point,
    predicted_max_load_from_tail,
)


class TestDynamicFluid:
    @pytest.mark.parametrize("scenario", ["a", "b"])
    def test_mass_conserved(self, scenario):
        sol = solve_dynamic_fluid(2, 1.0, scenario=scenario, t_final=30)
        assert sol.s_final[1:].sum() == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("scenario", ["a", "b"])
    def test_tail_monotone(self, scenario):
        sol = solve_dynamic_fluid(2, 1.0, scenario=scenario, t_final=30)
        assert (np.diff(sol.s_final) <= 1e-9).all()

    def test_converges_from_crash_profile(self):
        """Start from a crash-like profile and converge to the fixed point."""
        levels = 60
        s0 = np.zeros(levels)
        s0[:20] = 0.05  # 'one bin holds everything'-like tail, mass 1
        sol = solve_dynamic_fluid(2, 1.0, scenario="a", s0=s0, t_final=200)
        fp = fixed_point(2, 1.0, scenario="a")
        assert np.abs(sol.s_final[:10] - fp[:10]).max() < 1e-6

    def test_scenarios_differ(self):
        a = solve_dynamic_fluid(2, 1.0, scenario="a", t_final=100)
        b = solve_dynamic_fluid(2, 1.0, scenario="b", t_final=100)
        assert abs(a.s_final[2] - b.s_final[2]) > 0.01

    def test_s0_validation(self):
        with pytest.raises(ValueError, match="sums to"):
            solve_dynamic_fluid(2, 1.0, s0=[0.1, 0.1])
        with pytest.raises(ValueError, match="longer"):
            solve_dynamic_fluid(2, 1.0, levels=3, s0=[0.5] * 5)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            solve_dynamic_fluid(2, 1.0, scenario="x")

    def test_rhs_conserves_mass(self):
        s = np.array([0.7, 0.25, 0.05] + [0.0] * 10)
        for scenario in ("a", "b"):
            r = dynamic_rhs(s, 2, 1.0, scenario)
            assert abs(r.sum()) < 1e-9

    def test_tail_at_indexing(self):
        sol = solve_dynamic_fluid(2, 1.0, t_final=5)
        t0 = sol.tail_at(0)
        assert t0[0] == 1.0


class TestEquilibrium:
    def test_fixed_point_residual_small(self):
        for scenario in ("a", "b"):
            fp = fixed_point(2, 1.0, scenario=scenario)
            r = dynamic_rhs(fp[1:], 2, 1.0, scenario)
            assert np.abs(r).max() < 1e-9

    def test_known_scenario_b_values(self):
        """Cross-checked against direct simulation (see E6): s_1 ~ 0.659."""
        fp = fixed_point(2, 1.0, scenario="b")
        assert fp[1] == pytest.approx(0.6586, abs=2e-3)
        assert fp[2] == pytest.approx(0.2857, abs=2e-3)

    def test_known_scenario_a_values(self):
        fp = fixed_point(2, 1.0, scenario="a")
        assert fp[1] == pytest.approx(0.7259, abs=2e-3)

    def test_predicted_max_load(self):
        fp = fixed_point(2, 1.0, scenario="b")
        small = predicted_max_load_from_tail(fp, 100)
        large = predicted_max_load_from_tail(fp, 10**6)
        assert small <= large <= 8

    def test_doubly_exponential_reference(self):
        t = doubly_exponential_tail(2, 0.6, levels=5)
        assert t[0] == 1.0
        assert t[1] == pytest.approx(0.6)
        assert t[2] == pytest.approx(0.6**3)
        assert t[3] == pytest.approx(0.6**7)

    def test_doubly_exponential_validation(self):
        with pytest.raises(ValueError):
            doubly_exponential_tail(1, 0.5)
        with pytest.raises(ValueError):
            doubly_exponential_tail(2, 1.5)

    def test_scenario_b_tail_tracks_doubly_exponential(self):
        """The §B fixed point decays like s_i ~ s_{i-1}^d down the tail."""
        fp = fixed_point(2, 1.0, scenario="b")
        for i in (2, 3, 4):
            ratio = np.log(fp[i + 1]) / np.log(fp[i])
            assert 1.6 < ratio < 2.6
