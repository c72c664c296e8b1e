"""Tests for the measurement harness (stats, scaling, maxload, recovery)."""

import numpy as np
import pytest

from repro.analysis.coalescence import CoalescenceSweep, sweep_coalescence
from repro.analysis.maxload import (
    empirical_tail,
    stationary_max_load,
    typical_max_load_target,
)
from repro.analysis.recovery_measure import crash_state_edge, recovery_times_balls
from repro.analysis.scaling import fit_power_law, fit_shape, shape_ratio_table
from repro.analysis.stats import bootstrap_ci, fraction_below, summarize
from repro.balls.load_vector import LoadVector
from repro.balls.scenario_a import ScenarioAProcess


class TestStats:
    def test_summarize_fields(self):
        s = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.n == 4 and s.mean == 2.5 and s.minimum == 1.0 and s.maximum == 4.0
        assert s.median == 2.5

    def test_summarize_single(self):
        s = summarize(np.array([5.0]))
        assert s.std == 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))

    def test_row(self):
        s = summarize(np.arange(10, dtype=float))
        assert len(s.row()) == 4

    def test_bootstrap_ci_brackets_mean(self):
        x = np.random.default_rng(0).normal(10, 1, size=200)
        est, lo, hi = bootstrap_ci(x, seed=1)
        assert lo <= est <= hi
        assert 9.5 < est < 10.5

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]), level=1.5)

    def test_fraction_below(self):
        assert fraction_below(np.array([1, 2, 3, 4]), 2.5) == 0.5


class TestScaling:
    def test_fit_shape_recovers_constant(self):
        xs = [8, 16, 32, 64]
        times = [3.0 * x * np.log(x) for x in xs]
        fit = fit_shape(xs, times, lambda x: x * np.log(x))
        assert fit.constant == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_power_law_recovers_exponent(self):
        xs = np.array([4, 8, 16, 32])
        times = 2.0 * xs**1.7
        fit = fit_power_law(xs, times)
        assert fit.exponent == pytest.approx(1.7)
        assert fit.amplitude == pytest.approx(2.0)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_shape([1, 2], [1, -1], lambda x: x)

    def test_shape_ratio_table(self):
        r = shape_ratio_table([2, 4], [8, 16], lambda x: x)
        assert r.tolist() == [4.0, 4.0]

    def test_shape_fit_predict(self):
        fit = fit_shape([2, 4], [4, 8], lambda x: x)
        assert fit.predict(np.array([10.0]))[0] == pytest.approx(20.0)


class TestMaxLoad:
    def _make(self, n):
        from repro.balls.rules import ABKURule

        rule = ABKURule(2)
        return lambda rng: ScenarioAProcess(
            rule, LoadVector.random(n, n, rng), seed=rng
        )

    def test_stationary_samples_count(self):
        loads = stationary_max_load(
            self._make(32), burn_in=100, samples=5, spacing=10, replicas=2, seed=0
        )
        assert loads.shape == (10,)
        assert (loads >= 1).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            stationary_max_load(self._make(8), burn_in=-1, samples=1, spacing=1)

    def test_empirical_tail_properties(self):
        tail = empirical_tail(
            self._make(64), burn_in=300, samples=5, spacing=20, levels=5, seed=1
        )
        assert tail[0] == pytest.approx(1.0)
        assert (np.diff(tail) <= 1e-12).all()

    def test_typical_target_reasonable(self):
        target = typical_max_load_target(
            self._make(64), burn_in=300, samples=10, spacing=20, seed=2
        )
        assert 2 <= target <= 8


class TestRecoveryMeasure:
    def test_balls_recovery_positive(self, abku2):
        times = recovery_times_balls(
            abku2, 32, 32, target_max_load=4, replicas=5, seed=0
        )
        assert times.shape == (5,)
        assert (times > 0).all()

    def test_scenario_b_slower(self, abku2):
        ta = recovery_times_balls(
            abku2, 24, 24, 4, scenario="a", replicas=5, seed=1
        )
        tb = recovery_times_balls(
            abku2, 24, 24, 4, scenario="b", replicas=5, seed=1
        )
        assert np.median(tb) > np.median(ta)

    def test_custom_start(self, abku2):
        times = recovery_times_balls(
            abku2, 16, 16, 16, start=LoadVector.balanced(16, 16),
            replicas=2, seed=2,
        )
        assert (times == 0).all()

    def test_crash_state_edge_properties(self):
        for n in (4, 7, 10):
            d = crash_state_edge(n)
            assert len(d) == n and sum(d) == 0
            assert max(abs(x) for x in d) == n // 2


class TestCoalescenceSweep:
    def test_sweep_structure(self):
        sweep = sweep_coalescence(
            [2, 4],
            lambda size, seed: size * 10,
            lambda size: size * 100.0,
            replicas=3,
            seed=0,
        )
        assert sweep.sizes == [2, 4]
        assert sweep.bounds == [200.0, 400.0]
        assert sweep.within_bounds()

    def test_table_renders(self):
        sweep = CoalescenceSweep()
        sweep.add(8, np.array([3, 4, 5]), 100.0)
        out = sweep.table().render()
        assert "q95/bound" in out

    def test_negative_times_rejected(self):
        sweep = CoalescenceSweep()
        with pytest.raises(RuntimeError, match="cap"):
            sweep.add(8, np.array([3, -1]), 100.0)

    def test_out_of_bound_detected(self):
        sweep = CoalescenceSweep()
        sweep.add(8, np.array([300, 400]), 100.0)
        assert not sweep.within_bounds()
