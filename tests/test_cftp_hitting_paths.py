"""Tests for CFTP perfect sampling, exact hitting times, Γ-path
decompositions."""

import numpy as np
import pytest

from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule
from repro.coupling.path_decomposition import (
    gamma_path_balls,
    gamma_path_edge,
    verify_decomposition_balls,
)
from repro.edgeorient.metric import EdgeOrientationMetric
from repro.markov import scenario_a_kernel, scenario_b_kernel, stationary_distribution
from repro.markov.cftp import cftp_sample, cftp_samples
from repro.markov.hitting import (
    expected_hitting_times,
    max_load_target_set,
    worst_start_hitting_time,
)


class TestCFTP:
    def test_sample_is_valid_state(self, abku2):
        s = cftp_sample(abku2, 3, 4, seed=0)
        assert sum(s) == 4 and len(s) == 3
        assert all(s[i] >= s[i + 1] for i in range(2))

    def test_deterministic_given_seed(self, abku2):
        assert cftp_sample(abku2, 3, 4, seed=7) == cftp_sample(abku2, 3, 4, seed=7)

    @pytest.mark.parametrize("scenario,kernel", [
        ("a", scenario_a_kernel), ("b", scenario_b_kernel),
    ])
    def test_samples_match_stationary(self, abku2, scenario, kernel):
        """CFTP histogram ≈ exact π — two independent mechanisms agree."""
        n, m = 3, 3
        ch = kernel(abku2, n, m)
        pi = stationary_distribution(ch)
        samples = cftp_samples(abku2, n, m, 3000, scenario=scenario, seed=1)
        counts = np.zeros(ch.size)
        for s in samples:
            counts[ch.index_of(s)] += 1
        assert np.abs(counts / len(samples) - pi).max() < 0.03

    def test_adap_rejected(self, adaptive_rule):
        with pytest.raises(TypeError, match="ABKU"):
            cftp_sample(adaptive_rule, 3, 3)


class TestHittingTimes:
    def test_target_states_zero(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 4)
        target = max_load_target_set(ch, 2)
        times = expected_hitting_times(ch, target)
        for s in target:
            assert times[s] == 0.0

    def test_positive_off_target(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 4)
        times = expected_hitting_times(ch, max_load_target_set(ch, 2))
        assert times[(4, 0, 0)] > times[(3, 1, 0)] > 0

    def test_one_step_recurrence(self, abku2):
        """t(x) = 1 + Σ_y P(x,y) t(y) for x off target — verified directly."""
        ch = scenario_a_kernel(abku2, 3, 5)
        target = max_load_target_set(ch, 2)
        times = expected_hitting_times(ch, target)
        tset = set(target)
        for s in ch.states:
            if s in tset:
                continue
            rhs = 1.0 + sum(
                p * times[ch.state_of(j)]
                for j, p in enumerate(ch.P[ch.index_of(s)])
                if p > 0
            )
            assert times[s] == pytest.approx(rhs, rel=1e-10)

    def test_empty_target_rejected(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 3)
        with pytest.raises(ValueError):
            expected_hitting_times(ch, [])

    def test_worst_start(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 4)
        worst, val = worst_start_hitting_time(ch, max_load_target_set(ch, 2))
        assert worst == (4, 0, 0)  # the crash state is the worst start
        assert val > 0

    def test_simulated_recovery_matches_exact(self, abku2):
        """The E7-style simulated recovery agrees with the linear solve."""
        from repro.balls.scenario_a import ScenarioAProcess

        n, m, L = 3, 6, 3
        ch = scenario_a_kernel(abku2, n, m)
        exact = expected_hitting_times(ch, max_load_target_set(ch, L))[
            (6, 0, 0)
        ]
        sims = []
        for s in range(600):
            proc = ScenarioAProcess(abku2, LoadVector.all_in_one(m, n), seed=s)
            sims.append(proc.run_until(L, 10_000))
        assert abs(np.mean(sims) - exact) < 0.35

    def test_scenario_b_hitting_larger(self, abku2):
        """Exact confirmation that B's crash recovery exceeds A's."""
        n, m, L = 3, 6, 3
        cha = scenario_a_kernel(abku2, n, m)
        chb = scenario_b_kernel(abku2, n, m)
        ta = expected_hitting_times(cha, max_load_target_set(cha, L))[(6, 0, 0)]
        tb = expected_hitting_times(chb, max_load_target_set(chb, L))[(6, 0, 0)]
        assert tb > ta


class TestPathDecomposition:
    def test_balls_exhaustive(self, abku2):
        from repro.utils.partitions import all_partitions

        states = [np.array(s, dtype=np.int64) for s in all_partitions(5, 3)]
        for v in states:
            for u in states:
                verify_decomposition_balls(v, u)

    def test_balls_path_length(self):
        from repro.balls.load_vector import delta_distance

        v = np.array([6, 0, 0], dtype=np.int64)
        u = np.array([2, 2, 2], dtype=np.int64)
        path = gamma_path_balls(v, u)
        assert len(path) - 1 == delta_distance(v, u)

    def test_balls_identical_pair(self):
        v = np.array([2, 1], dtype=np.int64)
        assert len(gamma_path_balls(v, v.copy())) == 1

    def test_balls_validation(self):
        with pytest.raises(ValueError):
            gamma_path_balls(
                np.array([2, 0], dtype=np.int64), np.array([1, 0], dtype=np.int64)
            )

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_edge_exhaustive(self, n):
        metric = EdgeOrientationMetric(n)
        for x in metric.states:
            for y in metric.states:
                gamma_path_edge(metric, x, y)  # raises on any violation
