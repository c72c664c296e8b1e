"""Tests for the scenario A and B simulators."""

import numpy as np
import pytest

from repro.balls.load_vector import LoadVector
from repro.balls.process import max_load_stat, nonempty_stat
from repro.balls.rules import ABKURule
from repro.balls.scenario_a import ScenarioAProcess
from repro.balls.scenario_b import ScenarioBProcess


@pytest.fixture(params=["a", "b"])
def process_cls(request):
    return ScenarioAProcess if request.param == "a" else ScenarioBProcess


class TestCommonBehaviour:
    def test_ball_count_conserved(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.all_in_one(20, 8), seed=0)
        p.run(500)
        assert p.m == 20

    def test_state_stays_normalized(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.random(15, 6, 1), seed=2)
        for _ in range(200):
            p.step()
            assert (np.diff(p.loads) <= 0).all()
            assert (p.loads >= 0).all()

    def test_determinism(self, process_cls, abku2):
        a = process_cls(abku2, LoadVector.all_in_one(10, 5), seed=42).run(300)
        b = process_cls(abku2, LoadVector.all_in_one(10, 5), seed=42).run(300)
        assert a.state == b.state

    def test_t_counts_steps(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.balanced(8, 4), seed=0)
        p.run(7)
        assert p.t == 7

    def test_empty_start_rejected(self, process_cls, abku2):
        with pytest.raises(ValueError, match="at least one ball"):
            process_cls(abku2, LoadVector.empty(3))

    def test_state_snapshot_defensive(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.balanced(6, 3), seed=0)
        snap = p.state
        p.run(10)
        assert snap == LoadVector.balanced(6, 3)

    def test_trajectory_shape_and_start(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.all_in_one(12, 4), seed=0)
        traj = p.trajectory(20, stat=max_load_stat, every=5)
        assert traj.shape == (5,)
        assert traj[0] == 12.0

    def test_trajectory_bad_every(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.balanced(4, 2), seed=0)
        with pytest.raises(ValueError):
            p.trajectory(5, every=0)

    def test_run_negative_raises(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.balanced(4, 2), seed=0)
        with pytest.raises(ValueError):
            p.run(-1)

    def test_run_until_immediate(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.balanced(8, 4), seed=0)
        assert p.run_until(8, max_steps=10) == 0

    def test_run_until_cap(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.all_in_one(30, 5), seed=0)
        assert p.run_until(-1, max_steps=5) == -1
        assert p.t == 5

    def test_repr(self, process_cls, abku2):
        p = process_cls(abku2, LoadVector.balanced(4, 2), seed=0)
        assert "n=2" in repr(p) and "m=4" in repr(p)


class TestScenarioASpecifics:
    def test_recovers_from_crash(self, abku2):
        m = n = 64
        p = ScenarioAProcess(abku2, LoadVector.all_in_one(m, n), seed=3)
        p.run(int(m * np.log(m / 0.25)) + 1)
        assert p.max_load <= 5

    def test_fenwick_consistency_under_long_run(self, abku2):
        p = ScenarioAProcess(abku2, LoadVector.random(30, 10, 4), seed=5)
        p.run(2000)
        assert np.array_equal(p._fenwick.to_array(), p.loads)

    def test_removal_follows_a_distribution(self):
        """The removal marginal is 𝒜(v): the big bin is hit per its load."""
        from repro.balls.distributions import sample_removal_a

        rng = np.random.default_rng(0)
        v = np.array([5, 1], dtype=np.int64)
        trials = 4000
        hits_from_big = sum(
            sample_removal_a(v, rng) == 0 for _ in range(trials)
        )
        assert abs(hits_from_big / trials - 5 / 6) < 0.03


class TestScenarioBSpecifics:
    def test_nonempty_counter_tracks_truth(self, abku2):
        p = ScenarioBProcess(abku2, LoadVector.all_in_one(12, 6), seed=7)
        for _ in range(300):
            p.step()
            assert p.num_nonempty == int(np.searchsorted(-p.loads, 0, "left"))

    def test_slower_crash_recovery_than_a(self, abku2):
        """The qualitative §5 claim: B drains the crash bin ~n times slower."""
        m = n = 32
        pa = ScenarioAProcess(abku2, LoadVector.all_in_one(m, n), seed=8)
        pb = ScenarioBProcess(abku2, LoadVector.all_in_one(m, n), seed=8)
        ta = pa.run_until(4, 10**6)
        tb = pb.run_until(4, 10**6)
        assert 0 < ta < tb

    def test_stat_functions(self):
        v = np.array([2, 1, 0], dtype=np.int64)
        assert max_load_stat(v) == 2.0
        assert nonempty_stat(v) == 2.0
