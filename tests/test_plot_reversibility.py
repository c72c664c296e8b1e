"""Tests for the ASCII sparkline."""

import pytest

from repro.balls.rules import ABKURule
from repro.utils.ascii_plot import sparkline


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s[0] == "▁" and s[-1] == "█"
        assert len(s) == 8

    def test_constant_series(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sparkline([1.0, float("nan")])

    def test_pinned_scale(self):
        s = sparkline([5], lo=0, hi=10)
        assert s in "▄▅"

    def test_recovery_trajectory_shape(self):
        """A crash-recovery trajectory renders high -> low."""
        from repro.balls.load_vector import LoadVector
        from repro.balls.scenario_a import ScenarioAProcess

        p = ScenarioAProcess(ABKURule(2), LoadVector.all_in_one(64, 64), seed=0)
        traj = p.trajectory(400, every=40)
        s = sparkline(traj)
        assert s[0] == "█" and s[-1] == "▁"
