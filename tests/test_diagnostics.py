"""Tests for conductance and the parallel replica map."""

import numpy as np
import pytest

from repro.markov import FiniteMarkovChain, scenario_a_kernel
from repro.markov.conductance import cheeger_bounds, conductance, edge_flow_matrix
from repro.utils.parallel import parallel_replica_map


# ---------------------------------------------------------------------------
# conductance
# ---------------------------------------------------------------------------

class TestConductance:
    @pytest.fixture
    def two_state(self):
        return FiniteMarkovChain(["x", "y"], np.array([[0.9, 0.1], [0.2, 0.8]]))

    def test_two_state_exact(self, two_state):
        # pi = (2/3, 1/3); only admissible cut is S = {y}:
        # Q(y, x)/pi(y) = (1/3)(0.2)/(1/3) = 0.2.
        assert conductance(two_state) == pytest.approx(0.2)

    def test_edge_flow_rows(self, two_state):
        Q = edge_flow_matrix(two_state)
        assert Q.sum() == pytest.approx(1.0)

    def test_cheeger_sandwich_exact(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 4)
        lo, gap, hi = cheeger_bounds(ch)
        assert lo <= gap + 1e-9
        assert gap <= hi + 1e-9

    def test_sampled_path_upper_bounds_exact(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 6)  # 7 states: exact feasible
        exact = conductance(ch)
        sampled = conductance(ch, exhaustive_limit=2, samples=4000, seed=0)
        assert sampled >= exact - 1e-9

    def test_bottleneck_grows_with_m_scenario_b(self, abku2):
        """The Omega(m^2) diagonal shows as shrinking conductance."""
        from repro.markov import scenario_b_kernel

        phis = [conductance(scenario_b_kernel(abku2, k, k)) for k in (3, 5, 7)]
        assert phis[0] > phis[1] > phis[2]


# ---------------------------------------------------------------------------
# parallel map
# ---------------------------------------------------------------------------

def _square_with_noise(item, seed_seq):
    rng = np.random.default_rng(seed_seq)
    return item * item + float(rng.random())


class TestParallelMap:
    def test_inline_matches_parallel(self):
        items = list(range(8))
        inline = parallel_replica_map(_square_with_noise, items, seed=5, processes=1)
        par = parallel_replica_map(_square_with_noise, items, seed=5, processes=2)
        assert inline == par

    def test_order_preserved(self):
        out = parallel_replica_map(_square_with_noise, [3, 1, 2], seed=0, processes=1)
        assert [int(x) for x in out] == [9, 1, 4]

    def test_empty(self):
        assert parallel_replica_map(_square_with_noise, [], seed=0) == []
