"""Exact analysis of coupled (product) chains.

A coupling of a chain 𝔐 is itself a Markov chain on the product space
X × X.  For small state spaces we can build that product chain from a
coupling's exact joint law and *solve* for quantities the Path Coupling
Lemma only bounds:

* the expected coalescence time E[T_couple] from any pair, via the
  linear system (I − Q)·t = 1 on the non-coalesced pairs;
* the worst-pair expected coalescence time, which by the coupling
  inequality upper-bounds the mixing time: τ(ε) ≤ max-pair
  E[T]/... (Markov), and more directly Pr[X_t ≠ Y_t] ≤ d(t).

Experiment E9's strongest rows come from here: for scenario A the exact
worst-pair expected coalescence is ≈ m·H_m-ish, comfortably inside
Theorem 1's ⌈m ln(m/ε)⌉ budget, with no Monte Carlo anywhere.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

__all__ = ["CoupledChain", "build_coupled_chain_a", "build_coupled_chain_b"]

JointLaw = Callable[
    [np.ndarray, np.ndarray],
    dict[tuple[tuple[int, ...], tuple[int, ...]], float],
]


class CoupledChain:
    """A coupling as an explicit Markov chain on pair states.

    ``pairs`` lists the (x, y) pair states; ``P`` is the transition
    matrix between them.  Diagonal pairs (x = x) must be absorbing as a
    set (a faithful coupling never un-coalesces).
    """

    def __init__(
        self,
        pairs: list[tuple[Hashable, Hashable]],
        P: np.ndarray,
    ):
        if len(pairs) != P.shape[0] or P.shape[0] != P.shape[1]:
            raise ValueError("pairs/P size mismatch")
        rows = P.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-9):
            raise ValueError("P is not row-stochastic")
        self.pairs = pairs
        self.index = {p: i for i, p in enumerate(pairs)}
        self.P = P
        self._check_coalescence_absorbing()

    def _check_coalescence_absorbing(self) -> None:
        for i, (x, y) in enumerate(self.pairs):
            if x != y:
                continue
            for j, p in enumerate(self.P[i]):
                if p > 1e-12:
                    a, b = self.pairs[j]
                    if a != b:
                        raise ValueError(
                            f"coupling un-coalesces: {x} -> ({a}, {b}) "
                            f"with probability {p}"
                        )

    def expected_coalescence_times(self) -> dict[tuple[Hashable, Hashable], float]:
        """E[T_couple] from every pair, by solving (I − Q)·t = 1.

        Q is the sub-matrix over non-coalesced pairs; coalesced pairs
        get 0.
        """
        trans = [i for i, (x, y) in enumerate(self.pairs) if x != y]
        if not trans:
            return {p: 0.0 for p in self.pairs}
        pos = {i: k for k, i in enumerate(trans)}
        Q = np.zeros((len(trans), len(trans)))
        for i in trans:
            for j, p in enumerate(self.P[i]):
                if p > 0 and j in pos:
                    Q[pos[i], pos[j]] = p
        t = np.linalg.solve(np.eye(len(trans)) - Q, np.ones(len(trans)))
        out = {p: 0.0 for p in self.pairs}
        for i in trans:
            out[self.pairs[i]] = float(t[pos[i]])
        return out

    def worst_expected_coalescence(self) -> float:
        """max over pairs of E[T_couple]."""
        return max(self.expected_coalescence_times().values())

    def tail_bound_mixing_time(self, eps: float = 0.25) -> int:
        """A rigorous τ(ε) upper bound from the coupling inequality.

        d(t) ≤ max-pair Pr[T > t] ≤ E[T]/t (Markov), so
        τ(ε) ≤ ⌈max-pair E[T]/ε⌉.
        """
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        return int(np.ceil(self.worst_expected_coalescence() / eps))


def _build_from_joint(
    n: int,
    m: int,
    joint: JointLaw,
) -> CoupledChain:
    """Assemble the pair chain from a coupling's exact joint law.

    For coalesced pairs the chain moves both copies together (any
    faithful coupling does); for distinct pairs the provided joint law
    is used.  The law must be defined for *all* distinct ordered pairs
    — the §4/§5 couplings are only defined on adjacent pairs, so this
    builder extends them with the grand (shared-randomness) coupling
    for the rest via the ``joint`` callable the caller supplies.
    """
    from repro.utils.partitions import all_partitions

    states = all_partitions(m, n)
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        (a, b) for a in states for b in states
    ]
    index = {p: i for i, p in enumerate(pairs)}
    P = np.zeros((len(pairs), len(pairs)))
    for (a, b) in pairs:
        i = index[(a, b)]
        law = joint(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        for (a2, b2), p in law.items():
            P[i, index[(a2, b2)]] += p
    return CoupledChain(pairs, P)


def build_coupled_chain_a(rule, n: int, m: int) -> CoupledChain:
    """Exact pair chain of the §4 coupling (grand-extended off Γ).

    Adjacent pairs use the exact §4 joint law
    (:func:`repro.coupling.scenario_a_coupling.exact_joint_outcomes_a`);
    non-adjacent distinct pairs use the quantile-coupled removal +
    Lemma 3.3 insertion (the grand coupling), enumerated exactly;
    coalesced pairs move together.
    """
    from repro.balls.distributions import quantile_removal_a
    from repro.balls.load_vector import delta_distance, ominus, oplus
    from repro.balls.right_oriented import iter_sources
    from repro.coupling.scenario_a_coupling import exact_joint_outcomes_a

    def joint(a: np.ndarray, b: np.ndarray):
        if np.array_equal(a, b):
            # Move together: removal ~ A(a), insertion shared.
            out: dict = {}
            for i in range(n):
                if a[i] == 0:
                    continue
                p_rm = a[i] / m
                astar = ominus(a, i)
                length = rule.source_length(astar)
                p_src = 1.0 / n**length
                for rs in iter_sources(n, length):
                    a0 = oplus(astar, rule.select_from_source(astar, rs))
                    key = (tuple(map(int, a0)), tuple(map(int, a0)))
                    out[key] = out.get(key, 0.0) + p_rm * p_src
            return out
        if delta_distance(a, b) == 1:
            return exact_joint_outcomes_a(rule, a, b)
        # Grand coupling: shared removal quantile (piecewise constant in
        # u with breakpoints at multiples of 1/m on both sides), shared
        # insertion source.
        out = {}
        for ball in range(m):
            u = (ball + 0.5) / m
            ia = quantile_removal_a(a, u)
            ib = quantile_removal_a(b, u)
            astar = ominus(a, ia)
            bstar = ominus(b, ib)
            length = max(rule.source_length(astar), rule.source_length(bstar))
            p_src = 1.0 / n**length
            for rs in iter_sources(n, length):
                a0 = oplus(astar, rule.select_from_source(astar, rs))
                b0 = oplus(bstar, rule.select_from_source(bstar, rule.phi(rs)))
                key = (tuple(map(int, a0)), tuple(map(int, b0)))
                out[key] = out.get(key, 0.0) + (1.0 / m) * p_src
        return out

    return _build_from_joint(n, m, joint)


def build_coupled_chain_b(rule, n: int, m: int) -> CoupledChain:
    """Exact pair chain of the §5 coupling (grand-extended off Γ)."""
    from repro.balls.distributions import quantile_removal_b
    from repro.balls.load_vector import count_above, delta_distance, ominus, oplus
    from repro.balls.right_oriented import iter_sources
    from repro.coupling.scenario_b_coupling import exact_joint_outcomes_b

    def joint(a: np.ndarray, b: np.ndarray):
        if np.array_equal(a, b):
            out: dict = {}
            s = count_above(a, 0)
            for i in range(s):
                p_rm = 1.0 / s
                astar = ominus(a, i)
                length = rule.source_length(astar)
                p_src = 1.0 / n**length
                for rs in iter_sources(n, length):
                    a0 = oplus(astar, rule.select_from_source(astar, rs))
                    key = (tuple(map(int, a0)), tuple(map(int, a0)))
                    out[key] = out.get(key, 0.0) + p_rm * p_src
            return out
        if delta_distance(a, b) == 1:
            return exact_joint_outcomes_b(rule, a, b)
        out = {}
        s1 = count_above(a, 0)
        s2 = count_above(b, 0)
        grid = s1 * s2  # common refinement of the two uniform grids
        for k in range(grid):
            u = (k + 0.5) / grid
            ia = quantile_removal_b(a, u)
            ib = quantile_removal_b(b, u)
            astar = ominus(a, ia)
            bstar = ominus(b, ib)
            length = max(rule.source_length(astar), rule.source_length(bstar))
            p_src = 1.0 / n**length
            for rs in iter_sources(n, length):
                a0 = oplus(astar, rule.select_from_source(astar, rs))
                b0 = oplus(bstar, rule.select_from_source(bstar, rule.phi(rs)))
                key = (tuple(map(int, a0)), tuple(map(int, b0)))
                out[key] = out.get(key, 0.0) + (1.0 / grid) * p_src
        return out

    return _build_from_joint(n, m, joint)
