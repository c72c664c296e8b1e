"""Conductance and Cheeger bounds — another mixing diagnostic.

The conductance Φ of an ergodic chain is the worst bottleneck ratio
over sets of stationary mass ≤ ½:

    Φ = min_{S : π(S) ≤ 1/2}  Q(S, S̄) / π(S),
    Q(x, y) = π(x) P(x, y).

Cheeger's inequality brackets the spectral gap: Φ²/2 ≤ gap ≤ 2Φ, hence
relaxation-time (and, for reversible chains, mixing-time) bounds.  For
the small exact chains of E9/E12 the exact conductance (exhaustive over
subsets, so |X| ≲ 20) or a sampled approximation pins down *where* the
bottleneck lives — e.g. the scenario-B diagonal's Ω(m²) shows up as a
conductance decaying like 1/m².
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.markov.chain import FiniteMarkovChain
from repro.markov.stationary import stationary_distribution
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "edge_flow_matrix",
    "conductance",
    "cheeger_bounds",
]


def edge_flow_matrix(chain: FiniteMarkovChain, pi: np.ndarray | None = None) -> np.ndarray:
    """Q(x, y) = π(x)·P(x, y), the stationary edge flows."""
    if pi is None:
        pi = stationary_distribution(chain)
    return pi[:, None] * chain.P


def conductance(
    chain: FiniteMarkovChain,
    *,
    exhaustive_limit: int = 18,
    samples: int = 20000,
    seed: SeedLike = None,
) -> float:
    """Φ of the chain: exact for ≤ exhaustive_limit states, sampled above.

    The sampled variant draws random subsets plus all the "level-set"
    cuts of the stationary ordering (which contain the optimal cut for
    birth-death-like chains) and returns the minimum found — an upper
    bound on Φ, adequate for diagnostic tables.
    """
    pi = stationary_distribution(chain)
    Q = edge_flow_matrix(chain, pi)
    size = chain.size
    best = float("inf")

    def consider(mask: np.ndarray) -> None:
        nonlocal best
        if not mask.any() or mask.all():
            return
        mass = float(pi[mask].sum())
        if mass > 0.5 + 1e-12:
            return
        val = float(Q[np.ix_(mask, ~mask)].sum()) / mass
        if val < best:
            best = val

    if size <= exhaustive_limit:
        for bits in itertools.product((False, True), repeat=size - 1):
            # Fix state 0 out of S to halve the work (S vs S̄ symmetry
            # is broken by the π(S) ≤ 1/2 restriction, so also try the
            # complement).
            mask = np.array((False,) + bits)
            consider(mask)
            consider(~mask)
    else:
        rng = as_generator(seed)
        order = np.argsort(-pi)
        for k in range(1, size):
            mask = np.zeros(size, dtype=bool)
            mask[order[:k]] = True
            consider(mask)
            consider(~mask)
        for _ in range(samples):
            mask = rng.random(size) < rng.uniform(0.05, 0.95)
            consider(mask)
    if best == float("inf"):
        raise RuntimeError("no admissible cut found (degenerate chain)")
    return best


def cheeger_bounds(chain: FiniteMarkovChain, **kwargs) -> tuple[float, float, float]:
    """(Φ²/2, spectral gap, 2Φ): the Cheeger sandwich, computed.

    Returns the lower bound, the measured gap and the upper bound; a
    violated sandwich (up to tolerance) signals a bug or a badly
    sampled Φ, so callers may assert on it.
    """
    from repro.markov.spectral import spectral_gap

    phi = conductance(chain, **kwargs)
    gap = spectral_gap(chain)
    return phi * phi / 2.0, gap, 2.0 * phi
