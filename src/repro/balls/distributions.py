"""Removal distributions 𝒜(v) and ℬ(v) (Definitions 3.2 and 3.3).

Scenario A removes a *ball* chosen uniformly among the m balls, which in
normalized coordinates means bin *i* is hit with probability ``v_i / m``
— the distribution 𝒜(v).  Scenario B removes one ball from a *nonempty
bin* chosen uniformly, i.e. bin *i* is hit with probability ``1/s`` for
``i ≤ s`` where s is the number of nonempty bins — the distribution ℬ(v).

Both are exposed as exact pmfs (used by the exact kernels in
:mod:`repro.markov.exact`) and as O(log n) samplers (used by the
simulators).  𝒜(v) sampling uses quantile inversion on the descending
array, which doubles as the *shared-uniform* coupling used by the grand
coupling in :mod:`repro.coupling.grand`.
"""

from __future__ import annotations

import numpy as np

from repro.balls.load_vector import count_above
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "removal_distribution_a",
    "removal_distribution_b",
    "sample_removal_a",
    "sample_removal_b",
    "quantile_removal_a",
    "quantile_removal_b",
]


def removal_distribution_a(v: np.ndarray) -> np.ndarray:
    """Exact pmf of 𝒜(v): Pr[i] = v_i / m (Definition 3.2).

    Raises ``ValueError`` on the empty state (no ball to remove).
    """
    m = int(v.sum())
    if m <= 0:
        raise ValueError("A(v) is undefined for the empty state")
    return v.astype(np.float64) / m


def removal_distribution_b(v: np.ndarray) -> np.ndarray:
    """Exact pmf of ℬ(v): Pr[i] = 1/s for i < s, else 0 (Definition 3.3)."""
    s = count_above(v, 0)
    if s <= 0:
        raise ValueError("B(v) is undefined for the empty state")
    p = np.zeros(v.shape[0], dtype=np.float64)
    p[:s] = 1.0 / s
    return p


def quantile_removal_a(v: np.ndarray, u: float) -> int:
    """Inverse-CDF of 𝒜(v) at u ∈ [0, 1): the bin holding ball ⌊u·m⌋.

    Monotone in *u* with respect to the normalized ordering; two states
    fed the same *u* remove from 'aligned' bins, which is exactly the
    shared-randomness coupling the grand coupling uses.
    """
    m = int(v.sum())
    if m <= 0:
        raise ValueError("A(v) is undefined for the empty state")
    target = int(u * m)
    if target >= m:
        target = m - 1
    c = np.cumsum(v)
    return int(np.searchsorted(c, target, side="right"))


def quantile_removal_b(v: np.ndarray, u: float) -> int:
    """Inverse-CDF of ℬ(v) at u ∈ [0, 1): bin ⌊u·s⌋ among the s nonempty."""
    s = count_above(v, 0)
    if s <= 0:
        raise ValueError("B(v) is undefined for the empty state")
    i = int(u * s)
    return min(i, s - 1)


def sample_removal_a(v: np.ndarray, seed: SeedLike = None) -> int:
    """Draw a bin index from 𝒜(v)."""
    rng = as_generator(seed)
    return quantile_removal_a(v, float(rng.random()))


def sample_removal_b(v: np.ndarray, seed: SeedLike = None) -> int:
    """Draw a bin index from ℬ(v)."""
    rng = as_generator(seed)
    s = count_above(v, 0)
    if s <= 0:
        raise ValueError("B(v) is undefined for the empty state")
    return int(rng.integers(0, s))
