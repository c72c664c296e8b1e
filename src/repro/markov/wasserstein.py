"""Exact Wasserstein (transportation) distances under the paper's metrics.

Path coupling really proves a *Wasserstein* contraction: if a coupling
on Γ contracts E[Δ] by ρ, then the transportation distance W_Δ between
the laws of two copies contracts by ρ per step, and TV ≤ W_Δ (since
Δ ≥ 1 on distinct states) turns that into the mixing bound.  On small
chains we can compute W_Δ exactly as a linear program and watch the
geometric decay W_Δ(δ_x P^t, π) ≤ ρ^t·D happen — the sharpest possible
numerical confirmation of the mechanism (used in the tests).

The LP is the standard optimal transport formulation:

    min Σ_{x,y} C[x,y]·γ[x,y]   s.t.  γ 1 = p,  γᵀ1 = q,  γ ≥ 0,

solved with scipy's HiGHS backend.
"""

from __future__ import annotations

import numpy as np

from repro.markov.chain import FiniteMarkovChain

__all__ = ["wasserstein_distance", "delta_cost_matrix", "wasserstein_decay"]


def delta_cost_matrix(chain: FiniteMarkovChain, metric) -> np.ndarray:
    """Pairwise Δ costs between chain states via ``metric(x, y)``."""
    size = chain.size
    C = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            C[i, j] = float(metric(chain.states[i], chain.states[j]))
    if (C < 0).any():
        raise ValueError("metric produced negative distances")
    return C


def wasserstein_distance(p: np.ndarray, q: np.ndarray, C: np.ndarray) -> float:
    """Exact W(p, q) under cost matrix C, by linear programming."""
    from scipy.optimize import linprog

    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    size = p.shape[0]
    if q.shape != (size,) or C.shape != (size, size):
        raise ValueError("shape mismatch between distributions and costs")
    if abs(p.sum() - 1) > 1e-9 or abs(q.sum() - 1) > 1e-9:
        raise ValueError("p and q must be probability vectors")
    # Variables gamma[i, j] flattened row-major.
    c = C.ravel()
    # Row sums = p.
    a_rows = np.zeros((size, size * size))
    for i in range(size):
        a_rows[i, i * size : (i + 1) * size] = 1.0
    # Column sums = q.
    a_cols = np.zeros((size, size * size))
    for j in range(size):
        a_cols[j, j::size] = 1.0
    A = np.vstack([a_rows, a_cols])
    b = np.concatenate([p, q])
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def wasserstein_decay(
    chain: FiniteMarkovChain,
    metric,
    start,
    t_max: int,
    pi: np.ndarray | None = None,
) -> np.ndarray:
    """W_Δ(δ_start·P^t, π) for t = 0..t_max.

    Path coupling predicts decay ≤ ρ^t·Δ_max with the coupling's ρ —
    e.g. (1 − 1/m)^t for scenario A.
    """
    from repro.markov.stationary import stationary_distribution

    if pi is None:
        pi = stationary_distribution(chain)
    C = delta_cost_matrix(chain, metric)
    dist = chain.point_mass(start)
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        out[t] = wasserstein_distance(dist, pi, C)
        dist = dist @ chain.P
    return out
