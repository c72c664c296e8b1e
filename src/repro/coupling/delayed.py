"""Delayed path coupling (Czumaj–Kanarek–Kutyłowski–Loryś, ref. [10]).

The paper cites its companion technique: when no *one-step* coupling
contracts, a coupling of the *s-step* chain may.  Formally, apply the
Path Coupling Lemma to 𝔐^s: if a coupling of s-step transitions
satisfies E[Δ(X_{t+s}, Y_{t+s})] ≤ ρ_s·Δ(X_t, Y_t) on Γ with ρ_s < 1,
then τ_𝔐(ε) ≤ s·⌈ln(D/ε)/(1 − ρ_s)⌉.

Here the s-step couplings are obtained by *iterating* the paper's
one-step couplings, and their contraction is computed exactly, as the
expected Δ after s steps of the coupled (product) chain of
:mod:`repro.markov.product`, maximized over Γ pairs.

For scenario B this is interesting: the one-step coupling has ρ₁ = 1
(no strict contraction — the reason Claim 5.3 needs the variance case
of the lemma), but the iterated coupling achieves ρ_s < 1 for modest s
because the coalescence atom compounds; delayed path coupling converts
that into a case-1 bound, which the tests compare against Claim 5.3.
"""

from __future__ import annotations

import math

import numpy as np

from repro.balls.load_vector import delta_distance
from repro.markov.product import CoupledChain

__all__ = [
    "exact_s_step_contraction",
    "delayed_path_coupling_bound",
]


def exact_s_step_contraction(
    coupled: CoupledChain,
    s: int,
) -> float:
    """ρ_s = max over Δ=1 pairs of E[Δ after s coupled steps].

    Exact: powers the coupled (pair-space) transition matrix.  Only
    adjacent (Δ = 1) pairs are maximized over, matching the Γ of §4/§5.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    deltas = np.array(
        [
            delta_distance(
                np.array(x, dtype=np.int64), np.array(y, dtype=np.int64)
            )
            for (x, y) in coupled.pairs
        ],
        dtype=np.float64,
    )
    Ps = np.linalg.matrix_power(coupled.P, s)
    expected = Ps @ deltas
    worst = 0.0
    for i, (x, y) in enumerate(coupled.pairs):
        if deltas[i] == 1.0:
            worst = max(worst, float(expected[i]))
    if worst == 0.0:
        raise ValueError("no adjacent pairs found in the coupled chain")
    return worst


def delayed_path_coupling_bound(
    rho_s: float,
    s: int,
    D: float,
    eps: float = 0.25,
) -> int:
    """τ(ε) ≤ s·⌈ln(D/ε)/(1 − ρ_s)⌉ — Lemma 3.1 case 1 on the s-step chain."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not 0.0 <= rho_s < 1.0:
        raise ValueError(f"delayed coupling needs rho_s < 1, got {rho_s}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if D < 1:
        raise ValueError(f"diameter must be >= 1, got {D}")
    return s * int(math.ceil(math.log(D / eps) / (1.0 - rho_s)))
