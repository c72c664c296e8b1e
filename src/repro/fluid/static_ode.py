"""Fluid limit of the static ABKU[d] allocation.

Scale time so balls arrive at rate n, and let s_i(t) be the fraction of
bins with load ≥ i.  A new ball lands in a bin of load exactly i − 1
(raising s_i) iff all d choices have load ≥ i − 1 but not all have
load ≥ i, giving Kurtz's density-dependent system

    ds_i/dt = s_{i−1}^d − s_i^d,   s_0 ≡ 1,  s_i(0) = 0 (i ≥ 1).

Integrating to t = m/n describes the allocation of m balls; the finite
system of n bins concentrates around the solution, and the max load is
predicted by the largest i with s_i(m/n) ≥ 1/n (one bin's worth of
mass).  This reproduces Mitzenmacher's Chapter-2-style tables used as
the E6 baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["StaticFluidSolution", "solve_static_fluid"]


@dataclass(frozen=True)
class StaticFluidSolution:
    """Terminal fluid state of the static ABKU[d] system."""

    d: int
    t_final: float
    s: np.ndarray
    """s[i] = limiting fraction of bins with load ≥ i (s[0] = 1)."""

    def tail(self, i: int) -> float:
        """s_i, with s_i = 0 beyond the truncation level."""
        if i < 0:
            raise ValueError(f"i must be >= 0, got {i}")
        return float(self.s[i]) if i < len(self.s) else 0.0

    def predicted_max_load(self, n: int) -> int:
        """Largest i with s_i ≥ 1/n: the fluid max-load prediction."""
        n = check_positive_int("n", n)
        idx = np.nonzero(self.s >= 1.0 / n)[0]
        return int(idx.max()) if idx.size else 0

    def load_fractions(self) -> np.ndarray:
        """p[i] = fraction of bins with load exactly i."""
        ext = np.append(self.s, 0.0)
        return ext[:-1] - ext[1:]


def solve_static_fluid(
    d: int,
    c: float = 1.0,
    *,
    levels: int = 60,
    rtol: float = 1e-10,
    atol: float = 1e-14,
) -> StaticFluidSolution:
    """Integrate the static fluid system to time c = m/n.

    ``levels`` truncates the load ladder; the doubly-exponential decay
    of s_i makes 60 levels overkill for any d ≥ 2 and ample for d = 1
    at laptop scales.
    """
    d = check_positive_int("d", d)
    if c <= 0:
        raise ValueError(f"c = m/n must be > 0, got {c}")
    levels = check_positive_int("levels", levels)

    def rhs(_t: float, s: np.ndarray) -> np.ndarray:
        ext = np.concatenate(([1.0], np.clip(s, 0.0, 1.0)))
        return ext[:-1] ** d - ext[1:] ** d

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (0.0, float(c)),
        np.zeros(levels),
        method="LSODA",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"static fluid integration failed: {sol.message}")
    s_final = np.concatenate(([1.0], np.clip(sol.y[:, -1], 0.0, 1.0)))
    return StaticFluidSolution(d=d, t_final=float(c), s=s_final)
