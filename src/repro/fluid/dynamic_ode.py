"""Fluid limits of the dynamic processes I_A and I_B.

Scale time so that n phases happen per unit (each phase = one removal,
one insertion), keep c = m/n fixed, and track s_i = fraction of bins
with load ≥ i.  The insertion term is the static one; the removal term
depends on the scenario:

* **scenario A** (remove a uniform ball): a ball sits in a bin of load
  exactly i with probability i·(s_i − s_{i+1})/c, so

      ds_i/dt = (s_{i−1}^d − s_i^d) − i·(s_i − s_{i+1})/c;

* **scenario B** (remove from a uniform nonempty bin): the hit bin has
  load exactly i with probability (s_i − s_{i+1})/s_1, so

      ds_i/dt = (s_{i−1}^d − s_i^d) − (s_i − s_{i+1})/s_1.

Both systems conserve Σ_{i≥1} s_i = c (one ball removed, one added per
phase) and converge to the fixed points computed in
:mod:`repro.fluid.equilibrium`; E6 checks the finite-n simulators
against these trajectories and fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["DynamicFluidSolution", "solve_dynamic_fluid", "dynamic_rhs"]


def dynamic_rhs(
    s: np.ndarray, d: int, c: float, scenario: Literal["a", "b"]
) -> np.ndarray:
    """Right-hand side of the dynamic fluid system (s excludes s_0 ≡ 1)."""
    s = np.clip(s, 0.0, 1.0)
    ext = np.concatenate(([1.0], s, [0.0]))  # s_0 .. s_{L+1}
    insert = ext[:-2] ** d - ext[1:-1] ** d
    exact = ext[1:-1] - ext[2:]  # fraction at exactly i, i = 1..L
    if scenario == "a":
        i = np.arange(1, len(s) + 1, dtype=np.float64)
        remove = i * exact / c
    else:
        s1 = max(float(ext[1]), 1e-300)
        remove = exact / s1
    return insert - remove


@dataclass(frozen=True)
class DynamicFluidSolution:
    """Trajectory of the dynamic fluid system."""

    d: int
    c: float
    scenario: str
    times: np.ndarray
    trajectory: np.ndarray
    """trajectory[k] = s-vector (excluding s_0) at times[k]."""

    @property
    def s_final(self) -> np.ndarray:
        """Terminal tail vector including s_0 = 1."""
        return np.concatenate(([1.0], np.clip(self.trajectory[-1], 0.0, 1.0)))

    def predicted_max_load(self, n: int) -> int:
        """Largest i with terminal s_i ≥ 1/n."""
        n = check_positive_int("n", n)
        idx = np.nonzero(self.s_final >= 1.0 / n)[0]
        return int(idx.max()) if idx.size else 0

    def tail_at(self, k: int) -> np.ndarray:
        """Tail vector (with s_0) at time index k."""
        return np.concatenate(([1.0], np.clip(self.trajectory[k], 0.0, 1.0)))


def solve_dynamic_fluid(
    d: int,
    c: float = 1.0,
    *,
    scenario: Literal["a", "b"] = "a",
    t_final: float = 50.0,
    levels: int = 60,
    s0: Sequence[float] | np.ndarray | None = None,
    t_eval: Sequence[float] | np.ndarray | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> DynamicFluidSolution:
    """Integrate the dynamic fluid system from an arbitrary initial tail.

    ``s0`` is the initial tail (s_1, s_2, …); default is the balanced
    profile of c = m/n balls (useful crash profiles: a point mass,
    i.e. s_i = 1/n for i ≤ m — pass it explicitly).  Conservation of
    Σ s_i is enforced to 1e-6 as a sanity check on the integration.
    """
    d = check_positive_int("d", d)
    if c <= 0:
        raise ValueError(f"c = m/n must be > 0, got {c}")
    if scenario not in ("a", "b"):
        raise ValueError(f"scenario must be 'a' or 'b', got {scenario!r}")
    levels = check_positive_int("levels", levels)
    if s0 is None:
        # Balanced profile: floor(c) full levels plus a fractional one.
        full = int(np.floor(c))
        init = np.zeros(levels)
        init[:full] = 1.0
        if full < levels:
            init[full] = c - full
    else:
        init = np.zeros(levels)
        vals = np.asarray(s0, dtype=np.float64)
        if vals.size > levels:
            raise ValueError(f"s0 longer than levels={levels}")
        init[: vals.size] = np.clip(vals, 0.0, 1.0)
    if abs(init.sum() - c) > 1e-6:
        raise ValueError(
            f"initial tail sums to {init.sum():.6f}, expected c = {c}"
        )

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda _t, s: dynamic_rhs(s, d, c, scenario),
        (0.0, float(t_final)),
        init,
        method="LSODA",
        t_eval=None if t_eval is None else np.asarray(t_eval, dtype=np.float64),
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"dynamic fluid integration failed: {sol.message}")
    traj = sol.y.T
    final_mass = float(np.clip(traj[-1], 0.0, 1.0).sum())
    if abs(final_mass - c) > 1e-3:
        raise RuntimeError(
            f"fluid mass not conserved: ended at {final_mass}, expected {c}"
        )
    return DynamicFluidSolution(
        d=d, c=float(c), scenario=scenario, times=sol.t, trajectory=traj
    )
