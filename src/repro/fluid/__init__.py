"""Mitzenmacher's differential-equation (fluid-limit) method.

The paper positions its coupling technique as the *complement* of
Mitzenmacher's framework: his density-dependent-jump-Markov-process
analysis predicts the typical (stationary) state — e.g. the maximum
load ln ln n / ln d (1 + o(1)) — while path coupling bounds how fast
the process reaches it.  To reproduce the combined story we implement
the fluid limits:

* :mod:`repro.fluid.dynamic_ode` — the dynamic fluid limits of I_A and
  I_B: the static ABKU[d] insertion term s_{i−1}^d − s_i^d (s_i =
  fraction of bins with load ≥ i) plus a removal term per the removal
  model;
* :mod:`repro.fluid.equilibrium` — fixed points of the dynamic systems
  and the predicted stationary max load, compared against simulation in
  experiment E6.
"""

from repro.fluid.dynamic_ode import DynamicFluidSolution, solve_dynamic_fluid
from repro.fluid.equilibrium import (
    fixed_point,
    predicted_max_load_from_tail,
)
from repro.fluid.trajectory import compare_recovery_trajectory, crash_profile

__all__ = [
    "DynamicFluidSolution",
    "fixed_point",
    "predicted_max_load_from_tail",
    "compare_recovery_trajectory",
    "crash_profile",
    "solve_dynamic_fluid",
]
