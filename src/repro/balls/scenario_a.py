"""Scenario A: remove a uniformly random *ball*, then place a new one (§2, §4).

One phase of the process I_A:

1. remove a ball chosen i.u.r. among the m balls — in normalized
   coordinates, decrement bin i drawn from 𝒜(v) (Pr[i] = v_i / m), then
   re-normalize (Fact 3.2);
2. place a new ball at the index selected by the scheduling rule
   (ABKU[d] gives I_A-ABKU[d], ADAP(χ) gives I_A-ADAP(χ)).

Theorem 1 of the paper: for any right-oriented rule the mixing /
recovery time is τ(ε) = ⌈m·ln(m/ε)⌉.

The process is declared as a :func:`repro.engine.spec.scenario_a_spec`
and executed by the scalar engine, which keeps a Fenwick tree over the
loads so the 𝒜(v) draw is O(log n) per phase, and both Fact 3.2
updates O(1) — this is the hot loop of experiments E1/E2/E7.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.balls.load_vector import LoadVector
from repro.balls.rules import SchedulingRule
from repro.engine.scalar import SpecProcess
from repro.engine.spec import scenario_a_spec
from repro.utils.rng import SeedLike

__all__ = ["ScenarioAProcess"]


class ScenarioAProcess(SpecProcess):
    """Stateful simulator of I_A with an arbitrary scheduling rule.

    A thin wrapper constructing the I_A spec for the scalar engine.
    Observability: phases, RNG draws, Fact 3.2 and Fenwick update
    counts appear under the ``scenario_a.*`` metrics when
    :mod:`repro.obs` is enabled (accounted in bulk per ``run()``).
    """

    def __init__(
        self,
        rule: SchedulingRule,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        super().__init__(scenario_a_spec(rule), state, seed=seed)
