"""Balls-into-bins substrate: the processes the paper analyzes.

This subpackage implements, from scratch, every allocation process in the
paper (§2):

* :mod:`repro.balls.load_vector` — normalized load vectors and the
  ⊕/⊖ operations of §3.1 (Fact 3.2);
* :mod:`repro.balls.distributions` — the removal distributions 𝒜(v)
  and ℬ(v) (Definitions 3.2, 3.3);
* :mod:`repro.balls.rules` — scheduling rules for placing a new ball:
  uniform, ABKU[d] (Azar–Broder–Karlin–Upfal) and ADAP(χ)
  (Czumaj–Stemann), expressed as right-oriented random functions;
* :mod:`repro.balls.right_oriented` — Definition 3.4 machinery: the
  (RS, ℝS, D̄, 𝒟) quadruple, an executable right-orientedness check
  (Lemma 3.4) and the coupled insertion of Lemma 3.3;
* :mod:`repro.balls.scenario_a` / :mod:`repro.balls.scenario_b` — the
  dynamic processes I_A (remove a uniform ball) and I_B (remove from a
  uniform nonempty bin);
* :mod:`repro.balls.static` — static allocation baselines (the §1
  motivation: max load of uniform vs. ABKU[d]);
* :mod:`repro.balls.open_system` — the §7 open process with a varying
  number of balls;
* :mod:`repro.balls.relocation` — the §7 extension allowing limited
  relocations per step;
* :mod:`repro.balls.rbb` — the synchronous-step Repeated
  Balls-into-Bins process (every nonempty bin releases one ball per
  step; see docs/RBB.md).
"""

from repro.balls.distributions import (
    removal_distribution_a,
    removal_distribution_b,
    sample_removal_a,
    sample_removal_b,
)
from repro.balls.load_vector import LoadVector
from repro.balls.right_oriented import (
    RightOrientedFunction,
    check_right_oriented,
    coupled_insertion,
)
from repro.balls.rbb import RBBProcess
from repro.balls.rules import (
    AdaptiveRule,
    ABKURule,
    RandomWalkRule,
    SchedulingRule,
    UniformRule,
    make_rule,
)
from repro.balls.scenario_a import ScenarioAProcess
from repro.balls.scenario_b import ScenarioBProcess
from repro.balls.static import static_allocate, static_max_load
from repro.balls.relocation import RelocationProcess
from repro.balls.majorization import bottom_state, check_monotone_phase, majorizes, top_state
from repro.balls.custom_removal import (
    CustomRemovalProcess,
    weight_power,
    weight_scenario_a,
    weight_scenario_b,
)

__all__ = [
    "ABKURule",
    "bottom_state",
    "check_monotone_phase",
    "majorizes",
    "top_state",
    "CustomRemovalProcess",
    "weight_power",
    "weight_scenario_a",
    "weight_scenario_b",
    "AdaptiveRule",
    "LoadVector",
    "RandomWalkRule",
    "RBBProcess",
    "RelocationProcess",
    "RightOrientedFunction",
    "ScenarioAProcess",
    "ScenarioBProcess",
    "SchedulingRule",
    "UniformRule",
    "check_right_oriented",
    "coupled_insertion",
    "make_rule",
    "removal_distribution_a",
    "removal_distribution_b",
    "sample_removal_a",
    "sample_removal_b",
    "static_allocate",
    "static_max_load",
]
