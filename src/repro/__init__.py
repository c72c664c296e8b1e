"""repro — Recovery Time of Dynamic Allocation Processes (SPAA 1998).

A full reproduction of Czumaj's path-coupling framework for bounding
the *recovery time* (mixing time) of dynamic allocation processes,
together with every substrate the paper builds on:

* the balls-into-bins processes I_A / I_B with ABKU[d] and ADAP(χ)
  scheduling rules (:mod:`repro.balls`);
* the edge orientation problem of Ajtai et al. and the carpool
  reduction (:mod:`repro.edgeorient`);
* exact finite-Markov-chain analysis (:mod:`repro.markov`);
* the paper's couplings and the Path Coupling Lemma, with the
  closed-form recovery bounds of Theorem 1, Claim 5.3, Corollary 6.4
  and Theorem 2 (:mod:`repro.coupling`);
* Mitzenmacher's fluid-limit method for the typical state
  (:mod:`repro.fluid`);
* the measurement harness (:mod:`repro.analysis`) and the per-claim
  experiments E1–E16 (:mod:`repro.experiments`).

Quickstart::

    from repro import (LoadVector, ABKURule, ScenarioAProcess,
                       theorem1_bound, coalescence_time_a)

    rule = ABKURule(2)
    crash = LoadVector.all_in_one(100, 100)
    proc = ScenarioAProcess(rule, crash, seed=0)
    proc.run(theorem1_bound(100))          # run for the recovery bound
    print(proc.max_load)                    # back in the typical band
"""

from repro.balls import (
    ABKURule,
    AdaptiveRule,
    LoadVector,
    RelocationProcess,
    ScenarioAProcess,
    ScenarioBProcess,
    SchedulingRule,
    UniformRule,
    make_rule,
    static_allocate,
)
from repro.coupling import (
    RecoveryBounds,
    claim53_bound,
    coalescence_time_a,
    coalescence_time_b,
    coalescence_time_edge,
    corollary64_bound,
    path_coupling_bound,
    path_coupling_bound_zero_rate,
    theorem1_bound,
    theorem2_bound,
)
from repro.edgeorient import CarpoolSimulator, EdgeOrientationProcess
from repro.engine import (
    ExactEngine,
    ProcessSpec,
    ScalarEngine,
    VectorizedEngine,
)
from repro.experiments import run_all, run_experiment

__version__ = "1.0.0"

__all__ = [
    "ABKURule",
    "AdaptiveRule",
    "CarpoolSimulator",
    "EdgeOrientationProcess",
    "ExactEngine",
    "LoadVector",
    "ProcessSpec",
    "ScalarEngine",
    "VectorizedEngine",
    "RecoveryBounds",
    "RelocationProcess",
    "ScenarioAProcess",
    "ScenarioBProcess",
    "SchedulingRule",
    "UniformRule",
    "__version__",
    "claim53_bound",
    "coalescence_time_a",
    "coalescence_time_b",
    "coalescence_time_edge",
    "corollary64_bound",
    "make_rule",
    "path_coupling_bound",
    "path_coupling_bound_zero_rate",
    "run_all",
    "run_experiment",
    "static_allocate",
    "theorem1_bound",
    "theorem2_bound",
]
