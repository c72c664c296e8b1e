"""Pluggable execution engines over declarative process specs.

The §3.3 abstraction — a removal law plus a placement rule iterated
over a normalized load vector — is declared once as a
:class:`~repro.engine.spec.ProcessSpec` and executed by any of three
engines:

* :class:`~repro.engine.scalar.ScalarEngine` — one phase at a time
  (O(1) Fact 3.2 updates and draws); the reference path every spec
  supports;
* :class:`~repro.engine.vectorized.VectorizedEngine` — an (R, n)
  whole-array stepper for every spec whose rule has an
  inverse-transform insertion law (ABKU[d]; ADAP(χ) is rejected with a
  reason);
* :class:`~repro.engine.exact.ExactEngine` — dense transition kernels
  over enumerated partitions for small instances.

Specs also carry a *step shape* (:class:`~repro.engine.spec.StepLaw`):
the sequential §3.3 phase, or the synchronous Repeated Balls-into-Bins
step (every nonempty bin releases one ball; parallel re-placement) —
all three engines execute both shapes.

See ``docs/ENGINES.md`` for the spec/engine contract and how to add a
new process in one file; ``docs/RBB.md`` for the synchronous family;
``python -m repro engines`` prints the capability matrix.
"""

from repro.engine.exact import ExactEngine
from repro.engine.registry import (
    ENGINES,
    SpecEntry,
    engine_for,
    engine_support,
    register_spec,
    registered_specs,
    spec_entries,
)
from repro.engine.scalar import OpenSpecProcess, ScalarEngine, SpecProcess
from repro.engine.spec import (
    BallRemoval,
    BinRemoval,
    ProcessSpec,
    RemovalLaw,
    SequentialStep,
    StepLaw,
    SynchronousStep,
    WeightedRemoval,
    custom_removal_spec,
    open_spec,
    rbb_spec,
    rbb_twochoice_spec,
    rbb_uniform_spec,
    relocation_spec,
    scenario_a_spec,
    scenario_b_spec,
)
from repro.engine.vectorized import VectorizedEngine, VectorizedProcess

__all__ = [
    "ENGINES",
    "BallRemoval",
    "BinRemoval",
    "ExactEngine",
    "OpenSpecProcess",
    "ProcessSpec",
    "RemovalLaw",
    "ScalarEngine",
    "SequentialStep",
    "SpecEntry",
    "SpecProcess",
    "StepLaw",
    "SynchronousStep",
    "VectorizedEngine",
    "VectorizedProcess",
    "WeightedRemoval",
    "custom_removal_spec",
    "engine_for",
    "engine_support",
    "open_spec",
    "rbb_spec",
    "rbb_twochoice_spec",
    "rbb_uniform_spec",
    "register_spec",
    "registered_specs",
    "relocation_spec",
    "scenario_a_spec",
    "scenario_b_spec",
    "spec_entries",
]
