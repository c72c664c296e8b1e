"""Spec registry and engine selection.

Central catalogue of the repository's named process specs — one entry
per process in the DESIGN.md inventory — plus the capability matrix
(which engine supports which spec, and why not when it doesn't) that
backs the ``repro engines`` CLI subcommand and the engine-parity tests.

Engine selection by scale: at ``--scale smoke`` experiments stay on the
scalar reference path (deterministic, cheap); at ``--scale paper`` a
replica sweep moves to the vectorized engine whenever the spec
supports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.balls.custom_removal import weight_power
from repro.balls.rules import ABKURule, AdaptiveRule, RandomWalkRule, threshold_chi
from repro.engine.exact import ExactEngine
from repro.engine.scalar import ScalarEngine
from repro.engine.spec import (
    ProcessSpec,
    custom_removal_spec,
    open_spec,
    rbb_spec,
    rbb_twochoice_spec,
    rbb_uniform_spec,
    relocation_spec,
    scenario_a_spec,
    scenario_b_spec,
)
from repro.engine.vectorized import VectorizedEngine

__all__ = [
    "ENGINES",
    "SpecEntry",
    "register_spec",
    "registered_specs",
    "spec_entries",
    "engine_support",
    "batched_kernel",
    "engine_for",
]

#: The pluggable engines, in preference order for replica sweeps.
ENGINES = (ScalarEngine, VectorizedEngine, ExactEngine)


@dataclass(frozen=True)
class SpecEntry:
    """A registered spec: a factory (specs hold rule instances, so they
    are built fresh per request) plus a human description."""

    name: str
    build: Callable[[], ProcessSpec]
    description: str = ""


_REGISTRY: dict[str, SpecEntry] = {}


def register_spec(
    name: str,
    build: Callable[[], ProcessSpec],
    *,
    description: str = "",
) -> None:
    """Register a named spec factory (overwrites an existing name)."""
    _REGISTRY[name] = SpecEntry(name, build, description)


def spec_entries() -> dict[str, SpecEntry]:
    """All registered entries, keyed by name (insertion-ordered copy)."""
    return dict(_REGISTRY)


def registered_specs() -> dict[str, ProcessSpec]:
    """Freshly built specs for every registered name."""
    return {name: entry.build() for name, entry in _REGISTRY.items()}


def engine_support(spec: ProcessSpec) -> dict[str, tuple[bool, str]]:
    """Capability matrix row: engine name → (supported, reason)."""
    return {engine.name: engine.supports(spec) for engine in ENGINES}


def batched_kernel(spec: ProcessSpec) -> tuple[bool, str]:
    """The segment kernel *spec*'s vectorized fleets run on (``repro engines``).

    Returns ``(vectorizable, how)``.  Every vectorized ``step``, ``run``
    and ``recovery_times`` call runs through the same kernels, which
    differ by step shape: closed/open sequential specs advance on one
    pre-drawn RNG slab with fused ⊕/⊖ passes, while synchronous (RBB)
    specs keep their per-step scatter draw — its size Σ s_r is
    state-dependent, so only the Python dispatch is batched.  For a
    rejected spec *how* is the vectorized engine's reason.
    """
    ok, why = VectorizedEngine.supports(spec)
    if not ok:
        return False, why
    if spec.step.synchronous:
        return True, "per-step scatter (state-dependent draw size)"
    if spec.kind == "closed":
        return True, "fused slab (pre-drawn RNG, fused ⊕/⊖)"
    return True, "open slab (pre-drawn RNG, per-step kernel)"


def engine_for(spec: ProcessSpec, scale: str, *, replicas: int = 1):
    """Pick the execution engine for *spec* at a scale preset.

    Smoke runs stay on the scalar reference path.  At paper scale a
    multi-replica sweep moves to the vectorized engine when the spec
    supports it; otherwise (ADAP(χ) and friends) scalar remains.

    The chosen engine's ``supports`` verdict is asserted at *every*
    scale — an unsupported spec raises with the engine's rejection
    reason instead of silently running on a path that cannot execute
    it.
    """
    if scale == "paper" and replicas > 1 and VectorizedEngine.supports(spec)[0]:
        return VectorizedEngine
    ok, why = ScalarEngine.supports(spec)
    if not ok:
        raise ValueError(
            f"no engine supports spec {spec.name!r} at scale {scale!r}: {why}"
        )
    return ScalarEngine


# ---------------------------------------------------------------------------
# Default catalogue: the DESIGN.md process inventory as specs
# ---------------------------------------------------------------------------

register_spec(
    "scenario_a",
    lambda: scenario_a_spec(ABKURule(2)),
    description="I_A (§4): remove uniform ball, place ABKU[2]",
)
register_spec(
    "scenario_b",
    lambda: scenario_b_spec(ABKURule(2)),
    description="I_B (§5): remove from uniform nonempty bin, place ABKU[2]",
)
register_spec(
    "scenario_a_adap",
    lambda: scenario_a_spec(
        AdaptiveRule(threshold_chi(1, 3, 2), name="adap[1|3@2]"),
        name="scenario_a_adap",
    ),
    description="I_A with ADAP(χ): adaptive sequential sampling (§2)",
)
register_spec(
    "open_ball",
    lambda: open_spec(ABKURule(2), removal="ball", max_balls=6),
    description="§7 open system, scenario-A removal, capped population",
)
register_spec(
    "open_bin",
    lambda: open_spec(ABKURule(2), removal="bin", max_balls=6),
    description="§7 open system, scenario-B removal, capped population",
)
register_spec(
    "relocation",
    lambda: relocation_spec(ABKURule(2), scenario="a", p_relocate=0.5),
    description="§7 relocation: closed phase + conditional fullest→target move",
)
register_spec(
    "custom_pressure",
    lambda: custom_removal_spec(
        ABKURule(2), weight_power(2.0), name="custom_pressure"
    ),
    description="§7 generalized removal w(ℓ)=ℓ², place ABKU[2]",
)
register_spec(
    "rbb_uniform",
    lambda: rbb_uniform_spec(),
    description="Repeated Balls-into-Bins: synchronous release, uniform re-place",
)
register_spec(
    "rbb_twochoice",
    lambda: rbb_twochoice_spec(),
    description="RBB with parallel two-choice re-placement (ABKU[2])",
)
register_spec(
    "rbb_walk",
    lambda: rbb_spec(RandomWalkRule.cycle(2), name="rbb_walk"),
    description="RBB with Frieze–Petti walk placement: ring C_n, capacity 2",
)
