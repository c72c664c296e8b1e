"""Declarative process specifications: one definition, every engine.

The paper's framework (§3.3) treats every dynamic allocation process as
a single abstract shape: a *removal law* (which normalized bin loses a
ball) plus a *scheduling rule* (where the new ball goes) iterated over a
normalized load vector.  A :class:`ProcessSpec` captures exactly that
shape — removal law, placement rule, and a state-space descriptor
(closed Ω_m / open ⋃Ω_k, optional population cap, optional relocation
move) — so the scalar, vectorized and exact engines in this package can
all execute the *same* declaration instead of three parallel
reimplementations.

Removal laws are reified with three access paths, mirroring how the
paper's distributions are consumed across the codebase:

* ``pmf(v)`` — the exact distribution (exact kernels, faithfulness
  checks);
* ``quantile(v, u)`` — inverse-CDF at a uniform (scalar simulators and
  the shared-uniform grand coupling of :mod:`repro.coupling.grand`);
* ``quantile_batch(V, u)`` — the same inversion over an (R, n) matrix
  of replicas at once (the vectorized engine), and
  ``quantile_batch_into``, the same indices found by whole-fleet
  binary searches for the batched kernels.

:class:`BallRemoval` is 𝒜(v) (Definition 3.2), :class:`BinRemoval` is
ℬ(v) (Definition 3.3), and :class:`WeightedRemoval` is the §7
generalization w(ℓ) — which subsumes both (w(ℓ)=ℓ → 𝒜, w(ℓ)=1[ℓ>0] →
ℬ) but keeps them as dedicated classes so the engines can use their
O(log n) / closed-form fast paths.

A spec also carries a *step shape* (:class:`StepLaw`):

* :class:`SequentialStep` — the paper's §3.3 phase: one removal draw,
  one placement draw (bit-for-bit today's semantics and RNG order);
* :class:`SynchronousStep` — the Repeated Balls-into-Bins shape
  (Becchetti et al.; Los–Sauerwald): every nonempty bin releases one
  ball, and all released balls re-place *in parallel*, each drawing
  i.i.d. from the rule's insertion distribution evaluated on the
  post-release state.  For load-independent rules (uniform, ABKU[d])
  the whole scatter is one multinomial draw, which is what the
  vectorized engine exploits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from repro.balls.distributions import (
    quantile_removal_a,
    quantile_removal_b,
    removal_distribution_a,
    removal_distribution_b,
)
from repro.balls.rules import SchedulingRule
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "RemovalLaw",
    "BallRemoval",
    "BinRemoval",
    "WeightedRemoval",
    "StepLaw",
    "SequentialStep",
    "SynchronousStep",
    "ProcessSpec",
    "scenario_a_spec",
    "scenario_b_spec",
    "custom_removal_spec",
    "open_spec",
    "relocation_spec",
    "rbb_spec",
    "rbb_uniform_spec",
    "rbb_twochoice_spec",
]


# ---------------------------------------------------------------------------
# Step shapes
# ---------------------------------------------------------------------------

class StepLaw(ABC):
    """The *shape* of one step: how removals and placements interleave.

    Step laws are stateless markers with value semantics (two instances
    of the same class are equal), so frozen specs that differ only in
    construction site still hash and compare consistently.
    """

    name: str = "step"

    @property
    @abstractmethod
    def synchronous(self) -> bool:
        """Whether the step releases/places in parallel (RBB shape)."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SequentialStep(StepLaw):
    """The paper's §3.3 phase: one removal draw, then one placement draw.

    This is exactly today's semantics — engines keep their legacy RNG
    draw order bit-for-bit under this shape.
    """

    name = "sequential"

    @property
    def synchronous(self) -> bool:
        return False


class SynchronousStep(StepLaw):
    """Repeated Balls-into-Bins: parallel release + parallel re-placement.

    One step from state v: (1) every nonempty bin releases one ball,
    w = v − 1[v > 0]; (2) the s = #nonempty released balls each draw an
    i.i.d. normalized insertion index from ``rule.insertion_distribution``
    evaluated on the *post-release* state w; (3) the new state is the
    descending re-sort of w plus the scatter counts.

    For load-independent rules the insertion pmf q does not depend on
    w, so the scatter is exactly Multinomial(s, q) — one vectorizable
    draw per step.  This matches uniform RBB (i.i.d. uniform bin
    choices) and the parallel d-choice variant (each ball's normalized
    index is the max of d uniform indices; the engines agree on this
    law exactly, which the parity battery checks against the exact
    kernel).
    """

    name = "synchronous"

    @property
    def synchronous(self) -> bool:
        return True


#: Shared default so every existing call site keeps its sequential shape.
SEQUENTIAL = SequentialStep()
SYNCHRONOUS = SynchronousStep()


# ---------------------------------------------------------------------------
# Removal laws
# ---------------------------------------------------------------------------

class RemovalLaw(ABC):
    """A removal distribution over normalized bin indices.

    Implementations must agree across the three access paths: for any
    state v, ``quantile(v, u)`` must invert the CDF of ``pmf(v)``, and
    ``quantile_batch`` must equal row-wise ``quantile`` (the engine
    parity tests enforce this).  ``batchable`` advertises whether
    ``quantile_batch`` exists — laws that need sequential sampling can
    set it False and stay scalar-only.
    """

    name: str = "removal"
    batchable: bool = True
    #: Whether :meth:`quantile_batch_into` reads the fleet's block sums,
    #: which the batched kernels then keep in step with every edit.
    block_sums: bool = False

    @abstractmethod
    def pmf(self, v: np.ndarray) -> np.ndarray:
        """Exact removal pmf over normalized indices 0..n-1."""

    @abstractmethod
    def quantile(self, v: np.ndarray, u: float) -> int:
        """Inverse-CDF of ``pmf(v)`` at u ∈ [0, 1)."""

    def quantile_batch(self, V: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Row-wise ``quantile`` over an (R, n) load matrix at u of shape (R,).

        Every row must admit a removal (positive total weight); the
        engines mask empty rows out before calling.
        """
        raise NotImplementedError(f"{self.name} has no vectorized quantile")

    def quantile_batch_into(
        self,
        V: np.ndarray,
        u: np.ndarray,
        fleet,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """``quantile_batch`` for the batched hot loop, searching the whole fleet.

        Returns ``quantile_batch(V[rows], u)`` (``rows`` None: every
        row) without copying rows out of *V*.  *fleet* is the caller's
        :class:`~repro.engine.vectorized.FleetSearch` scratch for *V*,
        whose search key and block sums must be current.  Must return
        exactly the indices of :meth:`quantile_batch` — the differential
        harness pins the kernels bitwise to a row-by-row replay through
        :meth:`quantile`, so implementations may only change *how* the
        indices are found, never their values.  The base class falls
        back to the allocating path.
        """
        return self.quantile_batch(V if rows is None else V[rows], u)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BallRemoval(RemovalLaw):
    """𝒜(v): remove a uniformly random ball — Pr[i] = v_i / m (Def 3.2)."""

    name = "ball"
    block_sums = True

    def pmf(self, v: np.ndarray) -> np.ndarray:
        return removal_distribution_a(v)

    def quantile(self, v: np.ndarray, u: float) -> int:
        return quantile_removal_a(v, u)

    def quantile_batch(self, V: np.ndarray, u: np.ndarray) -> np.ndarray:
        # Ball ⌊u·m⌋ of each row; the bin holding it is the row-wise
        # inverse CDF of the loads (counting comparison on the cumsum).
        m = V.sum(axis=1)
        targets = np.minimum((u * m).astype(np.int64), m - 1)
        csum = np.cumsum(V, axis=1)
        return (csum <= targets[:, None]).sum(axis=1)

    def quantile_batch_into(
        self,
        V: np.ndarray,
        u: np.ndarray,
        fleet,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        # Ball ⌊u·m⌋ of each row through the fleet's block sums (see
        # FleetSearch.ball_bins): no O(R·n) pass.  The float product
        # u·m is quantile_batch's, so the indices are bitwise.
        m = fleet.totals(rows)
        targets = np.minimum((u * m).astype(np.int64), m - 1)
        return fleet.ball_bins(V, rows, targets)


class BinRemoval(RemovalLaw):
    """ℬ(v): remove from a uniform nonempty bin — Pr[i] = 1/s, i < s (Def 3.3)."""

    name = "bin"

    def pmf(self, v: np.ndarray) -> np.ndarray:
        return removal_distribution_b(v)

    def quantile(self, v: np.ndarray, u: float) -> int:
        return quantile_removal_b(v, u)

    def quantile_batch(self, V: np.ndarray, u: np.ndarray) -> np.ndarray:
        # Nonempty bins are exactly indices 0..s-1 in normalized rows.
        s = (V > 0).sum(axis=1)
        return np.minimum((u * s).astype(np.int64), s - 1)

    def quantile_batch_into(
        self,
        V: np.ndarray,
        u: np.ndarray,
        fleet,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        # s = #{V ≥ 1} for every row is one search over the fleet key —
        # no O(R·n) mask or count pass.
        first = fleet.first(rows)
        s = np.searchsorted(fleet.key, fleet.needles(rows, 1), side="right") - first
        return np.minimum((u * s).astype(np.int64), s - 1)


class WeightedRemoval(RemovalLaw):
    """The §7 generalized law: Pr[i] ∝ w(v_i), never removing from empty bins.

    ``weight`` maps a load ℓ ≥ 0 to a non-negative weight (see
    :mod:`repro.balls.custom_removal` for the paper's examples:
    w(ℓ)=ℓ^γ pressure removal, and the 𝒜/ℬ special cases).
    """

    def __init__(self, weight: Callable[[int], float], *, name: str = "weighted"):
        self.weight = weight
        self.name = name

    def pmf(self, v: np.ndarray) -> np.ndarray:
        from repro.balls.custom_removal import removal_pmf_from_weights

        return removal_pmf_from_weights(v, self.weight)

    def quantile(self, v: np.ndarray, u: float) -> int:
        i = int(np.searchsorted(np.cumsum(self.pmf(v)), u, side="right"))
        return min(i, v.shape[0] - 1)

    def quantile_batch(self, V: np.ndarray, u: np.ndarray) -> np.ndarray:
        # Loads are small ints, so evaluate w on the distinct values
        # only and gather — keeps arbitrary Python weight functions off
        # the (R, n) hot path.
        vals, inv = np.unique(V, return_inverse=True)
        wtab = np.array([self.weight(int(x)) for x in vals], dtype=np.float64)
        if (wtab < 0).any():
            raise ValueError("weights must be non-negative")
        wtab[vals == 0] = 0.0
        W = wtab[inv].reshape(V.shape)
        total = W.sum(axis=1)
        if (total <= 0).any():
            raise ValueError("no bin has positive removal weight")
        csum = np.cumsum(W, axis=1)
        idx = (csum <= (u * total)[:, None]).sum(axis=1)
        return np.minimum(idx, V.shape[1] - 1)

    def __repr__(self) -> str:
        return f"WeightedRemoval(name={self.name!r})"


# ---------------------------------------------------------------------------
# Process specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a dynamic allocation process (§3.3).

    * ``kind='closed'`` — one phase = remove one ball (by ``removal``),
      place one ball (by ``rule``); the ball count is invariant (Ω_m).
    * ``kind='open'`` — the §7 open system: each step a fair coin picks
      a removal attempt (no-op on the empty state) or an insertion
      attempt (no-op at the ``max_balls`` cap, if set); the state space
      is ⋃_k Ω_k.
    * ``p_relocate`` — the §7 relocation extension: after a closed
      phase, with this probability move one ball from the fullest bin
      to a rule-selected target when that strictly improves balance
      (load gap ≥ 2).
    * ``step`` — the step shape: :class:`SequentialStep` (default,
      everything above) or :class:`SynchronousStep` (RBB: every
      nonempty bin releases one ball per step and the released balls
      re-place in parallel by ``rule``; ``removal`` is nominal and
      unused — the release set is determined by the state).

    Specs are frozen (hashable) so engines and registries can treat
    them as values; use :func:`dataclasses.replace` to derive variants.
    """

    name: str
    rule: SchedulingRule
    removal: RemovalLaw
    kind: Literal["closed", "open"] = "closed"
    max_balls: int | None = None
    p_relocate: float = 0.0
    step: StepLaw = SEQUENTIAL

    def __post_init__(self) -> None:
        if self.kind not in ("closed", "open"):
            raise ValueError(f"kind must be 'closed' or 'open', got {self.kind!r}")
        object.__setattr__(
            self, "p_relocate", check_probability("p_relocate", self.p_relocate)
        )
        if self.max_balls is not None:
            check_positive_int("max_balls", self.max_balls)
            if self.kind != "open":
                raise ValueError("max_balls only applies to open specs")
        if self.p_relocate > 0 and self.kind != "closed":
            raise ValueError("relocation only applies to closed specs")
        if not isinstance(self.step, StepLaw):
            raise TypeError(f"step must be a StepLaw, got {self.step!r}")
        if self.step.synchronous:
            if self.kind != "closed":
                raise ValueError("synchronous steps require a closed system")
            if self.p_relocate > 0:
                raise ValueError(
                    "relocation is not defined for synchronous steps"
                )

    def describe(self) -> str:
        """One-line human description (used by the ``repro engines`` CLI)."""
        bits = [f"{self.kind}", f"step={self.step.name}",
                f"removal={self.removal.name}", f"rule={self.rule.name}"]
        if self.step.synchronous:
            # The removal law is nominal under the synchronous shape.
            bits.remove(f"removal={self.removal.name}")
        if self.max_balls is not None:
            bits.append(f"cap={self.max_balls}")
        if self.p_relocate > 0:
            bits.append(f"p_relocate={self.p_relocate}")
        return ", ".join(bits)


# ---------------------------------------------------------------------------
# Spec builders for the paper's named processes
# ---------------------------------------------------------------------------

def scenario_a_spec(rule: SchedulingRule, *, name: str = "scenario_a") -> ProcessSpec:
    """I_A (§4): remove a uniform ball, place by *rule*."""
    return ProcessSpec(name, rule, BallRemoval())


def scenario_b_spec(rule: SchedulingRule, *, name: str = "scenario_b") -> ProcessSpec:
    """I_B (§5): remove from a uniform nonempty bin, place by *rule*."""
    return ProcessSpec(name, rule, BinRemoval())


def custom_removal_spec(
    rule: SchedulingRule,
    weight: Callable[[int], float],
    *,
    name: str = "custom_removal",
) -> ProcessSpec:
    """The §7 generalized-removal process: remove by w(ℓ), place by *rule*."""
    return ProcessSpec(name, rule, WeightedRemoval(weight, name=f"w({name})"))


def open_spec(
    rule: SchedulingRule,
    *,
    removal: Literal["ball", "bin"] = "ball",
    max_balls: int | None = None,
    name: str | None = None,
) -> ProcessSpec:
    """The §7 open system: ½ remove / ½ insert, optionally population-capped."""
    if removal not in ("ball", "bin"):
        raise ValueError(f"removal must be 'ball' or 'bin', got {removal!r}")
    law = BallRemoval() if removal == "ball" else BinRemoval()
    return ProcessSpec(
        name or f"open_{removal}", rule, law, kind="open", max_balls=max_balls
    )


def relocation_spec(
    rule: SchedulingRule,
    *,
    scenario: Literal["a", "b"] = "a",
    p_relocate: float = 0.5,
    name: str = "relocation",
) -> ProcessSpec:
    """The §7 relocation extension over the scenario-A or -B removal law."""
    if scenario not in ("a", "b"):
        raise ValueError(f"scenario must be 'a' or 'b', got {scenario!r}")
    law = BallRemoval() if scenario == "a" else BinRemoval()
    return ProcessSpec(name, rule, law, p_relocate=p_relocate)


def rbb_spec(rule: SchedulingRule, *, name: str = "rbb") -> ProcessSpec:
    """Repeated Balls-into-Bins with an arbitrary placement *rule*.

    The removal slot is filled with :class:`BinRemoval` purely as a
    nominal value — under :class:`SynchronousStep` the release set is
    the nonempty bins, not a sampled law.
    """
    return ProcessSpec(name, rule, BinRemoval(), step=SYNCHRONOUS)


def rbb_uniform_spec(*, name: str = "rbb_uniform") -> ProcessSpec:
    """Uniform RBB (Becchetti et al.): released balls re-place u.a.r."""
    from repro.balls.rules import UniformRule

    return rbb_spec(UniformRule(), name=name)


def rbb_twochoice_spec(*, name: str = "rbb_twochoice") -> ProcessSpec:
    """Parallel two-choice RBB: each released ball takes the better of 2."""
    from repro.balls.rules import ABKURule

    return rbb_spec(ABKURule(2), name=name)
