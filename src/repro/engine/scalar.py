"""Scalar execution engine: the reference path, with O(1) Fact 3.2 updates and draws.

One Python-level phase at a time over a single normalized load vector.
This engine executes *every* :class:`~repro.engine.spec.ProcessSpec`
(it is the reference the other engines are validated against).  Closed
specs step through one fused loop, :meth:`SpecProcess._advance`, which
every run loop drives in segments and ``step()`` calls for one phase.
The Fact 3.2 updates read the tail counts g[ℓ] = #{j : v_j ≥ ℓ} that
:class:`~repro.balls.process.DynamicAllocationProcess` keeps beside the
loads (O(1) list work each), the run loops draw from one
:class:`~repro.utils.rng.DrawStream` per loop, and each removal law
keeps the fast path the dedicated simulators had:

* :class:`~repro.engine.spec.BallRemoval` — a Fenwick tree over the
  loads maps ball k to its bin in O(log n) (the hot loop of E1/E2/E7);
* :class:`~repro.engine.spec.BinRemoval` — the nonempty bins are
  0 … g[1] − 1, so the ℬ(v) draw is O(1);
* anything else — generic inverse-CDF at a fresh uniform, O(n).

Relocation and open specs keep these fast paths (every move updates
them) but draw at the generic path's uniform u: ball ⌊u·m⌋ as
:func:`~repro.balls.distributions.quantile_removal_a` removes it, or bin
⌊u·s⌋ as ``quantile_removal_b`` does.  Open specs keep their ball
count, so no step sums the loads.

RNG draw order per closed phase: the removal draw (``integers(0, m)``
or ``integers(0, s)`` at ``p_relocate == 0``, else one ``random()``;
one ``random()`` for any other law), then ``rule.select(v, rng)`` (for
ABKU[d]'s own ``select`` inlined as its one ``random()``), then with
relocation the coin ``random() < p`` and, when it lands, the target's
``rule.select``.  This order is bit-compatible with the pre-engine
simulators, so seeded runs of the legacy classes (now thin subclasses)
reproduce their historical trajectories;
:func:`repro.verify.differential.replay_scalar` replays it on a plain
row as the loop's oracle.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro import obs
from repro.balls.load_vector import LoadVector
from repro.balls.process import DynamicAllocationProcess
from repro.balls.rules import ABKURule
from repro.engine.spec import BallRemoval, BinRemoval, ProcessSpec
from repro.utils.fenwick import FenwickTree
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["SpecProcess", "OpenSpecProcess", "ScalarEngine"]

#: ABKU[d]'s own ``select``, which the fused loop inlines (not overrides of it).
_ABKU_SELECT = ABKURule.select


class SpecProcess(DynamicAllocationProcess):
    """Scalar simulator of a closed :class:`ProcessSpec` (one phase = §3.3)."""

    def __init__(
        self,
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        if spec.kind != "closed":
            raise ValueError(
                f"SpecProcess runs closed specs; use OpenSpecProcess for {spec.name!r}"
            )
        if spec.step.synchronous:
            raise ValueError(
                f"SpecProcess runs sequential specs; use "
                f"repro.balls.rbb.RBBProcess for {spec.name!r}"
            )
        super().__init__(state, seed=seed)
        self.spec = spec
        self.rule = spec.rule
        self._obs_name = spec.name
        self._law = spec.removal
        self._bins = isinstance(self._law, BinRemoval)
        self._m = int(self._v.sum())
        self.relocations = 0
        self._sync_derived()

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["relocations"] = self.relocations
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.relocations = int(state.get("relocations", 0))

    def _sync_derived(self) -> None:
        # Build the fast-path mirrors from the loads (at construction
        # and on restore; checkpoints never carry them).  The Fenwick
        # tree follows relocation moves too.
        super()._sync_derived()
        self._fenwick: FenwickTree | None = None
        if isinstance(self._law, BallRemoval):
            self._fenwick = FenwickTree(self._v)

    def _obs_account(self, steps: int) -> None:
        super()._obs_account(steps)
        reg = obs.metrics()
        if self.spec.p_relocate == 0.0:
            if self._fenwick is not None:
                # One find() plus the two ±1 updates mirroring Fact 3.2.
                reg.counter(f"{self._obs_name}.fenwick_ops").inc(3 * steps)
            elif self._bins:
                reg.gauge(f"{self._obs_name}.nonempty_bins").set(self._g[1])

    def step(self) -> None:
        self._advance(1, -1)

    def _advance(self, T: int, target: int) -> int:
        """Up to *T* fused phases over local names; stops after the first
        with max load ≤ *target*; returns the phases executed.

        Each phase: ⊖ at the removal law's draw, ⊕ at the rule's draw,
        then the optional relocation move.  The ⊖/⊕ edits update the
        tail counts and the list loads in place and write the numpy
        loads through, so every phase boundary (and every rule reading
        the loads) sees the live state.  Draws go through ``_rng``
        alone, in the order the module docstring gives.
        """
        rng = self._rng
        rand, integers = rng.random, rng.integers
        v, vl, g, fw = self._v, self._vl, self._g, self._fenwick
        m, n, bins, p = self._m, len(vl), self._bins, self.spec.p_relocate
        relocating = p > 0
        quantile = self._law.quantile
        rule = self.rule
        select = rule.select
        # ABKU[d]'s own select inlined: ⌊n·u^{1/d}⌋ clipped to n − 1, the
        # same float operations, so the same integers.
        abku = getattr(select, "__func__", None) is _ABKU_SELECT
        inv_d = 1.0 / rule.d if abku else 0.0
        done = relocated = 0
        try:
            for done in range(1, T + 1):
                # ⊖ e_i at the removal law's bin (per-law fast path).
                # An integers() draw is only compared or used as an
                # index, so a Generator's numpy int needs no int() here.
                if fw is not None:
                    if relocating:
                        # The generic path's uniform, at quantile_removal_a's ball.
                        i = fw.find(min(int(rand() * m), m - 1))
                    else:
                        i = fw.find(integers(0, m))
                elif bins:
                    s = g[1]  # the nonempty bins are 0 … s − 1
                    if relocating:
                        # The generic path's uniform, at quantile_removal_b's bin.
                        i = min(int(rand() * s), s - 1)
                    else:
                        i = integers(0, s)
                else:
                    i = quantile(v, float(rand()))
                x = vl[i]
                s = g[x] - 1  # Fact 3.2: the last bin of v_i's run
                g[x] = s
                vl[s] = v[s] = x - 1
                if fw is not None:
                    fw.add(s, -1)
                # ⊕ e_i at the rule's bin.
                if abku:
                    i = int(n * rand() ** inv_d)
                    if i >= n:
                        i = n - 1
                else:
                    i = select(v, rng)
                x = vl[i] + 1
                j = g[x]  # Fact 3.2: the first bin of v_i's run
                g[x] = j + 1
                if not j and x + 1 == len(g):
                    g.append(0)  # a new max load: keep g[max + 1] = 0 readable
                vl[j] = v[j] = x
                if fw is not None:
                    fw.add(j, +1)
                # Optional relocation: fullest bin → rule-selected target.
                if relocating and rand() < p:
                    dst = select(v, rng)
                    if vl[0] - vl[dst] >= 2:
                        top = self._decrement_at(0)
                        dst = self._increment_at(dst)
                        if fw is not None:
                            fw.add(top, -1)
                            fw.add(dst, +1)
                        relocated += 1
                if vl[0] <= target:
                    break
        except BaseException:
            done -= 1  # the phase under way when it raised did not finish
            raise
        finally:
            self._t += done
            self.relocations += relocated
        return done


class OpenSpecProcess(DynamicAllocationProcess):
    """Scalar simulator of an open :class:`ProcessSpec` (§7 variable m).

    Each step a fair coin picks: remove one ball by the spec's law
    (no-op on the empty state, matching the paper's "remove a random
    *existing* ball"), or place one ball by the rule (no-op at the
    ``max_balls`` cap when set).  Run, probe and checkpoint plumbing
    come from :class:`~repro.balls.process.DynamicAllocationProcess`;
    the chain probe's recovery target is pinned to the ball count at
    probe creation (open specs have no paper bound step), and a
    restored snapshot keeps that target even though ``m`` has drifted
    since.
    """

    #: Open systems may start (and become) empty.
    _min_balls = 0

    def __init__(
        self,
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        if spec.kind != "open":
            raise ValueError(
                f"OpenSpecProcess runs open specs; use SpecProcess for {spec.name!r}"
            )
        super().__init__(state, seed=seed)
        self.spec = spec
        self.rule = spec.rule
        self.max_balls = spec.max_balls
        self._obs_name = spec.name
        self._law = spec.removal
        self._bins = isinstance(self._law, BinRemoval)
        self._sync_derived()

    def _sync_derived(self) -> None:
        # The ball count (which answers the empty-state and cap tests)
        # and ball removal's Fenwick mirror, rebuilt from the loads.
        super()._sync_derived()
        self._balls = int(self._v.sum())
        self._fenwick = (
            FenwickTree(self._v) if isinstance(self._law, BallRemoval) else None
        )

    def step(self) -> None:
        """One open-system step: fair coin → remove or insert."""
        rng = self._rng
        if rng.random() < 0.5:
            self._remove(float(rng.random()))
        else:
            self._insert(rng)
        self._t += 1

    def _remove(self, u: float) -> None:
        m = self._balls
        if m == 0:
            return  # nothing to remove: no-op, as in the paper's example
        fw = self._fenwick
        if fw is not None:
            # quantile_removal_a's ball ⌊u·m⌋, found in O(log n).
            fw.add(self._decrement_at(fw.find(min(int(u * m), m - 1))), -1)
        elif self._bins:
            # quantile_removal_b's bin ⌊u·s⌋ among the s = g[1] nonempty.
            s = self._g[1]
            self._decrement_at(min(int(u * s), s - 1))
        else:
            self._decrement_at(self._law.quantile(self._v, u))
        self._balls = m - 1

    def _insert(self, rng: np.random.Generator) -> None:
        if self.max_balls is not None and self._balls >= self.max_balls:
            return  # bounded-population variant (§7 first class)
        j = self._increment_at(self.rule.select(self._v, rng))
        if self._fenwick is not None:
            self._fenwick.add(j, +1)
        self._balls += 1

    def _obs_account(self, steps: int) -> None:
        obs.metrics().counter(f"{self._obs_name}.steps").inc(steps)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, m={self.m}, "
            f"spec={self.spec.name!r}, t={self._t})"
        )


class ScalarEngine:
    """The reference engine: executes every spec, one phase at a time."""

    name = "scalar"

    @staticmethod
    def supports(spec: ProcessSpec) -> tuple[bool, str]:
        """Every spec runs on the scalar path (it is the reference)."""
        return True, "reference path"

    @staticmethod
    def make(
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ) -> Union[SpecProcess, OpenSpecProcess, "RBBProcess"]:
        """Instantiate the scalar simulator for *spec* at *state*."""
        if spec.step.synchronous:
            from repro.balls.rbb import RBBProcess

            return RBBProcess(spec, state, seed=seed)
        if spec.kind == "open":
            return OpenSpecProcess(spec, state, seed=seed)
        return SpecProcess(spec, state, seed=seed)

    @staticmethod
    def sample_transitions(
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        draws: int,
        *,
        steps: int = 1,
        seed: SeedLike = None,
    ) -> list[tuple[int, ...]]:
        """Statistical-acceptance hook: *draws* i.i.d. end states.

        Each draw restarts a fresh simulator at *state*, advances it
        *steps* phases, and reads the normalized end state; all draws
        share one RNG stream, so the whole batch is reproducible from
        one seed.  The chi-square battery of :mod:`repro.verify`
        compares these against :meth:`ExactEngine.transition_row`.
        """
        draws = check_positive_int("draws", draws)
        rng = as_generator(seed)
        out: list[tuple[int, ...]] = []
        for _ in range(draws):
            proc = ScalarEngine.make(spec, state, seed=rng)
            proc.run(steps)
            out.append(tuple(int(x) for x in proc.loads))
        return out
