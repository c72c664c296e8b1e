"""Common driver machinery for dynamic allocation processes.

A *dynamic allocation process* (§3.3) repeats a phase of (remove one
ball, place one ball with a scheduling rule).  This module provides the
stateful simulator base class shared by scenario A
(:class:`repro.balls.scenario_a.ScenarioAProcess`), scenario B
(:class:`repro.balls.scenario_b.ScenarioBProcess`) and the §7 variants.

Simulators own a normalized load array and mutate it in place via the
Fact 3.2 primitives, which read two Python-list mirrors kept beside it:
the loads, and the tail counts g[ℓ] = #{j : v_j ≥ ℓ} (the tail profile
:mod:`repro.fluid` integrates).  ``v ⊖ e_i`` decrements position
g[v_i] − 1 and ``v ⊕ e_i`` increments position g[v_i + 1], so each
update is O(1) list work.  Every run loop drives one stepping path,
``_advance(T, target)``, in segments cut at its probe or recording
boundaries, and draws from one :class:`~repro.utils.rng.DrawStream` per
loop.  Simulators expose:

* ``step()`` — one phase;
* ``run(steps)`` — many phases;
* ``trajectory(steps, stat, every)`` — record a statistic along the run;
* ``run_until(target_max_load, max_steps)`` — run to the first phase
  with max load ≤ the target;
* ``state`` — a defensive :class:`~repro.balls.load_vector.LoadVector`
  snapshot.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Callable, Union

import numpy as np

from repro import obs
from repro.balls.load_vector import LoadVector, count_above
from repro.utils.rng import SeedLike, as_generator, draw_stream
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = ["DynamicAllocationProcess", "StatFn", "max_load_stat", "nonempty_stat"]

StatFn = Callable[[np.ndarray], float]

#: Loops of at most this many phases keep drawing from the Generator:
#: setting up a draw stream costs more than it saves on so few draws.
_SHORT_LOOP = 8


def max_load_stat(v: np.ndarray) -> float:
    """Statistic: maximum load (v₁ — the paper's headline measure)."""
    return float(v[0])


def nonempty_stat(v: np.ndarray) -> float:
    """Statistic: number of nonempty bins."""
    return float(count_above(v, 0))


class DynamicAllocationProcess(ABC):
    """Stateful simulator of a remove-then-place allocation process.

    Observability (``repro.obs``) is accounted at *run granularity*:
    ``run``/``trajectory``/``run_until`` check :func:`repro.obs.enabled`
    once and, when on, count phases / RNG draws / Fact 3.2 updates in
    bulk and time the sweep under a span — the stepping path
    (:meth:`_advance`) stays untouched, so the disabled overhead is one
    boolean per call.

    Each run loop of more than a few phases of a ``_streamed`` simulator
    swaps ``_rng`` for a :func:`~repro.utils.rng.draw_stream` and closes
    it when the loop ends, however it ends; a phase draws from whichever
    ``_rng`` holds, so the same seed gives the same trajectory and the
    same final generator state in or out of a loop.
    """

    #: Metric/series prefix; subclasses override ("scenario_a", ...).
    _obs_name = "process"
    #: RNG draws one phase consumes (subclass accounting hint).
    _obs_rng_per_phase = 2
    #: Fewest balls a start state may hold (closed phases remove one first).
    _min_balls = 1
    #: Whether run loops draw from a :class:`~repro.utils.rng.DrawStream`
    #: (a simulator whose steps draw only what a stream hands back to the
    #: Generator opts out).
    _streamed = True

    def __init__(
        self,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        if isinstance(state, LoadVector):
            v = state.loads.copy()
        else:
            v = LoadVector(state).loads.copy()
        if int(v.sum()) < self._min_balls:
            raise ValueError("dynamic processes need at least one ball to remove")
        self._v = v
        self._rng = as_generator(seed)
        self._t = 0

    # -- state access --------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of bins."""
        return int(self._v.shape[0])

    @property
    def m(self) -> int:
        """Current number of balls."""
        return int(self._v.sum())

    @property
    def t(self) -> int:
        """Number of phases executed so far."""
        return self._t

    @property
    def state(self) -> LoadVector:
        """A defensive snapshot of the current normalized state."""
        return LoadVector(self._v.copy(), normalize=False)

    @property
    def loads(self) -> np.ndarray:
        """Live view of the internal descending load array (read-only use)."""
        return self._v

    @property
    def max_load(self) -> int:
        """Current maximum load."""
        return int(self._v[0])

    # -- mutation primitives shared by subclasses -----------------------------

    def _decrement_at(self, i: int) -> int:
        """Apply ``v ⊖ e_i`` in place; returns the touched position.

        Fact 3.2: the last bin of v_i's run, s = #{t : v_t ≥ v_i} − 1.
        """
        x = self._vl[i]
        s = self._g[x] - 1
        self._g[x] = s
        self._vl[s] = self._v[s] = x - 1
        return s

    def _increment_at(self, i: int) -> int:
        """Apply ``v ⊕ e_i`` in place; returns the touched position.

        Fact 3.2: the first bin of v_i's run, j = #{t : v_t > v_i}.
        """
        g = self._g
        x = self._vl[i] + 1
        j = g[x]
        g[x] = j + 1
        if x + 1 == len(g):
            g.append(0)  # a new max load: keep g[max + 1] = 0 readable
        self._vl[j] = self._v[j] = x
        return j

    # -- observability ---------------------------------------------------------

    def _obs_account(self, steps: int) -> None:
        """Bulk-count the cost of *steps* phases (only called when enabled)."""
        reg = obs.metrics()
        name = self._obs_name
        reg.counter(f"{name}.phases").inc(steps)
        reg.counter(f"{name}.rng_draws").inc(steps * self._obs_rng_per_phase)
        reg.counter("fact32.updates").inc(2 * steps)

    def _get_probe(self):
        """The lazily built per-step chain probe (observed runs only).

        Constructed once per process with a max-load recovery monitor
        against the spec's paper envelope
        (:func:`repro.obs.probes.recovery_bound`); only reached from
        inside the ``obs.enabled()`` branch when ``probe_interval() >
        0``, so the probes-off path never pays the import.
        """
        probe = getattr(self, "_chain_probe", None)
        if probe is None:
            from repro.obs.probes import ChainProbe, max_load_recovery_monitor

            series = f"{self._obs_name}/chain"
            monitor = max_load_recovery_monitor(series, self.spec, self.n, self.m)
            probe = ChainProbe(series, monitors=(monitor,))
            self._chain_probe = probe
        return probe

    # -- checkpoint/resume -----------------------------------------------------

    def state_dict(self) -> dict:
        """Full simulator state for checkpoint/resume.

        Captures the load array, the RNG's ``bit_generator.state``, the
        step count, and — when the lazily built chain probe exists —
        its streaming-estimator and monitor state.  Derived fast-path
        mirrors (list loads, tail counts, Fenwick tree) are *not*
        captured; they are rebuilt from the loads on :meth:`load_state`.
        """
        state: dict = {
            "loads": self._v.copy(),
            "rng": self._rng.bit_generator.state,
            "t": self._t,
        }
        probe = getattr(self, "_chain_probe", None)
        if probe is not None:
            state["probe"] = probe.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this simulator.

        The simulator must have been constructed for the same spec and
        shape (same n); resuming then continues the exact trajectory of
        the checkpointed run, RNG stream included.
        """
        v = np.asarray(state["loads"], dtype=np.int64)
        if v.shape != self._v.shape:
            raise ValueError(
                f"checkpoint has n={v.shape[0]}, process has n={self._v.shape[0]}"
            )
        self._v[:] = v
        self._rng.bit_generator.state = state["rng"]
        self._t = int(state["t"])
        self._sync_derived()
        if "probe" in state:
            self._get_probe().load_state(state["probe"])

    def _sync_derived(self) -> None:
        """Rebuild the fast-path mirrors of the load array.

        The list loads and the tail counts g, where g[ℓ] = #{j : v_j ≥ ℓ}
        for ℓ = 0 … max + 1 (so g[0] = n, g[1] is the nonempty count
        and g[max + 1] = 0).  Subclasses extend this with their own
        mirrors and call it once their state is set up.
        """
        self._vl = vl = self._v.tolist()
        g = [0] * (vl[0] + 2)  # vl[0] is the max load
        for x in vl:
            g[x] += 1
        for level in range(len(g) - 2, -1, -1):
            g[level] += g[level + 1]
        self._g = g

    def _open_stream(self, steps: int):
        """Swap ``_rng`` for a draw stream for a loop of up to *steps* phases.

        Returns the Generator, for :meth:`_close_stream` to put back.
        """
        gen = self._rng
        if self._streamed and steps > _SHORT_LOOP:
            self._rng = draw_stream(gen)
        return gen

    def _close_stream(self, gen) -> None:
        """End the loop :meth:`_open_stream` began: close its stream, restore *gen*."""
        stream, self._rng = self._rng, gen
        if stream is not gen:
            stream.close()

    # -- the process ----------------------------------------------------------

    @abstractmethod
    def step(self) -> None:
        """Execute one phase (remove one ball, place one ball)."""

    def _advance(self, T: int, target: int) -> int:
        """Execute up to *T* phases, stopping after the first whose max load
        is at most *target*; returns the phases executed.

        The one stepping path every run loop drives (a *target* below 0
        never stops it).  This default steps :meth:`step`; a simulator
        with a fused loop overrides it, and its ``step()`` is then
        ``_advance(1, -1)``.
        """
        step, v = self.step, self._v
        if target < 0:
            for _ in range(T):
                step()
            return T
        for k in range(1, T + 1):
            step()
            if v[0] <= target:
                return k
        return T

    def _advance_probed(self, T: int, target: int, every: int) -> int:
        """:meth:`_advance` cut at every probe boundary (``t % every == 0``),
        observing the chain probe there; returns the phases executed."""
        from repro.obs.probes import probe_cut

        probe = self._get_probe()
        done = 0
        while done < T:
            t = self._t
            done += self._advance(probe_cut(t, t + T - done, every) - t, target)
            if self._t % every == 0:
                probe.observe(self._t, self._v)
            if self._v[0] <= target:
                break
        return done

    def run(self, steps: int) -> "DynamicAllocationProcess":
        """Execute *steps* phases; returns self for chaining."""
        steps = check_nonnegative_int("steps", steps)
        gen = self._open_stream(steps)
        try:
            if not obs.enabled():
                self._advance(steps, -1)
                return self
            with obs.span(f"{self._obs_name}/run", steps=steps, n=self.n):
                every = obs.probe_interval()
                if every > 0:
                    self._advance_probed(steps, -1, every)
                else:
                    self._advance(steps, -1)
        finally:
            self._close_stream(gen)
        self._obs_account(steps)
        return self

    def trajectory(
        self,
        steps: int,
        stat: StatFn = max_load_stat,
        every: int = 1,
    ) -> np.ndarray:
        """Run *steps* phases recording ``stat(loads)`` every *every* phases.

        The returned array has ``steps // every + 1`` entries, the first
        being the statistic of the initial state.  *stat* sees the live
        state at each recording phase: it may read or restore
        :meth:`state_dict` snapshots, and the run continues from there.
        """
        steps = check_nonnegative_int("steps", steps)
        every = check_positive_int("every", every)
        observing = obs.enabled()
        series = f"{self._obs_name}/{getattr(stat, '__name__', 'stat')}"
        t0 = self._t
        out = [stat(self._v)]
        if observing:
            obs.record_sample(series, t0, out[0])
        gen = self._open_stream(steps)
        try:
            for k in range(every, steps + 1, every):
                self._advance(every, -1)
                out.append(stat(self._v))
                if observing:
                    obs.record_sample(series, t0 + k, out[-1])
            self._advance(steps % every, -1)
        finally:
            self._close_stream(gen)
        if observing:
            self._obs_account(steps)
        return np.asarray(out, dtype=np.float64)

    def run_until(self, target_max_load: int, max_steps: int) -> int:
        """Run until the max load is at most *target_max_load*; return the step count.

        Returns 0 if the start already meets the target, else the first
        phase count with max load ≤ target, or ``-1`` if none within
        *max_steps* (the state then reflects max_steps phases).  A
        target below 0 never hits.
        """
        target = operator.index(target_max_load)
        max_steps = check_nonnegative_int("max_steps", max_steps)
        if self._v[0] <= target:
            return 0
        every = obs.probe_interval() if obs.enabled() else 0
        gen = self._open_stream(max_steps)
        try:
            if every > 0:
                # Probed hitting-time run: same decimated chain probe as
                # ``run`` — this is what streams a recovery campaign's
                # per-replica trajectories onto the telemetry bus.
                k = self._advance_probed(max_steps, target, every)
            else:
                k = self._advance(max_steps, target)
        finally:
            self._close_stream(gen)
        hit = k if self._v[0] <= target else -1
        if obs.enabled():
            self._obs_account(k)
        return hit

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, m={self.m}, t={self._t})"
        )
