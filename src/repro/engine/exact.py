"""Exact execution engine: dense kernels over enumerated partitions.

For small (n, m) every spec induces a finite Markov chain whose dense
transition matrix we can build exactly — the ground truth the paper's
bounds and the simulators are checked against (experiments E9/E15).
This engine derives that matrix *from the spec alone*:

* **closed specs** — states are Ω_m (partitions of m into ≤ n parts);
  one phase composes the removal pmf with the rule's exact insertion
  pmf on the intermediate state.  A relocating spec additionally mixes
  each phase outcome with the conditional relocation move (fullest →
  rule-target when the gap is ≥ 2), weighting by ``p_relocate`` — a
  capability the per-process kernel constructors never had.
* **open specs** — states are ⋃_{k ≤ max_balls} Ω_k; a fair coin picks
  the removal half-step (no-op when empty) or the insertion half-step
  (no-op at the cap).  Any removal law works, not just 𝒜/ℬ.
* **synchronous (RBB) specs** — states are Ω_m; one step enumerates the
  weak compositions of the release count s over the n bins, weighting
  each by its multinomial mass under the rule's insertion pmf on the
  post-release state.

The legacy constructors (:func:`repro.markov.exact.scenario_a_kernel`
and friends) are now thin wrappers over this engine; the parity suite
pins the matrices equal.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro import obs
from repro.balls.load_vector import ominus, oplus
from repro.engine.spec import ProcessSpec
from repro.markov.chain import FiniteMarkovChain
from repro.utils.partitions import all_partitions
from repro.utils.validation import check_positive_int

__all__ = ["ExactEngine"]


def _phase_distribution(
    spec: ProcessSpec,
    v: np.ndarray,
    index: dict,
    out_row: np.ndarray,
) -> None:
    """Accumulate the one-phase distribution from state *v* into *out_row*."""
    n = v.shape[0]
    pmf = spec.removal.pmf(v)
    for i in range(n):
        p_rm = float(pmf[i])
        if p_rm <= 0.0:
            continue
        vstar = ominus(v, i)
        q = spec.rule.insertion_distribution(vstar)
        for j in range(n):
            p_in = p_rm * float(q[j])
            if p_in <= 0.0:
                continue
            v0 = oplus(vstar, j)
            if spec.p_relocate > 0.0:
                _relocation_mix(spec, v0, index, out_row, p_in)
            else:
                out_row[index[tuple(int(x) for x in v0)]] += p_in


def _relocation_mix(
    spec: ProcessSpec,
    v0: np.ndarray,
    index: dict,
    out_row: np.ndarray,
    mass: float,
) -> None:
    """Mix the post-phase state with the conditional relocation move.

    With probability 1−p the phase outcome stands; with probability p a
    rule-target t is drawn on v0 and one ball moves fullest → t iff
    v0[0] − v0[t] ≥ 2 (otherwise the move is a no-op).
    """
    p = spec.p_relocate
    k0 = index[tuple(int(x) for x in v0)]
    out_row[k0] += mass * (1.0 - p)
    q = spec.rule.insertion_distribution(v0)
    for t in range(v0.shape[0]):
        pt = float(q[t])
        if pt <= 0.0:
            continue
        if v0[0] - v0[t] >= 2:
            moved = oplus(ominus(v0, 0), t)
            out_row[index[tuple(int(x) for x in moved)]] += mass * p * pt
        else:
            out_row[k0] += mass * p * pt


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of *total* into *parts* ordered parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _synchronous_phase_distribution(
    spec: ProcessSpec,
    v: np.ndarray,
    index: dict,
    out_row: np.ndarray,
) -> None:
    """Accumulate the one-step RBB distribution from state *v* into *out_row*.

    One synchronous step releases one ball from each of the s nonempty
    bins and scatters the s released balls i.i.d. by the rule's
    insertion pmf q on the post-release state w, so the landing counts
    are Multinomial(s, q): each weak composition c of s contributes
    mass  s!/(∏ c_i!) · ∏ q_i^{c_i}  to the sorted state w + c.
    """
    n = v.shape[0]
    w = v.copy()
    s = int(np.count_nonzero(w))
    w[w > 0] -= 1
    if s == 0:
        out_row[index[tuple(int(x) for x in w)]] += 1.0
        return
    q = spec.rule.insertion_distribution(w)
    s_fact = float(math.factorial(s))
    for c in _compositions(s, n):
        p = s_fact
        for ci, qi in zip(c, q):
            if ci:
                if qi <= 0.0:
                    p = 0.0
                    break
                p *= float(qi) ** ci / math.factorial(ci)
        if p <= 0.0:
            continue
        u = np.sort(w + np.asarray(c, dtype=np.int64))[::-1]
        out_row[index[tuple(int(x) for x in u)]] += p


def _open_phase_distribution(
    spec: ProcessSpec,
    v: np.ndarray,
    cap: int,
    index: dict,
    out_row: np.ndarray,
) -> None:
    """Accumulate the one-step open-system distribution from *v* into *out_row*."""
    n = v.shape[0]
    m = int(v.sum())
    # Removal half-step (no-op when empty).
    if m == 0:
        out_row[index[tuple(int(x) for x in v)]] += 0.5
    else:
        pmf = spec.removal.pmf(v)
        for i in range(n):
            p_rm = float(pmf[i])
            if p_rm <= 0.0:
                continue
            v_rm = ominus(v, i)
            out_row[index[tuple(int(x) for x in v_rm)]] += 0.5 * p_rm
    # Insertion half-step (no-op at the cap).
    if m >= cap:
        out_row[index[tuple(int(x) for x in v)]] += 0.5
    else:
        q = spec.rule.insertion_distribution(v)
        for j in range(n):
            p_in = float(q[j])
            if p_in <= 0.0:
                continue
            v_in = oplus(v, j)
            out_row[index[tuple(int(x) for x in v_in)]] += 0.5 * p_in


class ExactEngine:
    """Dense-kernel engine over enumerated partition state spaces."""

    name = "exact"

    @staticmethod
    def supports(spec: ProcessSpec) -> tuple[bool, str]:
        """Any spec with a finite state space (open specs need a cap)."""
        if spec.kind == "open" and spec.max_balls is None:
            return False, "unbounded open system: set max_balls for a finite ⋃Ω_k"
        return True, "dense kernel on enumerated partitions"

    @staticmethod
    def state_space(spec: ProcessSpec, n: int, m: int | None = None) -> list[tuple[int, ...]]:
        """The enumerated state space of *spec* on n bins (kernel row order).

        Closed specs: Ω_m for the given ball count *m*.  Open specs:
        ⋃_{k ≤ max_balls} Ω_k (the cap comes from the spec; *m* is
        ignored).
        """
        ok, why = ExactEngine.supports(spec)
        if not ok:
            raise ValueError(f"spec {spec.name!r} has no finite state space: {why}")
        n = check_positive_int("n", n)
        if spec.kind == "open":
            states: list[tuple[int, ...]] = []
            for k in range(int(spec.max_balls) + 1):
                states.extend(all_partitions(k, n))
            return states
        if m is None:
            raise ValueError("closed specs need the ball count m")
        return all_partitions(check_positive_int("m", m), n)

    @staticmethod
    def transition_row(
        spec: ProcessSpec, v: np.ndarray | list | tuple
    ) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """Kernel-extraction hook: the exact one-step law out of state *v*.

        Returns ``(states, row)`` where *states* is the enumerated state
        space (see :meth:`state_space`) and *row* the transition
        distribution from *v* aligned with it — computed without
        building the full |Ω| × |Ω| kernel.  This is what the
        statistical battery of :mod:`repro.verify` compares engine
        one-step samples against.
        """
        v = np.asarray(v, dtype=np.int64)
        n = v.shape[0]
        m = int(v.sum())
        states = ExactEngine.state_space(spec, n, m if spec.kind == "closed" else None)
        index = {s: k for k, s in enumerate(states)}
        key = tuple(int(x) for x in v)
        if key not in index:
            raise ValueError(f"state {key} is not normalized / not in the state space")
        row = np.zeros(len(states), dtype=np.float64)
        if spec.kind == "open":
            _open_phase_distribution(spec, v, int(spec.max_balls), index, row)
        elif spec.step.synchronous:
            _synchronous_phase_distribution(spec, v, index, row)
        else:
            _phase_distribution(spec, v, index, row)
        return states, row

    @staticmethod
    def kernel(spec: ProcessSpec, n: int, m: int | None = None) -> FiniteMarkovChain:
        """Build the exact transition kernel of *spec* on n bins.

        Closed specs require the ball count *m* (state space Ω_m); open
        specs take their cap from ``spec.max_balls`` (state space
        ⋃_{k ≤ cap} Ω_k) and ignore *m*.
        """
        ok, why = ExactEngine.supports(spec)
        if not ok:
            raise ValueError(f"spec {spec.name!r} has no exact kernel: {why}")
        n = check_positive_int("n", n)
        if spec.kind == "open":
            return ExactEngine._open_kernel(spec, n)
        if m is None:
            raise ValueError("closed specs need the ball count m")
        m = check_positive_int("m", m)
        states = all_partitions(m, n)
        index = {s: k for k, s in enumerate(states)}
        P = np.zeros((len(states), len(states)), dtype=np.float64)
        fill = (
            _synchronous_phase_distribution
            if spec.step.synchronous
            else _phase_distribution
        )
        for k, s in enumerate(states):
            fill(spec, np.array(s, dtype=np.int64), index, P[k])
        return FiniteMarkovChain(states, P)

    @staticmethod
    def evolve(
        spec: ProcessSpec,
        start: np.ndarray | list | tuple,
        steps: int,
        *,
        eps: float = 0.25,
        chain: FiniteMarkovChain | None = None,
    ) -> np.ndarray:
        """Evolve the exact distribution μ_t = δ_start·Pᵗ; returns the TV decay.

        The exact engine's "trajectory" is the distribution itself:
        starting from the point mass at *start* the method advances
        μ_t one kernel application at a time and returns the array
        ``d_TV(μ_t, π)`` for t = 0..steps (π the exact stationary
        distribution) — the precise quantity the paper's τ(ε) bounds
        envelope.  Pass a prebuilt *chain* to amortize the kernel over
        several starts.

        Under observability with probes on (``probe_interval() > 0``)
        every decimated t additionally emits a ``timeseries.jsonl``
        point (series ``exact/<spec>``, stats tv/l2/decrement), and a
        TV recovery monitor fires when the decay first crosses *eps*,
        with Theorem 1's bound as the envelope for closed specs.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        v = np.asarray(start, dtype=np.int64)
        key = tuple(int(x) for x in v)
        if chain is None:
            chain = ExactEngine.kernel(
                spec, v.shape[0], int(v.sum()) if spec.kind == "closed" else None
            )
        from repro.markov.stationary import stationary_distribution

        pi = stationary_distribution(chain)
        dist = chain.point_mass(key)
        probe = None
        every = 0
        if obs.enabled():
            every = obs.probe_interval()
            if every > 0:
                from repro.obs.probes import (
                    DistributionProbe,
                    recovery_bound,
                    tv_recovery_monitor,
                )

                series = f"exact/{spec.name}"
                bound = recovery_bound(spec, v.shape[0], int(v.sum()), eps)
                probe = DistributionProbe(
                    series, pi,
                    monitors=(tv_recovery_monitor(series, eps, bound_step=bound),),
                )
        tv = np.empty(steps + 1, dtype=np.float64)
        tv[0] = 0.5 * float(np.abs(dist - pi).sum())
        if probe is not None:
            probe.observe(0, dist)
        for t in range(1, steps + 1):
            dist = chain.step_distribution(dist)
            tv[t] = 0.5 * float(np.abs(dist - pi).sum())
            if probe is not None and t % every == 0:
                probe.observe(t, dist)
        if obs.enabled():
            obs.metrics().counter("exact.evolve_steps").inc(steps)
        return tv

    @staticmethod
    def _open_kernel(spec: ProcessSpec, n: int) -> FiniteMarkovChain:
        cap = int(spec.max_balls)  # supports() guaranteed it is set
        states = ExactEngine.state_space(spec, n)
        index = {s: k for k, s in enumerate(states)}
        P = np.zeros((len(states), len(states)), dtype=np.float64)
        for k, s in enumerate(states):
            _open_phase_distribution(
                spec, np.array(s, dtype=np.int64), cap, index, P[k]
            )
        return FiniteMarkovChain(states, P)
