"""Shared-randomness (grand) couplings for arbitrary state pairs.

The §4–§6 couplings are defined only on adjacent / Γ pairs — that is
the whole point of path coupling.  To *measure* coalescence times
empirically from arbitrary (e.g. worst-case) pairs we extend each
coupling in the canonical shared-randomness way:

* **removal** — both chains invert their removal CDF at the *same*
  uniform (for 𝒜(v): the same ball quantile; for ℬ(v): the same
  nonempty-bin quantile);
* **insertion** — both chains consume the *same* source rs, via
  Φ_D = id (Lemma 3.4);
* **edge orientation** — both chains apply the greedy move to the same
  vertex *ranks* with the same lazy bit.

Each extension restricts to a faithful coupling of the chain (both
marginals are exact), so the measured coalescence time stochastically
dominates the paper's τ(ε) up to the usual coupling-inequality slack —
the measured quantiles in E1–E4 are what we compare to the theorems.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro import obs
from repro.balls.load_vector import (
    LoadVector,
    count_above,
    count_at_least,
    ominus,
    oplus,
    oplus_index,
)
from repro.balls.rules import SchedulingRule
from repro.engine.spec import ProcessSpec, scenario_a_spec, scenario_b_spec
from repro.utils.rng import SeedLike, as_generator, spawn_generators

__all__ = [
    "coalescence_time_spec",
    "coalescence_time_a",
    "coalescence_time_b",
    "coalescence_time_edge",
    "coalescence_times",
]

StateLike = Union[LoadVector, np.ndarray, list]


def _as_array(state: StateLike) -> np.ndarray:
    if isinstance(state, LoadVector):
        return state.loads.copy()
    return LoadVector(state).loads.copy()


def coalescence_time_spec(
    spec: ProcessSpec,
    start_v: StateLike,
    start_u: StateLike,
    *,
    max_steps: int = 10_000_000,
    seed: SeedLike = None,
) -> int:
    """Coalescence time of two copies of *spec* under the grand coupling.

    The shared-randomness draws route through the spec: both chains
    invert the spec's removal law at the same uniform and consume the
    same rule source via Φ_D = id — so any closed or open spec couples,
    including relocation (shared move coin + shared target source) and
    weighted w(ℓ) removal laws.  Returns the first step at which the
    load vectors coincide, or -1 if not within *max_steps*.
    """
    if spec.step.synchronous:
        raise ValueError(
            f"spec {spec.name!r} has a synchronous step shape; the grand "
            "coupling routes one sequential phase per step and would run "
            "the wrong dynamics"
        )
    rng = as_generator(seed)
    v = _as_array(start_v)
    u = _as_array(start_u)
    if v.shape != u.shape:
        raise ValueError("states must have equal size and ball count")
    if spec.kind == "closed" and int(v.sum()) != int(u.sum()):
        raise ValueError("states must have equal size and ball count")
    if np.array_equal(v, u):
        return 0
    rule = spec.rule
    law = spec.removal
    n = v.shape[0]
    # Under observability, record the convergence trace at power-of-two
    # checkpoints: the coupling distance (half the L1 gap — the quantity
    # the path-coupling argument contracts) and the pair's max load.
    # With probes on, additionally stream decimated timeseries points
    # and a one-shot coalescence monitor with the matching paper bound
    # (recovery_bound: Theorem 1 for ball removal, Claim 5.3 for bin
    # removal).
    observing = obs.enabled()
    every = obs.probe_interval() if observing else 0
    monitor = None
    series = f"coupling/{spec.name}"
    if every > 0:
        from repro.obs.probes import coalescence_monitor, recovery_bound

        m = int(v.sum())
        monitor = coalescence_monitor(
            series, bound_step=recovery_bound(spec, n, m), extra={"n": n, "m": m}
        )
    result = -1
    for step in range(1, max_steps + 1):
        if spec.kind == "closed":
            q = float(rng.random())
            v = ominus(v, law.quantile(v, q))
            u = ominus(u, law.quantile(u, q))
            length = max(rule.source_length(v), rule.source_length(u))
            rs = rng.integers(0, n, size=length)
            v = oplus(v, rule.select_from_source(v, rs))
            u = oplus(u, rule.select_from_source(u, rule.phi(rs)))
            if spec.p_relocate > 0 and rng.random() < spec.p_relocate:
                # Shared target source; the gap-≥-2 guard is per chain.
                length = max(rule.source_length(v), rule.source_length(u))
                rs = rng.integers(0, n, size=length)
                for arr, src in ((v, rs), (u, rule.phi(rs))):
                    t = rule.select_from_source(arr, src)
                    if arr[0] - arr[t] >= 2:
                        arr[:] = oplus(ominus(arr, 0), t)
        else:
            coin = bool(rng.random() < 0.5)
            q = float(rng.random())
            if coin:
                for arr in (v, u):
                    if arr.sum() > 0:
                        arr[:] = ominus(arr, law.quantile(arr, q))
            else:
                length = max(rule.source_length(v), rule.source_length(u))
                rs = rng.integers(0, n, size=length)
                for arr, src in ((v, rs), (u, rule.phi(rs))):
                    if spec.max_balls is not None and arr.sum() >= spec.max_balls:
                        continue
                    j = rule.select_from_source(arr, src)
                    arr[oplus_index(arr, j)] += 1
        if observing and (step & (step - 1)) == 0:
            obs.record_sample(
                "coupling/distance", step, 0.5 * float(np.abs(v - u).sum())
            )
            obs.record_sample(
                "coupling/max_load", step, float(max(v[0], u[0]))
            )
        if monitor is not None and step % every == 0:
            distance = 0.5 * float(np.abs(v - u).sum())
            obs.record_point(
                series, step,
                {"distance": distance, "max": int(max(v[0], u[0]))},
            )
            monitor.observe(step, distance)
        if np.array_equal(v, u):
            result = step
            break
    if monitor is not None and result > 0:
        # Coalescence can land between decimated checks; the monitor is
        # one-shot, so firing it here is exact and never duplicates.
        monitor.observe(result, 0.0)
    if observing:
        executed = result if result > 0 else max_steps
        reg = obs.metrics()
        reg.counter("coupling.phases").inc(executed)
        if result > 0:
            reg.counter("coupling.coalescences").inc()
    return result


def coalescence_time_a(
    rule: SchedulingRule,
    start_v: StateLike,
    start_u: StateLike,
    *,
    max_steps: int = 10_000_000,
    seed: SeedLike = None,
) -> int:
    """Coalescence time of two I_A copies under the grand coupling.

    Returns the first phase at which the load vectors coincide, or -1
    if they have not within *max_steps*.  Theorem 1 predicts typical
    values around m·ln m.
    """
    return coalescence_time_spec(
        scenario_a_spec(rule), start_v, start_u, max_steps=max_steps, seed=seed
    )


def coalescence_time_b(
    rule: SchedulingRule,
    start_v: StateLike,
    start_u: StateLike,
    *,
    max_steps: int = 10_000_000,
    seed: SeedLike = None,
) -> int:
    """Coalescence time of two I_B copies under the grand coupling.

    Claim 5.3 predicts O(n·m²) worst-case values (with the improved
    O(m²·polylog) noted by the paper).
    """
    return coalescence_time_spec(
        scenario_b_spec(rule), start_v, start_u, max_steps=max_steps, seed=seed
    )


def coalescence_time_edge(
    start_x,
    start_y,
    *,
    max_steps: int = 50_000_000,
    seed: SeedLike = None,
) -> int:
    """Coalescence time of two lazy edge-orientation copies (rank coupling).

    States are discrepancy vectors (anything iterable of ints summing to
    0); both copies are kept sorted descending and the same ranks φ < ψ
    and lazy bit are applied to both.  Theorem 2 predicts O(n² ln² n).
    """
    rng = as_generator(seed)
    x = np.sort(np.asarray(list(start_x), dtype=np.int64))[::-1].copy()
    y = np.sort(np.asarray(list(start_y), dtype=np.int64))[::-1].copy()
    if x.shape != y.shape:
        raise ValueError("states must have the same number of vertices")
    if int(x.sum()) != 0 or int(y.sum()) != 0:
        raise ValueError("discrepancy vectors must sum to 0")
    n = x.shape[0]
    if np.array_equal(x, y):
        return 0
    observing = obs.enabled()
    every = obs.probe_interval() if observing else 0
    monitor = None
    if every > 0:
        from repro.coupling.recovery import theorem2_bound
        from repro.obs.probes import coalescence_monitor

        monitor = coalescence_monitor(
            "coupling/edge", bound_step=int(theorem2_bound(n)), extra={"n": n}
        )
    result = -1
    for step in range(1, max_steps + 1):
        if observing and (step & (step - 1)) == 0:
            obs.record_sample(
                "coupling/edge_distance", step, 0.5 * float(np.abs(x - y).sum())
            )
        if monitor is not None and step % every == 0:
            distance = 0.5 * float(np.abs(x - y).sum())
            obs.record_point("coupling/edge", step, {"distance": distance})
            monitor.observe(step, distance)
        if rng.random() < 0.5:  # lazy bit: no move
            continue
        phi = int(rng.integers(0, n))
        psi = int(rng.integers(0, n - 1))
        if psi >= phi:
            psi += 1
        if phi > psi:
            phi, psi = psi, phi
        # Greedy on ranks: rank φ (higher discrepancy) falls, ψ rises.
        _rank_move(x, phi, psi)
        _rank_move(y, phi, psi)
        if np.array_equal(x, y):
            result = step
            break
    if monitor is not None and result > 0:
        monitor.observe(result, 0.0)
    if observing:
        obs.metrics().counter("coupling.edge_steps").inc(
            result if result > 0 else max_steps
        )
    return result


def _rank_move(d: np.ndarray, phi: int, psi: int) -> None:
    """In-place greedy move on a descending array, preserving sortedness.

    The vertex at rank φ (the higher discrepancy, a = d[φ]) takes the
    incoming edge (a → a−1) and the one at rank ψ (b = d[ψ] ≤ a) the
    outgoing edge (b → b+1).  As a multiset update this is
    −{a, b} + {a−1, b+1}; applying each change at the boundary of its
    equal-value run (the discrepancy-space analogue of Fact 3.2) keeps
    the array sorted:

    * a = b: the run has ≥ 2 members; +1 at its first index, −1 at its
      last (distinct positions);
    * a = b + 1: the multiset is unchanged — no-op;
    * a > b + 1: −1 at the last index of a's run, +1 at the first index
      of b's run (non-interacting).
    """
    a = int(d[phi])
    b = int(d[psi])
    if a == b:
        lo = count_above(d, a)
        hi = count_at_least(d, a) - 1
        d[lo] += 1
        d[hi] -= 1
    elif a == b + 1:
        return
    else:
        hi = count_at_least(d, a) - 1
        lo = count_above(d, b)
        d[hi] -= 1
        d[lo] += 1


def coalescence_times(
    fn: Callable[..., int],
    replicas: int,
    *args,
    seed: SeedLike = None,
    **kwargs,
) -> np.ndarray:
    """Run a coalescence measurement over independent replica streams.

    ``fn`` is one of the ``coalescence_time_*`` functions; *args* /
    *kwargs* are forwarded with a spawned per-replica seed.  Returns the
    int64 array of times (−1 entries mean the cap was hit).
    """
    gens = spawn_generators(seed, replicas)
    return np.array(
        [fn(*args, seed=g, **kwargs) for g in gens], dtype=np.int64
    )
