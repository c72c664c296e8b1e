"""Recovery-from-crash measurements (§1.1's motivating question).

"How long does it take until the system recovers?"  Operationally:
start from an adversarially bad state (all m balls in one bin), run the
process, and record the first phase at which the max load re-enters the
typical band.  The paper's answers: O(n ln n) for scenario A at m = n
and O(n² ln n) for scenario B — the E7 measurements.  The
edge-orientation crash state (all positive discrepancy concentrated on
one vertex) lives here too; E4 starts its coalescence runs from it.
"""

from __future__ import annotations

import numpy as np

from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule, RandomWalkRule, SchedulingRule, UniformRule
from repro.balls.scenario_a import ScenarioAProcess
from repro.balls.scenario_b import ScenarioBProcess
from repro.utils.rng import SeedLike, spawn_generators

__all__ = [
    "RBB_SCENARIOS",
    "CAMPAIGN_SCENARIOS",
    "campaign_rule",
    "scenario_spec",
    "recovery_times_balls",
    "crash_state_edge",
]

#: The synchronous-step campaign scenarios (``repro campaign --spec …``).
RBB_SCENARIOS = ("rbb_uniform", "rbb_twochoice", "rbb_walk")
#: Every scenario token the campaign stack accepts.
CAMPAIGN_SCENARIOS = ("a", "b") + RBB_SCENARIOS


def campaign_rule(scenario: str, d: int = 2) -> SchedulingRule:
    """The placement rule a campaign scenario token implies.

    Scenario A/B and two-choice RBB place with ABKU[d]; uniform RBB
    places u.a.r.; walk RBB places with the Frieze–Petti ring walk.
    """
    if scenario == "rbb_uniform":
        return UniformRule()
    if scenario == "rbb_walk":
        return RandomWalkRule.cycle(2)
    return ABKURule(d)


def scenario_spec(rule: SchedulingRule, scenario: str):
    """The :class:`~repro.engine.spec.ProcessSpec` of a scenario token."""
    from repro.engine.spec import rbb_spec, scenario_a_spec, scenario_b_spec

    if scenario == "a":
        return scenario_a_spec(rule)
    if scenario == "b":
        return scenario_b_spec(rule)
    if scenario in RBB_SCENARIOS:
        return rbb_spec(rule, name=scenario)
    raise ValueError(
        f"scenario must be one of {CAMPAIGN_SCENARIOS}, got {scenario!r}"
    )


def _make_scalar_process(rule, scenario, start, seed):
    """One scalar simulator for a scenario token (legacy RNG order kept)."""
    if scenario in RBB_SCENARIOS:
        from repro.balls.rbb import RBBProcess

        return RBBProcess(scenario_spec(rule, scenario), start, seed=seed)
    make = ScenarioAProcess if scenario == "a" else ScenarioBProcess
    return make(rule, start, seed=seed)


def _scalar_recovery_replica(
    _k,
    seed_seq,
    *,
    rule,
    scenario,
    start,
    target_max_load,
    max_steps,
):
    """One scalar replica for :func:`parallel_replica_map` (picklable).

    Receives the same spawned ``SeedSequence`` the serial loop's
    :func:`~repro.utils.rng.spawn_generators` would hand replica ``_k``,
    so serial and sharded runs produce identical recovery times.
    """
    proc = _make_scalar_process(
        rule, scenario, start.copy(), np.random.default_rng(seed_seq)
    )
    return int(proc.run_until(target_max_load, max_steps))


def _vectorized_recovery_shard(
    sub_replicas,
    seed_seq,
    *,
    rule,
    scenario,
    start,
    target_max_load,
    max_steps,
    batch=1,
):
    """One vectorized sub-fleet of *sub_replicas* replicas (picklable)."""
    from repro.engine.vectorized import VectorizedEngine

    spec = scenario_spec(rule, scenario)
    bp = VectorizedEngine.make(spec, start, sub_replicas, seed=seed_seq)
    return bp.recovery_times(target_max_load, max_steps, batch=batch)


def _scalar_serial(
    rule,
    scenario,
    start,
    target_max_load,
    replicas,
    max_steps,
    seed,
    checkpointer,
    resume_state,
):
    """The serial scalar loop, chunked at the checkpoint cadence.

    Without a *checkpointer* (or at ``save_every = 0``) each replica
    makes one ``run_until(max_steps)`` call.  With one, each replica
    runs ``run_until`` in chunks of ``save_every`` steps and offers a
    save at every chunk boundary.  Chunking is invisible in the
    artifact: probes key off the process's *global* step counter, the
    RNG stream is untouched by chunk boundaries, and the per-chunk
    metrics accounting sums to the single-call total — so
    ``save_every > 0`` produces byte-identical telemetry to the
    single-call loop (pinned by ``tests/test_checkpoint_resume.py``).
    """
    times = np.full(replicas, -1, dtype=np.int64)
    k0 = 0
    if resume_state is not None:
        times[:] = np.asarray(resume_state["times"], dtype=np.int64)
        k0 = int(resume_state["replica"])
    chunk_size = (
        checkpointer.save_every
        if checkpointer is not None and checkpointer.save_every > 0
        else max_steps
    )
    for k, rng in enumerate(spawn_generators(seed, replicas)):
        if k < k0:
            continue  # completed before the checkpoint; times restored
        proc = _make_scalar_process(rule, scenario, start.copy(), rng)
        steps_done = 0
        if resume_state is not None and k == k0:
            proc.load_state(resume_state["engine"])
            steps_done = int(resume_state["steps_done"])
        while True:
            chunk = min(chunk_size, max_steps - steps_done)
            hit = proc.run_until(target_max_load, chunk)
            if hit >= 0:
                times[k] = steps_done + hit
                break
            steps_done += chunk
            if steps_done >= max_steps:
                break  # cap hit: times[k] stays -1
            if checkpointer is not None:
                checkpointer.maybe_save(
                    steps_done,
                    lambda: {
                        "path": "scalar-serial",
                        "replica": k,
                        "steps_done": steps_done,
                        "times": times.copy(),
                        "engine": proc.state_dict(),
                    },
                )
    return times


def recovery_times_balls(
    rule: SchedulingRule,
    n: int,
    m: int,
    target_max_load: int,
    *,
    scenario: str = "a",
    start: LoadVector | None = None,
    replicas: int = 20,
    max_steps: int = 10_000_000,
    engine: str = "scalar",
    seed: SeedLike = None,
    processes: int | None = 1,
    heartbeat_s: float | None = None,
    checkpointer=None,
    resume_state: dict | None = None,
    fleet_ckpt=None,
    restart_lost: int = 0,
    batch: int = 1,
) -> np.ndarray:
    """Steps from the crash state until max load ≤ *target_max_load*.

    Default crash state: all m balls in one bin.  Returns one time per
    replica (−1 where the cap was hit — should not happen with sane
    caps; the caller should treat those as failures).

    ``engine`` picks the execution path: ``'scalar'`` loops replicas on
    the O(log n) reference simulator (independent per-replica streams);
    ``'vectorized'`` advances all replicas as one (R, n) matrix — the
    same hitting-time law, measured much faster for large R (requires
    an inverse-transform rule; experiments select this by scale via
    :func:`repro.experiments.base.select_engine`).

    ``processes`` fans the fleet across worker processes via
    :func:`~repro.utils.parallel.parallel_replica_map` (``None`` →
    one per CPU).  Scalar replicas keep their per-replica seed streams,
    so scalar results are identical at every process count; vectorized
    fleets shard into per-process sub-fleets with independent spawned
    streams, deterministic for a fixed ``(seed, processes)`` pair.
    Under ``observe_run`` each worker becomes a telemetry-bus lane
    (live probe points + heartbeats, period *heartbeat_s*).

    Checkpoint/resume (see :mod:`repro.checkpoint`): *checkpointer*
    (a :class:`~repro.checkpoint.manager.Checkpointer`) turns on
    step-granularity saves in the single-process paths, and
    *resume_state* (the checkpoint's ``state`` payload) continues the
    exact trajectory mid-flight.  Fanned-out fleets checkpoint at item
    granularity instead: *fleet_ckpt*
    (a :class:`~repro.checkpoint.manager.FleetCheckpoint`) makes each
    worker commit per-shard progress after every completed item, and
    *restart_lost* > 0 replays killed shards in a fresh pool.

    *batch* > 1 (vectorized only) advances each fleet through the
    batched multi-step kernels
    (:meth:`~repro.engine.vectorized.VectorizedProcess.run_batched`
    semantics) — per-replica hitting times, telemetry and committed
    checkpoints are identical to ``batch=1``; only throughput changes.
    Scalar paths ignore it.
    """
    if start is None:
        start = LoadVector.all_in_one(m, n)
    fan_out = processes is None or processes > 1
    if engine == "vectorized":
        if fan_out:
            import multiprocessing as mp

            from repro.experiments.base import shard_sizes
            from repro.utils.parallel import parallel_replica_map

            sizes = shard_sizes(replicas, processes or mp.cpu_count() or 1)
            parts = parallel_replica_map(
                _vectorized_recovery_shard,
                sizes,
                seed=seed,
                processes=len(sizes),
                heartbeat_s=heartbeat_s,
                fleet_ckpt=fleet_ckpt,
                restart_lost=restart_lost,
                rule=rule,
                scenario=scenario,
                start=start,
                target_max_load=target_max_load,
                max_steps=max_steps,
                batch=batch,
            )
            return np.concatenate(
                [np.asarray(p, dtype=np.int64) for p in parts]
            )
        from repro.engine.vectorized import VectorizedEngine

        bp = VectorizedEngine.make(
            scenario_spec(rule, scenario), start, replicas, seed=seed
        )
        if resume_state is not None:
            bp.load_state(resume_state["engine"], probe_target=target_max_load)
        return bp.recovery_times(
            target_max_load,
            max_steps,
            checkpointer=checkpointer,
            resume=resume_state["loop"] if resume_state is not None else None,
            batch=batch,
        )
    if engine != "scalar":
        raise ValueError(f"engine must be 'scalar' or 'vectorized', got {engine!r}")
    if fan_out:
        from repro.utils.parallel import parallel_replica_map

        times_list = parallel_replica_map(
            _scalar_recovery_replica,
            range(replicas),
            seed=seed,
            processes=processes,
            heartbeat_s=heartbeat_s,
            fleet_ckpt=fleet_ckpt,
            restart_lost=restart_lost,
            rule=rule,
            scenario=scenario,
            start=start,
            target_max_load=target_max_load,
            max_steps=max_steps,
        )
        return np.asarray(times_list, dtype=np.int64)
    return _scalar_serial(
        rule, scenario, start, target_max_load,
        replicas, max_steps, seed, checkpointer, resume_state,
    )


def crash_state_edge(n: int) -> list[int]:
    """A worst-ish reachable crash state: maximal discrepancy spread.

    Half the vertices at +⌈(n−1)/2⌉-ish levels, half negative — the
    'staircase' state with one vertex per discrepancy level, which
    maximizes the unfairness among states with distinct levels and is
    reachable from 0 (pairs of extreme vertices can be driven apart one
    edge at a time).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    half = n // 2
    d = []
    for i in range(half):
        d.append(half - i)
    for i in range(n - 2 * half):
        d.append(0)
    for i in range(half):
        d.append(-(i + 1))
    # d = (half, half-1, …, 1, [0], -1, …, -half): sums to 0.
    assert sum(d) == 0
    return d
