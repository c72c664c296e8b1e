"""The campaign driver: observe, dispatch, checkpoint.

:func:`run_checkpointed_campaign` is the one driver behind every
``repro campaign`` (checkpointed or not) and ``repro resume
<run-dir>``: it owns the :class:`~repro.checkpoint.manager.Checkpointer`
lifecycle (none at ``save_every = 0``: no SIGTERM handler, no fleet
checkpoint, no save), chooses the fresh
(:func:`~repro.obs.recorder.observe_run`) or resumed
(:func:`~repro.obs.recorder.observe_resumed_run`) observability
context, and dispatches the measurement to the right engine path:

* **scalar serial / vectorized single-process** — step-granularity
  checkpoints of the full engine state (loads, RNG stream, probe
  estimators) through the hooks in
  :func:`~repro.analysis.recovery_measure.recovery_times_balls`;
* **pooled fleets** — a one-shot ``{"path": "pooled"}`` manifest
  checkpoint (the config is what a resume needs) plus per-shard
  item-granularity :class:`~repro.checkpoint.manager.FleetCheckpoint`
  files written by the workers;
* **exact engine** — :func:`exact_recovery_times`, the checkpointable
  twin of :meth:`~repro.engine.exact.ExactEngine.evolve`: the "state"
  is the distribution vector μ_t itself, and recovery is the first t
  with d_TV(μ_t, π) ≤ ε.

The invariant every path maintains (and ``tests/crashkit.py``
enforces): a run killed at any step and resumed produces
``timeseries.jsonl``, ``events.jsonl``, metrics counters, and summary
statistics byte-identical to the same run left uninterrupted.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.checkpoint.manager import (
    Checkpointer,
    CheckpointInterrupt,
    FleetCheckpoint,
)

__all__ = ["run_checkpointed_campaign", "exact_recovery_times"]


def _campaign_meta(config: dict) -> dict:
    """The run-artifact metadata for *config*."""
    seed = config.get("seed")
    return {
        "experiment": "campaign",
        "scenario": config["scenario"],
        "engine": config["engine"],
        "n": config["n"],
        "m": config["m"],
        "d": config["d"],
        "replicas": config["replicas"],
        "processes": config["processes"],
        "target_max_load": int(config["target"]),
        "seed": seed if seed is None or isinstance(seed, int) else str(seed),
        "steps_total": config["max_steps"],
        "save_every": int(config.get("save_every", 0)),
        # Older checkpoints predate the batched kernels: default 1.
        "batch": int(config.get("batch", 1)),
    }


def _disk_lane_counts(run_dir: str) -> dict[int, dict]:
    """Per-lane telemetry counts actually materialized in the artifact.

    Tolerant parse of ``timeseries.jsonl`` (lane records: points +
    monitor mirrors, headers and ``worker_lost`` excluded) and
    ``events.jsonl`` (lane monitor events), mirroring the recorder's
    resume-truncation accounting.  This is the *parent's* side of the
    pooled-cursor story: shard files record what a worker enqueued,
    these counts record what the parent drained to disk before dying.
    """
    import json
    import os

    counts: dict[int, dict] = {}

    def lane(k: int) -> dict:
        return counts.setdefault(k, {"records": 0, "monitors": 0})

    def parsed(path: str):
        if not os.path.exists(path):
            return
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # the kill's torn tail line
                if isinstance(rec, dict) and "worker" in rec:
                    yield rec

    for rec in parsed(os.path.join(run_dir, "timeseries.jsonl")):
        if rec.get("type") == "header" or rec.get("monitor") == "worker_lost":
            continue
        lane(int(rec["worker"]))["records"] += 1
    for rec in parsed(os.path.join(run_dir, "events.jsonl")):
        if rec.get("type") != "monitor" or rec.get("monitor") == "worker_lost":
            continue
        lane(int(rec["worker"]))["monitors"] += 1
    return counts


def _resume_keep(run_dir: str, state: dict) -> tuple[dict, dict | None]:
    """The recorder *keep* spec + metrics snapshot for a resume.

    Single-process paths carry their own stream cursors in the
    checkpoint (``state["recorder"]``, captured at save time).  Pooled
    runs never write step-granularity parent checkpoints, so their
    cursors come from the per-shard fleet files instead — first rolled
    back to the telemetry the killed parent actually wrote to disk
    (:meth:`~repro.checkpoint.manager.FleetCheckpoint.reconcile`), then
    everything a lane emitted past its last *materialized* item replays.
    """
    metrics = state.get("metrics")
    if state.get("path") == "pooled":
        fleet = FleetCheckpoint(run_dir)
        fleet.reconcile(_disk_lane_counts(run_dir))
        counts = fleet.lane_counts()
        keep = {
            "events": None,
            "lanes": {k: v["records"] for k, v in counts.items()},
            "monitors": {k: v["monitors"] for k, v in counts.items()},
        }
        return keep, metrics
    rec_state = state.get("recorder") or {}
    keep = {
        "events": int(rec_state.get("events", 0)),
        "lanes": rec_state.get("lanes") or {},
        "monitors": rec_state.get("monitors") or {},
    }
    return keep, metrics


def exact_recovery_times(
    rule,
    n: int,
    m: int,
    *,
    scenario: str = "a",
    start=None,
    eps: float = 0.25,
    max_steps: int = 10_000,
    checkpointer: Any = None,
    resume_state: dict | None = None,
) -> np.ndarray:
    """Exact-engine recovery: first t with d_TV(μ_t, π) ≤ *eps*.

    The checkpointable twin of
    :meth:`~repro.engine.exact.ExactEngine.evolve` restricted to the
    recovery question: evolve the exact distribution from the point
    mass at *start* (default: the all-in-one crash state) and stop at
    the first phase whose TV distance to stationarity is within
    *eps*.  Returns a one-element array (−1 if *max_steps* was hit),
    shaped like the sampling engines' per-replica times so campaign
    summaries work unchanged.

    The kernel and π are rebuilt deterministically from the config on
    resume; only μ_t, the step count, and the probe's streaming state
    ride in the checkpoint.  Probe emissions and the
    ``exact.evolve_steps`` accounting mirror ``evolve`` exactly, so a
    killed-and-resumed run's artifact is byte-identical to an
    uninterrupted one's.
    """
    from repro import obs
    from repro.analysis.recovery_measure import scenario_spec
    from repro.balls.load_vector import LoadVector
    from repro.engine.exact import ExactEngine
    from repro.markov.stationary import stationary_distribution

    if start is None:
        start = LoadVector.all_in_one(m, n)
    spec = scenario_spec(rule, scenario)
    chain = ExactEngine.kernel(spec, n, m)
    pi = stationary_distribution(chain)
    every = obs.probe_interval() if obs.enabled() else 0
    probe = None
    if every > 0:
        from repro.obs.probes import (
            DistributionProbe,
            recovery_bound,
            tv_recovery_monitor,
        )

        series = f"exact/{spec.name}"
        bound = recovery_bound(spec, n, m, eps)
        probe = DistributionProbe(
            series, pi,
            monitors=(tv_recovery_monitor(series, eps, bound_step=bound),),
        )
    if resume_state is not None:
        dist = np.asarray(resume_state["dist"], dtype=np.float64)
        t0 = int(resume_state["t"])
        hit = int(resume_state["hit"])
        if probe is not None and "probe" in resume_state:
            probe.load_state(resume_state["probe"])
    else:
        key = tuple(int(x) for x in np.asarray(start.loads, dtype=np.int64))
        dist = chain.point_mass(key)
        t0 = 0
        hit = 0 if 0.5 * float(np.abs(dist - pi).sum()) <= eps else -1
        if probe is not None:
            probe.observe(0, dist)
    executed = t0
    for t in range(t0 + 1, max_steps + 1):
        if hit >= 0:
            break
        dist = chain.step_distribution(dist)
        executed = t
        tv = 0.5 * float(np.abs(dist - pi).sum())
        if probe is not None and t % every == 0:
            probe.observe(t, dist)
        if tv <= eps:
            hit = t
            break
        if checkpointer is not None:
            checkpointer.maybe_save(
                t,
                lambda: {
                    "path": "exact",
                    "exact": {
                        "dist": dist.copy(),
                        "t": t,
                        "hit": hit,
                        **(
                            {"probe": probe.state_dict()}
                            if probe is not None
                            else {}
                        ),
                    },
                },
            )
    if obs.enabled():
        obs.metrics().counter("exact.evolve_steps").inc(executed)
    return np.array([hit], dtype=np.int64)


def run_checkpointed_campaign(
    run_dir: str,
    *,
    config: dict,
    resume_doc: dict | None = None,
) -> dict:
    """Run (or resume) one recovery campaign, checkpointed or not.

    *config* is the argument record
    ``experiments.campaign.run_campaign`` builds.  With
    ``save_every > 0`` it is JSON-serializable and rides inside every
    checkpoint, so ``repro resume <run-dir>`` can rebuild the exact run
    without the original command line.  *resume_doc* is the
    committed checkpoint document from
    :func:`~repro.checkpoint.store.load_checkpoint`; when given, the
    artifact streams are truncated back to the checkpoint's cursors
    and the measurement continues mid-flight.

    Returns the campaign summary: run directory, recovery target,
    per-replica times, capped count, median/q95, wall time and meta.
    ``"interrupted"`` is the checkpointed step when a SIGTERM cut the
    run short (the artifact is finalized with status ``interrupted``
    and can be resumed; ``times`` is then ``None``), else ``None``.
    """
    from repro.analysis.recovery_measure import campaign_rule, recovery_times_balls
    from repro.balls.load_vector import LoadVector
    from repro.obs.recorder import observe_resumed_run, observe_run

    config = dict(config)
    save_every = int(config.get("save_every", 0))
    engine = config["engine"]
    probe_every = int(config.get("probe_every", 0))
    trace = bool(config.get("trace", False))
    meta = _campaign_meta(config)
    state = dict(resume_doc.get("state") or {}) if resume_doc else {}
    if resume_doc is not None:
        keep, metrics = _resume_keep(run_dir, state)
        ctx = observe_resumed_run(
            run_dir, meta=meta, trace=trace, probe_every=probe_every,
            keep=keep, metrics=metrics,
        )
    else:
        ctx = observe_run(
            run_dir, meta=meta, trace=trace, probe_every=probe_every
        )
    processes = config["processes"]
    fan_out = processes is None or processes > 1
    pooled = engine in ("scalar", "vectorized") and fan_out
    ckpt = None
    if save_every > 0:
        ckpt = Checkpointer(
            run_dir, kind="campaign", config=config, save_every=save_every
        )
    rule = campaign_rule(config["scenario"], config["d"])
    start = LoadVector.all_in_one(config["m"], config["n"])
    interrupted: int | None = None
    times = None
    t0 = time.perf_counter()
    try:
        with ctx as rec:
            if resume_doc is not None:
                # The resumed recorder starts from a fresh meta dict;
                # restore the cursor the last committed save stamped, so
                # a run that finishes before its next save boundary still
                # reports the same last_checkpoint_step an uninterrupted
                # run would (later saves simply overwrite it).
                rec.set_meta(last_checkpoint_step=int(resume_doc["step"]))
            try:
                if engine == "exact":
                    times = exact_recovery_times(
                        rule, config["n"], config["m"],
                        scenario=config["scenario"],
                        start=start,
                        eps=float(config.get("eps", 0.25)),
                        max_steps=config["max_steps"],
                        checkpointer=ckpt,
                        resume_state=(
                            state.get("exact") if resume_doc else None
                        ),
                    )
                else:
                    fleet = None
                    resume_state = None
                    if pooled:
                        if ckpt is not None:
                            fleet = FleetCheckpoint(run_dir)
                            # The manifest: pooled runs checkpoint per
                            # shard, but resume still needs a committed
                            # config + the pooled marker.  Rewritten on
                            # resume too, so the final meta cursor
                            # matches an uninterrupted run's.
                            ckpt.save(0, {"path": "pooled"})
                    elif resume_doc is not None:
                        resume_state = state
                    times = recovery_times_balls(
                        rule, config["n"], config["m"], config["target"],
                        scenario=config["scenario"],
                        start=start,
                        replicas=config["replicas"],
                        max_steps=config["max_steps"],
                        engine=engine,
                        seed=config.get("seed"),
                        processes=processes,
                        heartbeat_s=config.get("heartbeat_s"),
                        checkpointer=None if pooled else ckpt,
                        resume_state=resume_state,
                        fleet_ckpt=fleet,
                        restart_lost=int(config.get("restart_lost", 0)),
                        batch=int(config.get("batch", 1)),
                    )
            except CheckpointInterrupt as ci:
                interrupted = ci.step
                rec.set_meta(status="interrupted")
    finally:
        if ckpt is not None:
            ckpt.close()
    wall_s = time.perf_counter() - t0
    # An interrupted run has no times: nothing capped, NaN quantiles.
    arr = np.asarray(times if interrupted is None else [], dtype=np.int64)
    done = arr[arr >= 0].astype(np.float64)
    return {
        "run_dir": run_dir,
        "target_max_load": int(config["target"]),
        "times": arr if interrupted is None else None,
        "capped": int((arr < 0).sum()),
        "median": float(np.median(done)) if done.size else float("nan"),
        "q95": float(np.quantile(done, 0.95)) if done.size else float("nan"),
        "wall_s": wall_s,
        "meta": meta,
        "interrupted": interrupted,
    }
