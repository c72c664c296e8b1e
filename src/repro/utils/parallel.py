"""Process-level parallel replica execution.

Monte Carlo replica sweeps are embarrassingly parallel.  This module
provides a tiny ``multiprocessing``-backed map that pairs each work
item with an independent :class:`numpy.random.SeedSequence` child (the
reproducible-parallel-RNG idiom of the HPC guides: spawn streams, never
share a generator across processes).

The function to run must be a module-level callable (picklable).  With
``processes=1`` everything runs inline — handy for tests and for
platforms where fork semantics are awkward — and results are identical
to the parallel path because the seeds are derived the same way.

When :mod:`repro.obs` is enabled, each call runs against a fresh scoped
metrics registry whose snapshot rides back with the result and is
merged into the parent's default registry — so fleet metrics survive
the process boundary, identically on the inline and pooled paths.

When a :class:`~repro.obs.recorder.RunRecorder` is additionally
installed (an ``observe_run`` campaign), each shard of items gets a
telemetry lane over the fleet bus (:mod:`repro.obs.bus`): workers ship
decimated probe points and monitor events to the parent *as they run*
(in batches: at every item's end, and every
:data:`~repro.obs.bus.BATCH_RECORDS` records within an item)
— tagged ``worker=k`` by shard index, not OS pid, so lane assignment
is deterministic — plus periodic heartbeats into the separate
``heartbeats.jsonl`` stream.  ``repro obs watch`` can therefore
live-tail a parallel campaign.  A worker killed mid-shard surfaces as
a ``worker_lost`` monitor event on the parent artifact before the pool
failure propagates.

Items are split into ``processes`` contiguous shards.  Per-item seeds
are spawned before sharding, so results — and, for a fixed process
count, the finished ``timeseries.jsonl`` — are a function of the seed
alone.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro import obs
from repro.utils.rng import SeedLike, spawn_seeds

__all__ = ["parallel_replica_map"]

# Worker-side bus state, installed by the pool initializer (a Queue
# cannot ride inside pickled task payloads; inheritance via the
# initializer works for both fork and spawn start methods).
_WORKER_QUEUE: Any = None
_WORKER_HEARTBEAT_S: float = 0.0


def _bus_worker_init(queue, enabled, probe_every, heartbeat_s) -> None:
    """Pool initializer: adopt the bus queue + the parent's obs switches."""
    global _WORKER_QUEUE, _WORKER_HEARTBEAT_S
    _WORKER_QUEUE = queue
    _WORKER_HEARTBEAT_S = float(heartbeat_s)
    from repro.obs import runtime, set_tracer

    # A forked child inherits the parent's recorder/tracer objects but
    # must never write through them (shared file descriptors); a
    # spawned child starts blank and needs the switches replayed.
    runtime.set_recorder(None)
    set_tracer(None)
    runtime.set_probe_interval(probe_every)
    if enabled:
        runtime.enable()
    else:
        runtime.disable()


def _run_shard(shard, fn, pairs, kwargs, capture, sender, heartbeat,
               fleet_ckpt=None):
    """Run one shard's items; returns ``[(result, metrics_snapshot), ...]``.

    With *sender* installed as the active recorder, engine probe points
    and monitor events emitted inside ``fn`` stream onto the bus, in a
    batch shipped at each item's end at the latest (or straight into
    the parent recorder on the inline path).  The shard always says
    ``bye`` on the way out — also when an item raises — so only a
    killed process leaves a silent lane.

    With *fleet_ckpt* (a :class:`repro.checkpoint.manager.FleetCheckpoint`),
    the shard resumes at item granularity: completed ``(result,
    snapshot)`` pairs are preloaded from ``shards/shard-<k>.json`` and
    skipped, the lane's stream cursors continue from the checkpointed
    values, and every newly completed item commits an updated shard
    file atomically.  Per-item spawned seed streams make the replay of
    an interrupted item exact, so item granularity loses at most one
    item of work and never determinism.
    """
    import os as _os

    from repro.obs import runtime, set_tracer
    from repro.obs.metrics import scoped_registry

    outs: list[tuple[Any, dict | None]] = []
    cursors: list[list[int]] = []
    if fleet_ckpt is not None:
        doc = fleet_ckpt.read(shard)
        if doc:
            outs = [(result, snap) for result, snap in doc.get("done", [])]
            cursors = [list(map(int, c)) for c in doc.get("cursors", [])]
            while len(cursors) < len(outs):  # pre-cursor shard docs
                cursors.append([int(doc.get("records_sent", 0)),
                                int(doc.get("monitors_sent", 0))])
            if sender is not None:
                sender.records_sent = int(doc.get("records_sent", 0))
                sender.monitors_sent = int(doc.get("monitors_sent", 0))
    detach = capture or sender is not None
    prev_rec = runtime.set_recorder(sender) if detach else None
    prev_tracer = set_tracer(None) if detach else None
    if sender is not None:
        sender.items_done = len(outs)
    if heartbeat is not None:
        heartbeat.start()
    try:
        for item, seed_seq in pairs[len(outs):]:
            if capture:
                # Metrics go to a scratch registry that rides back with
                # the result and merges in the parent, item by item.
                with scoped_registry() as reg:
                    out = fn(item, seed_seq, **kwargs)
                outs.append((out, reg.snapshot()))
            else:
                outs.append((fn(item, seed_seq, **kwargs), None))
            if sender is not None:
                sender.items_done += 1
                # Ship the item's batch before its shard commit, so a
                # commit never covers records still in this process.
                sender.flush()
            if fleet_ckpt is not None:
                # Cumulative per-item stream cursors: a resume needs to
                # know how much telemetry each *item* had shipped, so it
                # can roll the lane back to the last item whose records
                # the (possibly killed) parent actually wrote to disk.
                cursors.append([
                    sender.records_sent if sender is not None else 0,
                    sender.monitors_sent if sender is not None else 0,
                ])
                fleet_ckpt.write(shard, {
                    "done": [[result, snap] for result, snap in outs],
                    "cursors": cursors,
                    "records_sent":
                        sender.records_sent if sender is not None else 0,
                    "monitors_sent":
                        sender.monitors_sent if sender is not None else 0,
                })
                if _os.environ.get("REPRO_CRASH_AT"):
                    from repro.checkpoint.manager import crash_after_item

                    crash_after_item()
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if sender is not None:
            try:
                sender.bye()
            except Exception:  # pragma: no cover - queue gone at teardown
                pass
        if detach:
            runtime.set_recorder(prev_rec)
            set_tracer(prev_tracer)
    return outs


def _call_shard(payload):
    """Pool entry point: build this shard's telemetry lane, run it."""
    shard, fn, pairs, kwargs, capture, fleet_ckpt = payload
    sender = heartbeat = None
    if _WORKER_QUEUE is not None:
        from repro.obs.bus import worker_telemetry

        sender, heartbeat = worker_telemetry(
            shard,
            queue=_WORKER_QUEUE,
            items_total=len(pairs),
            heartbeat_s=_WORKER_HEARTBEAT_S,
        )
    return _run_shard(shard, fn, pairs, kwargs, capture, sender, heartbeat,
                      fleet_ckpt)


def _shard_slices(n_items: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` shard bounds, sizes differing by <= 1."""
    base, extra = divmod(n_items, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for k in range(shards):
        stop = start + base + (1 if k < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def parallel_replica_map(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    seed: SeedLike = None,
    processes: int | None = None,
    heartbeat_s: float | None = None,
    fleet_ckpt=None,
    restart_lost: int = 0,
    **kwargs,
) -> list[Any]:
    """Evaluate ``fn(item, seed_seq, **kwargs)`` for each item.

    Each call receives its own spawned ``SeedSequence``.  ``processes``
    defaults to ``min(len(items), cpu_count())``; ``processes=1`` runs
    inline (no pool).  Results preserve input order.  Worker exceptions
    propagate to the caller on both paths; a worker process *killed*
    mid-shard raises :class:`~concurrent.futures.process.BrokenProcessPool`
    after a ``worker_lost`` monitor event lands on the run artifact.

    *fleet_ckpt* (a :class:`repro.checkpoint.manager.FleetCheckpoint`)
    turns on per-shard item-granularity checkpoints, and
    *restart_lost* > 0 additionally restarts lost shards in a fresh
    pool up to that many times: each dead lane's post-checkpoint
    telemetry tail is truncated on the parent recorder, the lane
    replays from its shard checkpoint, and results stay identical to
    an undisturbed run (``worker_lost`` only fires once restarts are
    exhausted).

    *heartbeat_s* overrides the worker heartbeat period (telemetry-bus
    campaigns only).  Items are split into ``processes`` contiguous
    shards, one telemetry lane each.

    Extra ``**kwargs`` reach every call verbatim — this is how the
    campaign stack threads per-shard execution knobs (e.g. the
    vectorized engine's ``batch`` segment length) through the pool
    without the sharding or checkpoint machinery knowing about them:
    sharding is by replica count only, so a knob that leaves each
    shard's trajectory unchanged leaves the pooled artifact unchanged.
    """
    items = list(items)
    seeds = spawn_seeds(seed, len(items))
    pairs = list(zip(items, seeds))
    capture = obs.enabled()
    if processes is None:
        processes = min(len(items), mp.cpu_count()) or 1
    inline = processes <= 1 or len(items) <= 1
    shards = 1 if inline else min(processes, len(items))
    from repro.obs import runtime
    from repro.obs.bus import DEFAULT_HEARTBEAT_S

    recorder = runtime.get_recorder() if capture else None
    hb_s = DEFAULT_HEARTBEAT_S if heartbeat_s is None else float(heartbeat_s)
    with obs.span("parallel/map", items=len(items), processes=shards):
        if inline:
            sender = heartbeat = None
            if recorder is not None:
                from repro.obs.bus import worker_telemetry

                sender, heartbeat = worker_telemetry(
                    0, recorder=recorder, items_total=len(items),
                    heartbeat_s=hb_s,
                )
            outs = _run_shard(0, fn, pairs, kwargs, capture, sender, heartbeat,
                              fleet_ckpt)
        else:
            outs = _pooled_map(
                fn, pairs, kwargs, capture, shards, recorder, hb_s,
                fleet_ckpt=fleet_ckpt, restart_lost=restart_lost,
            )
    if capture:
        reg = obs.metrics()
        reg.counter("parallel.replicas").inc(len(items))
        for _, snap in outs:
            if snap:
                reg.merge(snap)
    return [result for result, _ in outs]


def _pooled_map(fn, pairs, kwargs, capture, shards, recorder, heartbeat_s,
                fleet_ckpt=None, restart_lost=0):
    """Run the sharded pool, bus-connected when a recorder is active.

    With *fleet_ckpt* and *restart_lost* > 0, a broken pool does not
    propagate immediately: the lost shards' telemetry lanes are
    truncated back to their committed shard checkpoints and the shards
    re-run in a fresh pool (preloading completed items), up to
    *restart_lost* times.  Only when restarts are exhausted do
    ``worker_lost`` events land and the pool failure raise.
    """
    from repro.obs import runtime
    from repro.obs.bus import TelemetryBus

    ctx = (
        mp.get_context("fork")
        if "fork" in mp.get_all_start_methods()
        else mp.get_context()
    )
    payloads = [
        (k, fn, pairs[start:stop], kwargs, capture, fleet_ckpt)
        for k, (start, stop) in enumerate(_shard_slices(len(pairs), shards))
    ]
    shard_outs: list[list | None] = [None] * len(payloads)
    pending = list(range(len(payloads)))
    restarts_left = int(restart_lost) if fleet_ckpt is not None else 0
    while pending:
        bus = (
            TelemetryBus(recorder, ctx, heartbeat_s=heartbeat_s).start()
            if recorder is not None
            else None
        )
        lost: set[int] = set()
        broken: BrokenProcessPool | None = None
        try:
            with ProcessPoolExecutor(
                max_workers=len(pending),
                mp_context=ctx,
                initializer=_bus_worker_init,
                initargs=(
                    bus.queue if bus is not None else None,
                    capture,
                    runtime.probe_interval(),
                    heartbeat_s,
                ),
            ) as ex:
                futures = [(k, ex.submit(_call_shard, payloads[k]))
                           for k in pending]
                for k, fut in futures:
                    try:
                        shard_outs[k] = fut.result()
                    except BrokenProcessPool as e:
                        # A killed worker breaks the whole pool; keep
                        # collecting so every dead lane is accounted for.
                        broken = e
                        lost.add(k)
        finally:
            byes: set[int] = set()
            if bus is not None:
                bus.finish(set(pending) - lost)
                byes = bus.byes
            if lost and restarts_left > 0:
                pass  # restarting below; no worker_lost yet
            elif bus is not None:
                # A shard whose bye made it onto the queue finished its
                # work even if the pool broke before its result
                # transferred; only silent lanes are reported lost.
                for k in sorted(lost - byes):
                    recorder.record_monitor(
                        {
                            "monitor": "worker_lost",
                            "series": "parallel/workers",
                            "items": len(payloads[k][2]),
                            "shards": len(payloads),
                        },
                        worker=k,
                    )
        if lost and restarts_left > 0:
            restarts_left -= 1
            counts = fleet_ckpt.lane_counts()
            for k in sorted(lost):
                lane = counts.get(k, {"records": 0, "monitors": 0})
                if recorder is not None:
                    recorder.truncate_lane(
                        k,
                        records=lane["records"],
                        monitors=lane["monitors"],
                    )
            pending = sorted(lost)
            continue
        if broken is not None:
            raise broken
        pending = []
    return [pair for out in shard_outs for pair in (out or [])]
