"""Fleet telemetry bus: live cross-process probe streaming.

A parallel replica campaign (``repro.utils.parallel``) runs its shards
in worker processes.  Before this module existed, worker telemetry
reached the parent only *after* the pool exited (the metrics-snapshot
merge), so ``repro obs watch`` showed nothing while a fleet was
running and no per-step probe points from workers ever landed in the
parent's ``timeseries.jsonl``.

The bus closes that gap with stdlib ``multiprocessing`` only:

* :class:`BusSender` — the worker-side recorder shim.  Installed via
  ``repro.obs.runtime.set_recorder`` inside a worker, it receives the
  engines' decimated probe points and recovery-monitor events through
  the exact same :func:`~repro.obs.runtime.record_point` /
  :func:`~repro.obs.runtime.record_monitor` hooks a local run uses.
  A queue lane buffers them in emission order and ships them as one
  ``batch`` message, tagged with the worker's shard index, when an
  item ends (before the shard commits that item's checkpoint), when
  the lane says ``bye``, and whenever :data:`BATCH_RECORDS` records
  are waiting — so a long item still streams.  With no queue (the
  inline ``processes=1`` path) it forwards each record straight into
  the parent recorder — both paths produce the same artifact, one
  lane per shard.
* :class:`HeartbeatThread` — a daemon thread per shard posting
  periodic heartbeats (worker id, items done, RSS, points emitted) so
  the parent — and ``repro obs watch`` — can flag stalled workers.
  Heartbeats carry wall-clock state and therefore land in a separate
  ``heartbeats.jsonl`` stream, never in the deterministic
  ``timeseries.jsonl``.
* :class:`TelemetryBus` — the parent side.  A drain thread multiplexes
  incoming batches into the active :class:`~repro.obs.recorder.RunRecorder`
  *as they arrive* (live watchability); at shutdown it waits for the
  per-shard ``bye`` markers, stops the drain thread with a sentinel,
  and reports the shards that never said goodbye so the caller can
  record ``worker_lost`` monitor events.

Determinism: each worker's messages traverse the queue in emission
order (per-producer FIFO), a batch keeps its records in emission
order, and the recorder canonicalizes the finished
``timeseries.jsonl`` by stable-sorting on the worker tag — so a
finished parallel artifact is a byte-identical function of the seed,
even though live arrival order is not.

Wire format (queue messages are plain tuples, cheap to pickle)::

    ("batch",     worker, [("point", series, step, stats)
                           | ("monitor", event_dict), ...])
    ("heartbeat", worker, payload_dict)
    ("bye",       worker)

Points therefore reach the parent a batch at a time, not as they are
emitted; a heartbeat's ``points`` counts the points the lane has
emitted so far, shipped or still buffered.  The parent ends its drain
thread by putting ``None`` behind every worker message.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "BusSender",
    "HeartbeatThread",
    "TelemetryBus",
    "DEFAULT_HEARTBEAT_S",
]

#: Default worker heartbeat period in seconds.
DEFAULT_HEARTBEAT_S = 0.5

#: How long the parent waits after the pool finishes for stragglers'
#: queued messages (and their ``bye`` markers) to arrive.
DRAIN_GRACE_S = 5.0

#: Records a queue lane buffers before it ships them without waiting
#: for the item to end, so ``repro obs watch`` sees long items move.
BATCH_RECORDS = 256


def _read_rss_kb() -> float:
    """Worker RSS in KiB (best-effort; 0.0 where /proc is unavailable)."""
    try:
        from repro.obs.bench import read_rss_kb

        return float(read_rss_kb())
    except Exception:  # pragma: no cover - stripped environments
        return 0.0


class BusSender:
    """Worker-side recorder shim: probe telemetry out, everything else dropped.

    Duck-types the :class:`~repro.obs.recorder.RunRecorder` surface the
    runtime hooks touch (``record_point`` / ``record_monitor`` /
    ``record`` / ``emit``), so instrumented engine code needs no bus
    awareness at all.  Span events and checkpoint samples are dropped —
    workers must not write to the parent's ``events.jsonl`` descriptor,
    and their metrics already ride home with the result snapshot.

    A queue lane buffers its records until :meth:`flush` (the fleet
    runner calls it at every item's end), :meth:`bye`, or
    :data:`BATCH_RECORDS` records; a recorder lane forwards each one.
    """

    __slots__ = ("worker", "_queue", "_recorder", "_batch", "points_sent",
                 "items_done", "items_total", "records_sent", "monitors_sent")

    def __init__(self, worker: int, *, queue: Any = None, recorder: Any = None):
        if (queue is None) == (recorder is None):
            raise ValueError("BusSender needs exactly one of queue / recorder")
        self.worker = int(worker)
        self._queue = queue
        self._recorder = recorder
        self._batch: list[tuple] = []
        self.points_sent = 0
        self.items_done = 0
        self.items_total = 0
        #: Lane stream cursors for shard checkpoints: total records
        #: bound for the timeseries stream (points + monitors, lane
        #: FIFO order) and monitor events bound for the event stream.
        #: A shard commit reads them right after a flush, when every
        #: counted record is on the bus.
        self.records_sent = 0
        self.monitors_sent = 0

    # -- the recorder surface the runtime hooks use ---------------------------

    def record_point(self, series: str, step: int, stats: dict) -> None:
        """Ship one decimated probe point, tagged with this worker's lane."""
        self.points_sent += 1
        self.records_sent += 1
        if self._queue is not None:
            self._buffer(("point", series, int(step), stats))
        else:
            self._recorder.record_point(series, step, stats, worker=self.worker)

    def record_monitor(self, event: dict) -> None:
        """Ship one recovery-monitor event, tagged with this worker's lane."""
        self.records_sent += 1
        self.monitors_sent += 1
        if self._queue is not None:
            self._buffer(("monitor", dict(event)))
        else:
            self._recorder.record_monitor(event, worker=self.worker)

    def _buffer(self, record: tuple) -> None:
        self._batch.append(record)
        if len(self._batch) >= BATCH_RECORDS:
            self.flush()

    def record(self, series: str, step: int, value: float) -> None:
        """Checkpoint samples stay local to the worker (dropped)."""

    def emit(self, event: dict) -> None:
        """Raw events (spans, profiles) stay local to the worker (dropped)."""

    def flush(self) -> None:
        """Ship the buffered records as one ``batch`` message (if any)."""
        if self._batch:
            batch, self._batch = self._batch, []
            self._queue.put(("batch", self.worker, batch))

    # -- liveness -------------------------------------------------------------

    def heartbeat(self) -> None:
        """Post one liveness sample (wall-clock state; heartbeats stream only)."""
        payload = {
            "items_done": self.items_done,
            "items_total": self.items_total,
            "points": self.points_sent,
            "rss_kb": _read_rss_kb(),
        }
        if self._queue is not None:
            self._queue.put(("heartbeat", self.worker, payload))
        else:
            self._recorder.record_heartbeat(self.worker, payload)

    def bye(self) -> None:
        """Mark this shard done (per-producer FIFO ⇒ after all its points)."""
        if self._queue is not None:
            self.flush()
            self._queue.put(("bye", self.worker))
        else:
            self._recorder.record_bye(self.worker)


class HeartbeatThread:
    """Daemon thread beating a :class:`BusSender` every *interval* seconds.

    The first beat is immediate (so the watch view sees a lane as soon
    as the shard starts), later ones are timer-driven.  ``stop()`` is
    idempotent and joins the thread.
    """

    def __init__(self, sender: BusSender, *, interval: float = DEFAULT_HEARTBEAT_S):
        self.sender = sender
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-bus-heartbeat-w{sender.worker}",
            daemon=True,
        )

    def _loop(self) -> None:
        while True:
            try:
                self.sender.heartbeat()
            except Exception:  # pragma: no cover - queue torn down mid-beat
                return
            if self._stop.wait(self.interval):
                return

    def start(self) -> "HeartbeatThread":
        if self.interval > 0:
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def __enter__(self) -> "HeartbeatThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class TelemetryBus:
    """Parent-side bus: a queue plus a drain thread into the recorder.

    Usage (see :func:`repro.utils.parallel.parallel_replica_map`)::

        bus = TelemetryBus(recorder, ctx, heartbeat_s=0.5)
        bus.start()
        ... run the pool; workers send via the queue ...
        lost = bus.finish(expected={0, 1, 2})
        for worker in lost:   # shards that never said bye
            recorder.record_monitor({"monitor": "worker_lost", ...})
    """

    def __init__(self, recorder: Any, ctx: Any, *,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S):
        self.recorder = recorder
        self.heartbeat_s = float(heartbeat_s)
        self.queue = ctx.Queue()
        self.points_received = 0
        self.byes: set[int] = set()
        self._bye_seen = threading.Condition()
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-bus-drain", daemon=True
        )

    # -- message handling ------------------------------------------------------

    def _handle(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "batch":
            _, worker, records = msg
            self.points_received += sum(r[0] == "point" for r in records)
            self.recorder.record_batch(worker, records)
        elif kind == "heartbeat":
            _, worker, payload = msg
            self.recorder.record_heartbeat(worker, payload)
        elif kind == "bye":
            _, worker = msg
            self.recorder.record_bye(worker)
            with self._bye_seen:
                self.byes.add(int(worker))
                self._bye_seen.notify_all()
        # Unknown kinds are ignored: a newer worker build must not be
        # able to crash the parent's drain thread.

    def _drain_loop(self) -> None:
        while True:
            try:
                msg = self.queue.get()
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            if msg is None:  # finish()'s sentinel: nothing is queued behind it
                return
            try:
                self._handle(msg)
            except Exception:  # pragma: no cover - recorder closed mid-run
                pass

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "TelemetryBus":
        self._thread.start()
        return self

    def finish(self, expected: set[int], *, grace_s: float = DRAIN_GRACE_S) -> set[int]:
        """Stop draining; returns the shards that never sent ``bye``.

        Waits up to *grace_s* for the *expected* shards' ``bye`` markers
        — a worker that exited normally flushed its queue feeder before
        dying, so its ``bye`` is already in flight; a killed worker's
        silence is what the caller turns into a ``worker_lost`` event.
        Then puts the stop sentinel and joins the drain thread, which
        handles every message queued ahead of the sentinel first.
        """
        expected = set(expected)
        with self._bye_seen:
            self._bye_seen.wait_for(lambda: expected <= self.byes,
                                    timeout=grace_s)
        self.queue.put(None)
        self._thread.join(timeout=2.0)
        # A worker killed while writing can wedge the pipe: the sentinel
        # left undelivered must not make interpreter exit wait for it.
        self.queue.cancel_join_thread()
        self.queue.close()
        return expected - self.byes


def worker_telemetry(
    worker: int,
    *,
    queue: Any = None,
    recorder: Any = None,
    items_total: int = 0,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> tuple[BusSender, HeartbeatThread]:
    """Build the worker-side pair: a sender plus its heartbeat thread."""
    sender = BusSender(worker, queue=queue, recorder=recorder)
    sender.items_total = int(items_total)
    return sender, HeartbeatThread(sender, interval=heartbeat_s)

