"""Run-artifact recording: ``runs/<id>/events.jsonl`` + ``meta.json``.

A :class:`RunRecorder` captures per-checkpoint time series (max load,
empirical TV distance, coalescence fraction, coupling distance) and
trace events into a structured run directory:

* ``events.jsonl`` — one JSON object per line: ``{"type": "sample",
  "series": ..., "step": ..., "value": ...}`` for time-series points
  and ``{"type": "span", ...}`` for stage timings (see
  :mod:`repro.obs.trace`);
* ``meta.json`` — seed, scale, config, git revision, interpreter and
  numpy versions, wall-clock bounds, final metrics snapshot.

:func:`observe_run` is the one-stop context manager the experiment
harness and CLI use: it enables observability, installs a recorder and
a JSONL-sinked tracer, scopes a fresh metrics registry to the run, and
finalizes the artifact on exit (also on error).  :func:`load_run`
reads an artifact back for reports and tests.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import shutil
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import runtime
from repro.obs.metrics import scoped_registry
from repro.obs.timeseries import (
    HEARTBEAT_FILE,
    HEARTBEAT_SCHEMA,
    TIMESERIES_FILE,
    TIMESERIES_SCHEMA,
    load_heartbeats,
    load_timeseries,
)
from repro.obs.trace import Tracer, set_tracer

__all__ = [
    "RunRecorder",
    "RunArtifact",
    "observe_run",
    "observe_resumed_run",
    "load_run",
    "git_revision",
    "gc_runs",
]

#: Per-series cap on persisted samples; overflow is counted, not stored,
#: so a runaway trajectory cannot blow up the artifact.
MAX_SAMPLES_PER_SERIES = 4096

#: Per-series cap on persisted timeseries points (probe decimation keeps
#: real runs far below this; the cap bounds misconfigured ones).
MAX_POINTS_PER_SERIES = 16384

_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _line(obj: dict) -> str:
    """One compact JSONL line (the bytes every stream writes)."""
    return _ENCODE(obj) + "\n"


def git_revision(start_dir: str | None = None) -> str | None:
    """Best-effort git HEAD revision, reading ``.git`` directly (no subprocess).

    Walks up from *start_dir* (default: this file's repo) to find a
    ``.git`` directory; returns ``None`` when there is none or the ref
    cannot be resolved.
    """
    d = os.path.abspath(start_dir or os.path.dirname(__file__))
    while True:
        git_dir = os.path.join(d, ".git")
        if os.path.isdir(git_dir):
            break
        parent = os.path.dirname(d)
        if parent == d:
            return None
        d = parent
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref:"):
            return head or None
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip() or None
        packed = os.path.join(git_dir, "packed-refs")
        if os.path.exists(packed):
            with open(packed) as f:
                for line in f:
                    line = line.strip()
                    if line.endswith(ref) and not line.startswith("#"):
                        return line.split()[0]
    except OSError:
        return None
    return None


def _points_key(series: str, lane: int) -> str:
    """The per-lane point-cap key (``meta.json``'s ``timeseries`` map)."""
    return series if lane < 0 else f"{series}#w{lane}"


class RunRecorder:
    """Streams run events to ``<run_dir>/events.jsonl`` and keeps them in memory."""

    def __init__(
        self,
        run_dir: str,
        *,
        meta: dict | None = None,
        _resume: dict | None = None,
    ):
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.meta: dict[str, Any] = dict(meta or {})
        self.series: dict[str, tuple[list[int], list[float]]] = {}
        self.events: list[dict] = []
        self.dropped: dict[str, int] = {}
        self.points: dict[str, int] = {}
        self.monitors: list[dict] = []
        self._started_wall = time.time()
        self._started_perf = time.perf_counter()
        self._ts_file: Any = None  # lazily opened on the first point
        self._ts_header: dict | None = None
        #: Every timeseries line (encoded once, newline included) with
        #: its lane key (-1 = the parent), kept so :meth:`finish` can
        #: canonicalize a multi-lane stream without re-encoding it.
        self._ts_records: list[tuple[int, str]] = []
        self._hb_file: Any = None  # lazily opened on the first heartbeat
        self._hb_append = False
        #: Forces an events.jsonl rewrite at finish (set by lane
        #: truncation, which edits the in-memory list past the file).
        self._events_dirty = False
        self._closed = False
        # Background producers (the bench resource sampler) emit from
        # their own thread; serialize writes against the main thread.
        self._write_lock = threading.Lock()
        if _resume is None:
            self._file = open(os.path.join(run_dir, "events.jsonl"), "w")
        else:
            self._load_resume(_resume)
        self._install_exit_flush()

    @classmethod
    def resume(
        cls, run_dir: str, *, meta: dict | None = None, keep: dict | None = None
    ) -> "RunRecorder":
        """Reopen an interrupted run's artifact for append-after-resume.

        Existing streams are parsed tolerantly (a line truncated by the
        kill is dropped), the post-checkpoint tail is truncated per
        *keep*, the files are rewritten in place, and the recorder then
        appends as usual — so the finished artifact is byte-identical
        to an uninterrupted run's.

        *keep* fields (all optional):

        * ``"events"`` — keep only the first N ``events.jsonl`` lines
          (single-lane runs: the parent checkpoint's event cursor);
        * ``"monitors"`` — ``{lane: count}`` monitor-event quotas
          (pooled fleets: per-shard cursors; lanes absent from the map
          are dropped entirely and replay);
        * ``"lanes"`` — ``{lane: count}`` ``timeseries.jsonl`` record
          quotas, same convention (lane ``-1`` is the parent).

        ``worker_lost`` monitor events are always dropped: they
        describe the attempt being resumed, not the resumed run.
        """
        return cls(run_dir, meta=meta, _resume=dict(keep or {}))

    def _load_resume(self, keep: dict) -> None:
        """Parse + truncate + rewrite the streams (constructor helper)."""
        events_path = os.path.join(self.run_dir, "events.jsonl")
        parsed: list[dict] = []
        if os.path.exists(events_path):
            with open(events_path) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # the kill's torn tail line
                    if isinstance(event, dict):
                        parsed.append(event)
        events_keep = keep.get("events")
        monitor_quota = keep.get("monitors")
        kept: list[dict] = []
        if events_keep is not None:
            for event in parsed[: int(events_keep)]:
                if event.get("monitor") != "worker_lost":
                    kept.append(event)
        else:
            remaining = {
                int(k): int(v) for k, v in (monitor_quota or {}).items()
            }
            for event in parsed:
                if event.get("type") != "monitor":
                    kept.append(event)
                    continue
                if event.get("monitor") == "worker_lost":
                    continue
                lane = int(event.get("worker", -1))
                if remaining.get(lane, 0) > 0:
                    remaining[lane] -= 1
                    kept.append(event)
        self.events = kept
        self.monitors = [e for e in kept if e.get("type") == "monitor"]
        for event in kept:
            if event.get("type") == "sample":
                steps, values = self.series.setdefault(
                    event["series"], ([], [])
                )
                steps.append(int(event["step"]))
                values.append(float(event["value"]))
        self._file = open(events_path, "w")
        self._file.writelines(_line(event) for event in kept)
        self._file.flush()
        # -- timeseries.jsonl --------------------------------------------------
        ts_path = os.path.join(self.run_dir, TIMESERIES_FILE)
        lane_quota = keep.get("lanes")
        if os.path.exists(ts_path):
            records: list[tuple[int, str]] = []
            lane_seen: dict[int, int] = {}
            with open(ts_path) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail
                    if not isinstance(record, dict):
                        continue
                    if record.get("type") == "header":
                        self._ts_header = record
                        continue
                    if record.get("monitor") == "worker_lost":
                        continue
                    lane = int(record.get("worker", -1))
                    seen = lane_seen.get(lane, 0)
                    lane_seen[lane] = seen + 1
                    if lane_quota is not None and seen >= int(
                        lane_quota.get(lane, lane_quota.get(str(lane), 0))
                    ):
                        continue
                    records.append((lane, _line(record)))
                    if record.get("type") == "point":
                        key = _points_key(record["series"], lane)
                        self.points[key] = self.points.get(key, 0) + 1
            self._ts_records = records
            if self._ts_header is None and not records:
                # Nothing parseable survived (killed before the header
                # landed): start the stream from scratch, lazily, so
                # the header picks up the resumed run's probe interval.
                os.remove(ts_path)
            else:
                if self._ts_header is None:  # records without a header
                    self._ts_header = {
                        "type": "header",
                        "schema": TIMESERIES_SCHEMA,
                        "probe_every": runtime.probe_interval(),
                    }
                self._ts_file = open(ts_path, "w")
                self._ts_file.write(_line(self._ts_header))
                self._ts_file.writelines(line for _, line in records)
                self._ts_file.flush()
        self._hb_append = True

    # -- interrupted-run safety -----------------------------------------------

    def _install_exit_flush(self) -> None:
        """Keep partial artifacts on interrupt: atexit + SIGINT flush.

        A run killed mid-flight used to lose the buffered tail of
        ``events.jsonl``/``timeseries.jsonl`` (and its ``meta.json``
        entirely).  The atexit hook finalizes the artifact with status
        ``interrupted`` if nobody called :meth:`finish`; the SIGINT
        handler flushes the streams before chaining to the previous
        handler (normally ``KeyboardInterrupt``, whose unwind runs the
        regular finalization).  Both are torn down in :meth:`finish`.
        """
        atexit.register(self._atexit_finish)
        self._prev_sigint: Any = None
        if threading.current_thread() is not threading.main_thread():
            return
        try:
            prev = signal.getsignal(signal.SIGINT)

            def _flush_then_chain(signum, frame):
                self.flush()
                if callable(prev):
                    prev(signum, frame)
                else:  # pragma: no cover - SIG_IGN/SIG_DFL handler installed
                    raise KeyboardInterrupt
            signal.signal(signal.SIGINT, _flush_then_chain)
            self._prev_sigint = prev
        except (ValueError, OSError):  # pragma: no cover - exotic signal state
            self._prev_sigint = None

    def _atexit_finish(self) -> None:
        """Interpreter exiting with the recorder still open: finalize."""
        self.finish(status="interrupted")

    def _teardown_exit_flush(self) -> None:
        try:
            atexit.unregister(self._atexit_finish)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
        if self._prev_sigint is not None:
            try:
                if threading.current_thread() is threading.main_thread():
                    signal.signal(signal.SIGINT, self._prev_sigint)
            except (ValueError, OSError):  # pragma: no cover
                pass
            self._prev_sigint = None

    def flush(self) -> None:
        """Flush the open JSONL streams to disk (safe from handlers)."""
        with self._write_lock:
            if self._closed:
                return
            self._file.flush()
            if self._ts_file is not None:
                self._ts_file.flush()
            if self._hb_file is not None:
                self._hb_file.flush()

    # -- event capture --------------------------------------------------------

    def emit(self, event: dict) -> None:
        """Append one raw event (also the tracer's sink); thread-safe.

        Events are flushed line-by-line: they are checkpoint-rate (span
        closes, decimated samples), so the flush is cheap, and it makes
        artifacts of killed runs lossless up to the last event.
        """
        with self._write_lock:
            if self._closed:
                return
            self.events.append(event)
            self._file.write(_line(event))
            self._file.flush()

    def _ts_stream(self) -> Any:
        """``timeseries.jsonl``, opened with its header on first use."""
        if self._ts_file is None:
            self._ts_file = open(os.path.join(self.run_dir, TIMESERIES_FILE), "w")
            self._ts_header = {"type": "header", "schema": TIMESERIES_SCHEMA,
                               "probe_every": runtime.probe_interval()}
            self._ts_file.write(_line(self._ts_header))
        return self._ts_file

    def _admit_point(self, key: str) -> bool:
        """Count one point against its lane cap (caller holds the lock)."""
        count = self.points.get(key, 0)
        if count >= MAX_POINTS_PER_SERIES:
            key = f"timeseries/{key}"
            self.dropped[key] = self.dropped.get(key, 0) + 1
            return False
        self.points[key] = count + 1
        return True

    def record_batch(self, worker: int, records: list) -> None:
        """Record one lane's records, in emission order (thread-safe).

        *records* are the :mod:`repro.obs.bus` batch tuples,
        ``("point", series, step, stats)`` and ``("monitor", event)``;
        *worker* is the fleet lane (-1 = the parent, whose lines carry
        no ``worker`` tag).  Each record is encoded once, and each
        stream is written and flushed once per call — once per line for
        the one-record calls of :meth:`record_point` /
        :meth:`record_monitor`.
        """
        lane = int(worker)
        ts_lines: list[str] = []
        event_lines: list[str] = []
        with self._write_lock:
            if self._closed:
                return
            for kind, *body in records:
                if kind == "point":
                    series, step, stats = body
                    if not self._admit_point(_points_key(series, lane)):
                        continue
                    record = {"type": "point", "series": series,
                              "step": int(step), "stats": stats}
                else:
                    record = {**body[0], "type": "monitor"}
                if lane >= 0:
                    record["worker"] = lane
                line = _line(record)
                if kind != "point":
                    self.monitors.append(record)
                    self.events.append(record)
                    event_lines.append(line)
                self._ts_records.append((lane, line))
                ts_lines.append(line)
            if event_lines:
                self._file.writelines(event_lines)
                self._file.flush()
            if ts_lines:
                f = self._ts_stream()
                f.writelines(ts_lines)
                f.flush()

    def record_point(
        self, series: str, step: int, stats: dict, *, worker: int | None = None
    ) -> None:
        """Record one probe point into ``timeseries.jsonl`` (capped per lane).

        *worker* tags the point with its fleet lane (the shard index a
        telemetry-bus message came from); the per-series point cap is
        keyed per lane so one chatty shard cannot starve the others.
        """
        lane = -1 if worker is None else worker
        self.record_batch(lane, [("point", series, step, stats)])

    def record_monitor(self, event: dict, *, worker: int | None = None) -> None:
        """Record one recovery-monitor event (both streams; thread-safe)."""
        lane = -1 if worker is None else worker
        self.record_batch(lane, [("monitor", event)])

    def record_heartbeat(self, worker: int, payload: dict) -> None:
        """Record one worker liveness sample into ``heartbeats.jsonl``.

        Heartbeats carry wall-clock timestamps and RSS, so they live in
        their own stream: ``timeseries.jsonl`` stays a deterministic
        function of the seed, ``heartbeats.jsonl`` is explicitly not.
        """
        self._hb_write(
            {"type": "heartbeat", "worker": int(worker), "at": time.time(),
             **payload}
        )

    def record_bye(self, worker: int) -> None:
        """Record a worker's clean-exit marker (heartbeat stream)."""
        self._hb_write({"type": "bye", "worker": int(worker), "at": time.time()})

    def _hb_write(self, record: dict) -> None:
        with self._write_lock:
            if self._closed:
                return
            if self._hb_file is None:
                path = os.path.join(self.run_dir, HEARTBEAT_FILE)
                # Resumed runs append: heartbeats are wall-clock truth,
                # so the interrupted attempt's beats stay on record.
                append = (
                    self._hb_append
                    and os.path.exists(path)
                    and os.path.getsize(path) > 0
                )
                self._hb_file = open(path, "a" if append else "w")
                if not append:
                    header = {"type": "header", "schema": HEARTBEAT_SCHEMA}
                    self._hb_file.write(_line(header))
            self._hb_file.write(_line(record))
            self._hb_file.flush()

    def record(self, series: str, step: int, value: float) -> None:
        """Record one time-series sample (capped per series, see module doc)."""
        steps, values = self.series.setdefault(series, ([], []))
        if len(steps) >= MAX_SAMPLES_PER_SERIES:
            self.dropped[series] = self.dropped.get(series, 0) + 1
            return
        step = int(step)
        value = float(value)
        steps.append(step)
        values.append(value)
        self.emit({"type": "sample", "series": series, "step": step, "value": value})

    def set_meta(self, **kv) -> None:
        """Merge key/value pairs into the run metadata."""
        self.meta.update(kv)

    # -- checkpoint/resume cursors ---------------------------------------------

    def stream_state(self) -> dict:
        """Stream cursors for a checkpoint: what a resume must keep.

        ``events`` counts ``events.jsonl`` lines, ``lanes`` counts
        ``timeseries.jsonl`` records per lane (-1 = parent), and
        ``monitors`` counts monitor events per lane — exactly the
        *keep* argument :meth:`resume` consumes.
        """
        with self._write_lock:
            lanes: dict[int, int] = {}
            for lane, _ in self._ts_records:
                lanes[lane] = lanes.get(lane, 0) + 1
            monitors: dict[int, int] = {}
            for event in self.events:
                if event.get("type") == "monitor":
                    lane = int(event.get("worker", -1))
                    monitors[lane] = monitors.get(lane, 0) + 1
            return {
                "events": len(self.events),
                "lanes": lanes,
                "monitors": monitors,
            }

    def truncate_lane(self, worker: int, *, records: int, monitors: int) -> None:
        """Drop a lane's tail past its shard checkpoint (worker restart).

        Called by the fleet runner before re-dispatching a lane whose
        worker died: everything the dead worker streamed after its last
        committed shard checkpoint will be re-emitted by the replay, so
        the in-memory copies are trimmed to the checkpoint's cursors
        (``worker_lost`` markers for the lane go too).  The files are
        reconciled at :meth:`finish` by the canonical rewrites.
        """
        lane = int(worker)
        with self._write_lock:
            kept_ts: list[tuple[int, str]] = []
            points: dict[str, int] = {}
            count = 0
            for w, line in self._ts_records:
                record = json.loads(line)
                if w == lane:
                    if record.get("monitor") == "worker_lost" or count >= records:
                        continue
                    count += 1
                kept_ts.append((w, line))
                if record.get("type") == "point":
                    key = _points_key(record["series"], w)
                    points[key] = points.get(key, 0) + 1
            self._ts_records = kept_ts
            self.points = points
            kept_events: list[dict] = []
            mcount = 0
            for event in self.events:
                if (
                    event.get("type") == "monitor"
                    and int(event.get("worker", -1)) == lane
                ):
                    if event.get("monitor") == "worker_lost":
                        continue
                    if mcount < monitors:
                        kept_events.append(event)
                        mcount += 1
                    continue
                kept_events.append(event)
            self.events = kept_events
            self.monitors = [
                e for e in kept_events if e.get("type") == "monitor"
            ]
            self._events_dirty = True

    # -- finalization ----------------------------------------------------------

    def _canonicalize_timeseries(self) -> None:
        """Rewrite ``timeseries.jsonl`` in lane order (caller holds the lock).

        Live streaming interleaves lanes in queue-arrival order, which
        is wall-clock dependent.  Each lane's *own* records arrive in
        emission order (per-producer FIFO), so a stable sort on the
        lane key — parent records first, then worker 0, 1, ... — makes
        the finished file a byte-identical function of the seed.  A
        single-lane stream is already canonical and is left untouched,
        byte-for-byte.
        """
        if self._ts_file is None or all(w < 0 for w, _ in self._ts_records):
            return
        ordered = sorted(self._ts_records, key=lambda pair: pair[0])
        path = os.path.join(self.run_dir, TIMESERIES_FILE)
        with open(path, "w") as f:
            f.write(_line(self._ts_header))
            f.writelines(line for _, line in ordered)

    def _canonicalize_events(self) -> None:
        """Rewrite ``events.jsonl`` in lane order (caller holds the lock).

        Monitor events from a pooled fleet land in queue-arrival order,
        which is wall-clock dependent — the same nondeterminism the
        timeseries rewrite fixes.  A stable sort on the worker tag
        (parent events, tagged -1, first) makes the finished file a
        function of the seed.  Single-lane streams are untouched unless
        a lane truncation made the in-memory list the only truth.
        """
        multi_lane = any("worker" in e for e in self.events)
        if not (multi_lane or self._events_dirty):
            return
        ordered = sorted(
            self.events, key=lambda e: int(e.get("worker", -1))
        )
        path = os.path.join(self.run_dir, "events.jsonl")
        with open(path, "w") as f:
            f.writelines(_line(event) for event in ordered)

    def finish(self, *, status: str = "ok", metrics: dict | None = None) -> None:
        """Flush events and write ``meta.json`` (idempotent)."""
        with self._write_lock:
            if self._closed:
                return
            self._closed = True
            self._file.close()
            if self._ts_file is not None:
                self._ts_file.close()
            if self._hb_file is not None:
                self._hb_file.close()
            self._canonicalize_timeseries()
            self._canonicalize_events()
        self._teardown_exit_flush()
        meta = {
            "status": status,
            "started_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime(self._started_wall)
            ),
            "duration_s": round(time.perf_counter() - self._started_perf, 6),
            "git_rev": git_revision(),
            "python": platform.python_version(),
            "argv": sys.argv,
            "series": {
                name: len(steps) for name, (steps, _) in sorted(self.series.items())
            },
            "dropped_samples": dict(sorted(self.dropped.items())),
        }
        if self.points:
            meta["timeseries"] = dict(sorted(self.points.items()))
        if self.monitors:
            meta["monitor_events"] = len(self.monitors)
        try:
            import numpy

            meta["numpy"] = numpy.__version__
        except Exception:  # pragma: no cover - numpy is a hard dep in practice
            pass
        if metrics is not None:
            meta["metrics"] = metrics
        meta.update(self.meta)
        path = os.path.join(self.run_dir, "meta.json")
        with open(path, "w") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish(status="ok" if exc_type is None else "error")
        return False


@dataclass
class RunArtifact:
    """A run directory read back into memory (see :func:`load_run`)."""

    run_dir: str
    meta: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    #: Parsed ``timeseries.jsonl`` records (header + points + monitors).
    timeseries: list = field(default_factory=list)
    #: Parsed ``heartbeats.jsonl`` records (worker liveness; wall-clock).
    heartbeats: list = field(default_factory=list)
    #: Lines of events.jsonl / timeseries.jsonl that failed to parse
    #: (truncated run).
    corrupt_lines: int = 0

    @property
    def spans(self) -> list[dict]:
        """The span events, in completion order."""
        return [e for e in self.events if e.get("type") == "span"]

    @property
    def monitor_events(self) -> list[dict]:
        """Recovery-monitor events (from either stream, deduplicated)."""
        seen: set[tuple] = set()
        out: list[dict] = []
        for e in self.events + self.timeseries:
            if e.get("type") != "monitor":
                continue
            key = (e.get("monitor"), e.get("series"), e.get("step"),
                   e.get("worker"))
            if key in seen:
                continue
            seen.add(key)
            out.append(e)
        return out

    @property
    def points(self) -> dict[str, list[dict]]:
        """Timeseries points regrouped as ``series -> [point, ...]``."""
        out: dict[str, list[dict]] = {}
        for e in self.timeseries:
            if e.get("type") == "point" and "series" in e:
                out.setdefault(e["series"], []).append(e)
        return out

    @property
    def workers(self) -> list[int]:
        """Worker lanes seen in the timeseries or heartbeat streams."""
        lanes = {
            e["worker"]
            for e in self.timeseries + self.heartbeats
            if isinstance(e.get("worker"), int)
        }
        return sorted(lanes)

    @property
    def series(self) -> dict[str, tuple[list[int], list[float]]]:
        """Sample events regrouped as ``name -> (steps, values)``."""
        out: dict[str, tuple[list[int], list[float]]] = {}
        for e in self.events:
            if e.get("type") != "sample":
                continue
            steps, values = out.setdefault(e["series"], ([], []))
            steps.append(int(e["step"]))
            values.append(float(e["value"]))
        return out


def load_run(run_dir: str) -> RunArtifact:
    """Read a run artifact directory written by :class:`RunRecorder`.

    Tolerates partial artifacts from crashed or killed runs: a corrupt
    ``meta.json`` or truncated ``events.jsonl`` lines are counted in
    ``corrupt_lines`` and skipped, never raised — the summarize report
    degrades to whatever survived.
    """
    meta_path = os.path.join(run_dir, "meta.json")
    events_path = os.path.join(run_dir, "events.jsonl")
    if not os.path.exists(meta_path) and not os.path.exists(events_path):
        raise FileNotFoundError(f"{run_dir!r} holds no meta.json / events.jsonl")
    meta: dict = {}
    corrupt = 0
    if os.path.exists(meta_path):
        try:
            with open(meta_path) as f:
                meta = json.load(f)
        except (json.JSONDecodeError, OSError):
            corrupt += 1
    events: list[dict] = []
    if os.path.exists(events_path):
        with open(events_path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    corrupt += 1
                    continue
                if isinstance(event, dict):
                    events.append(event)
                else:
                    corrupt += 1
    timeseries, ts_corrupt = load_timeseries(run_dir)
    heartbeats, hb_corrupt = load_heartbeats(run_dir)
    return RunArtifact(
        run_dir=run_dir,
        meta=meta,
        events=events,
        timeseries=timeseries,
        heartbeats=heartbeats,
        corrupt_lines=corrupt + ts_corrupt + hb_corrupt,
    )


def gc_runs(
    runs_dir: str = "runs", *, keep: int = 10, apply: bool = False
) -> dict[str, Any]:
    """Prune old run directories under *runs_dir*, newest-*keep* survive.

    Only directories that look like run artifacts (holding a
    ``meta.json`` or ``events.jsonl``) are candidates — anything else
    under *runs_dir* is left alone.  Age is directory mtime.  Dry-run
    unless *apply*; returns ``{"kept": [...], "pruned": [...],
    "applied": bool}`` with paths sorted newest first.
    """
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    candidates: list[tuple[float, str]] = []
    if os.path.isdir(runs_dir):
        for name in os.listdir(runs_dir):
            path = os.path.join(runs_dir, name)
            if not os.path.isdir(path):
                continue
            if not (
                os.path.exists(os.path.join(path, "meta.json"))
                or os.path.exists(os.path.join(path, "events.jsonl"))
            ):
                continue
            candidates.append((os.path.getmtime(path), path))
    candidates.sort(reverse=True)
    kept = [p for _, p in candidates[:keep]]
    pruned = [p for _, p in candidates[keep:]]
    if apply:
        for path in pruned:
            shutil.rmtree(path, ignore_errors=True)
    return {"kept": kept, "pruned": pruned, "applied": apply}


@contextmanager
def observe_run(
    run_dir: str,
    *,
    meta: dict | None = None,
    trace: bool = True,
    probe_every: int = 0,
) -> Iterator[RunRecorder]:
    """Observe one run: enable instrumentation, record into *run_dir*.

    Installs a :class:`RunRecorder` as the active recorder, a tracer
    whose span events stream into ``events.jsonl`` (when *trace*), and
    a fresh scoped metrics registry whose final snapshot lands in
    ``meta.json``.  *probe_every* > 0 additionally turns on per-step
    chain probes at that decimation (see :mod:`repro.obs.probes`),
    streaming ``timeseries.jsonl`` points.  All global state is
    restored on exit, and the artifact is finalized even if the body
    raises.
    """
    rec = RunRecorder(run_dir, meta=meta)
    yield from _observe(rec, trace=trace, probe_every=probe_every)


@contextmanager
def observe_resumed_run(
    run_dir: str,
    *,
    meta: dict | None = None,
    trace: bool = False,
    probe_every: int = 0,
    keep: dict | None = None,
    metrics: dict | None = None,
) -> Iterator[RunRecorder]:
    """:func:`observe_run` for a run resumed from a checkpoint.

    The recorder reopens the interrupted artifact via
    :meth:`RunRecorder.resume` (truncating the post-checkpoint tail per
    *keep*), and the scoped metrics registry is pre-seeded with the
    checkpoint's *metrics* snapshot — so the finished artifact, its
    series counts, and its counter totals are byte-identical to an
    uninterrupted run's.
    """
    rec = RunRecorder.resume(run_dir, meta=meta, keep=keep)
    rec.set_meta(resumed=True)
    yield from _observe(
        rec, trace=trace, probe_every=probe_every, metrics=metrics
    )


def _observe(
    rec: RunRecorder,
    *,
    trace: bool,
    probe_every: int,
    metrics: dict | None = None,
) -> Iterator[RunRecorder]:
    """Shared switch dance of the fresh and resumed observers."""
    was_enabled = runtime.enabled()
    runtime.enable()
    prev_rec = runtime.set_recorder(rec)
    prev_probe = runtime.set_probe_interval(probe_every)
    prev_tracer = set_tracer(Tracer(sink=rec.emit)) if trace else None
    status = "error"
    with scoped_registry() as reg:
        if metrics:
            reg.merge(metrics)
        try:
            yield rec
            status = "ok"
        finally:
            if trace:
                set_tracer(prev_tracer)
            runtime.set_probe_interval(prev_probe)
            runtime.set_recorder(prev_rec)
            if not was_enabled:
                runtime.disable()
            rec.finish(status=status, metrics=reg.snapshot())
