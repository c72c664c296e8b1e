"""Live terminal view of a probed run: ``python -m repro obs watch <run-dir>``.

Tails ``timeseries.jsonl`` while (or after) a probed run writes it,
rendering one frame per refresh:

* a header — run dir, stream schema, probe decimation, run status
  (``running…`` until ``meta.json`` appears; the recorder writes it
  only at finalization, including interrupted finalization);
* one line per probe series — point count, last step, a sparkline of
  the headline stat over the most recent window, and its current
  value; a parallel campaign's worker-tagged series additionally
  render one indented lane per worker plus a fleet-aggregate line
  (per-step cross-lane mean folded through the Chan/Welford merge in
  :mod:`repro.obs.streamstats`);
* a worker panel over ``heartbeats.jsonl`` — last beat age, replica
  progress, RSS, points emitted (shipped or still buffered) — flagging
  ``STALLED`` lanes whose heartbeats stopped while the run is still
  live;
* fired recovery-monitor events with their bound verdicts;
* a throughput line — probe steps/s measured between refreshes, and an
  ETA when the run's metadata declares a step target
  (``steps_total``), formatted via the ProgressReporter helpers.

The loop exits when ``meta.json`` reaches a terminal status
(``ok``/``error``/``failed``/``interrupted``); ``--follow`` keeps
tailing regardless, for directories that are re-run in place.

Everything renders from the artifact alone, so watching a live run, a
finished one, or a truncated one from a killed process all degrade to
whatever the stream holds — same tolerance contract as ``summarize``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any

from repro.experiments.base import format_duration
from repro.obs.streamstats import Welford
from repro.obs.timeseries import (
    header_of,
    latest_heartbeats,
    load_heartbeats,
    load_timeseries,
    monitor_events,
    points_by_series,
    stat_track,
    workers_of,
)
from repro.utils.ascii_plot import sparkline

__all__ = ["render_frame", "watch", "headline_stat", "TERMINAL_STATUSES"]

#: ``meta.json`` statuses that end a (non ``--follow``) watch loop.
TERMINAL_STATUSES = frozenset({"ok", "error", "failed", "interrupted"})

#: A live worker whose last heartbeat is older than this is flagged.
STALL_AFTER_S = 5.0

#: Preferred headline stat per point schema, in priority order.
_HEADLINES = ("max", "tv", "mean", "value", "distance")

#: Sparkline window: the most recent points shown per series.
_WINDOW = 48


def headline_stat(points: list[dict]) -> str | None:
    """Pick the stat a series' sparkline should show.

    Prefers the conventional names (max load, TV distance, fleet mean),
    falling back to the first scalar stat of the last point, so unknown
    probe schemas still render.
    """
    if not points:
        return None
    stats = points[-1].get("stats", {})
    if not isinstance(stats, dict):
        return None
    for name in _HEADLINES:
        if isinstance(stats.get(name), (int, float)) and not isinstance(
            stats.get(name), bool
        ):
            return name
    for name, value in stats.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return name
    return None


def _load_meta(run_dir: str) -> dict:
    """Tolerant ``meta.json`` read: missing/corrupt → ``{}`` (run live or killed)."""
    path = os.path.join(run_dir, "meta.json")
    try:
        with open(path) as f:
            meta = json.load(f)
        return meta if isinstance(meta, dict) else {}
    except (OSError, json.JSONDecodeError):
        return {}


def _monitor_line(e: dict) -> str:
    head = f"  [{e.get('monitor', 'monitor')}] {e.get('series', '?')}"
    body = f" fired at step {e.get('step', '?')} (value {e.get('value', '?')}"
    thr = e.get("threshold")
    if thr is not None:
        body += f" <= {thr}"
    body += ")"
    if "bound_step" in e:
        verdict = "within" if e.get("within_bound") else "OUTSIDE"
        body += f" — bound {e['bound_step']}: {verdict}"
    return head + body


def _series_line(label: str, stat: str, steps, values, n_points: int,
                 width: int) -> str:
    tail = values[-width:]
    return (
        f"{label} [{stat}] {sparkline(tail)} "
        f"last={values[-1]:g} @ step {steps[-1]} "
        f"(min {min(values):g}, max {max(values):g}, {n_points} pts)"
    )


def _fleet_track(lanes: dict[int, list[dict]], stat: str) -> tuple[list, list]:
    """Per-step cross-lane mean of *stat*: the fleet-aggregate track.

    Each probed step's lane values fold through one Welford batch merge
    (Chan et al.), mirroring how the probes themselves aggregate fleets.
    """
    by_step: dict[int, list[float]] = {}
    for points in lanes.values():
        for step, value in zip(*stat_track(points, stat)):
            by_step.setdefault(step, []).append(value)
    steps = sorted(by_step)
    means: list[float] = []
    for step in steps:
        agg = Welford()
        agg.update_many(by_step[step])
        means.append(agg.mean)
    return steps, means


def _worker_panel(heartbeats: list[dict], *, live: bool,
                  now: float | None = None) -> list[str]:
    """Render the per-worker liveness panel from the heartbeat stream."""
    latest = latest_heartbeats(heartbeats)
    if not latest:
        return []
    now = time.time() if now is None else now
    lines = ["workers:"]
    for worker in sorted(latest):
        r = latest[worker]
        age = max(0.0, now - float(r.get("at", now)))
        if r.get("type") == "bye":
            lines.append(f"  w{worker} done (bye {age:.1f}s ago)")
            continue
        done = r.get("items_done")
        total = r.get("items_total")
        progress = f"{done}/{total} items" if total else f"{done} items"
        rss_kb = r.get("rss_kb") or 0
        detail = f"{progress}, {r.get('points', 0)} pts"
        if rss_kb:
            detail += f", rss {rss_kb / 1024:.1f} MB"
        if live and age > STALL_AFTER_S:
            lines.append(
                f"  w{worker} STALLED — last beat {age:.1f}s ago ({detail})"
            )
        else:
            lines.append(f"  w{worker} ♥ {age:.1f}s ago — {detail}")
    return lines


def render_frame(
    run_dir: str,
    *,
    width: int = _WINDOW,
    rate: float | None = None,
    eta_s: float | None = None,
) -> str:
    """Render one watch frame of *run_dir* (pure: reads files, returns text)."""
    records, corrupt = load_timeseries(run_dir)
    heartbeats, hb_corrupt = load_heartbeats(run_dir)
    corrupt += hb_corrupt
    meta = _load_meta(run_dir)
    header = header_of(records)
    status = meta.get("status", "running…")
    lines = [
        f"watch {run_dir} — status {status}, "
        f"schema {header.get('schema', '?')}, "
        f"probe_every {header.get('probe_every', '?')}"
    ]
    workers = workers_of(records)
    if workers:
        lines[0] += f", {len(workers)} worker lane(s)"
    if status not in ("ok", "error", "failed"):
        from repro.checkpoint.store import checkpoint_step

        ckpt_step = meta.get("last_checkpoint_step")
        if ckpt_step is None:
            ckpt_step = checkpoint_step(run_dir)
        if ckpt_step is not None:
            lines.append(
                f"  resumable at step {ckpt_step}: "
                f"python -m repro resume {run_dir}"
            )
    if corrupt:
        lines.append(f"  warning: {corrupt} corrupt line(s) skipped (truncated run?)")
    series = points_by_series(records)
    if not series:
        lines.append("  (no probe points yet)")
    for name, points in sorted(series.items()):
        stat = headline_stat(points)
        if stat is None:
            lines.append(f"  {name}: {len(points)} points (no scalar stats)")
            continue
        lanes: dict[int, list[dict]] = {}
        for p in points:
            if isinstance(p.get("worker"), int):
                lanes.setdefault(p["worker"], []).append(p)
        if len(lanes) > 1:
            # Fleet view: the cross-lane mean first, one lane per worker
            # beneath it.
            steps, means = _fleet_track(lanes, stat)
            if means:
                lines.append(
                    _series_line(
                        f"  {name}", f"fleet mean {stat}", steps, means,
                        len(points), width,
                    )
                )
            for worker in sorted(lanes):
                w_steps, w_values = stat_track(lanes[worker], stat)
                if not w_values:
                    continue
                lines.append(
                    _series_line(
                        f"    w{worker}", stat, w_steps, w_values,
                        len(lanes[worker]), width,
                    )
                )
            continue
        steps, values = stat_track(points, stat)
        if not values:
            lines.append(f"  {name}: {len(points)} points (no {stat} values)")
            continue
        lines.append(
            _series_line(f"  {name}", stat, steps, values, len(points), width)
        )
    lines.extend(_worker_panel(heartbeats, live=status not in TERMINAL_STATUSES))
    fired = monitor_events(records)
    if fired:
        lines.append("monitors:")
        lines.extend(_monitor_line(e) for e in fired)
    if "duration_s" in meta:
        lines.append(f"finished in {format_duration(float(meta['duration_s']))}")
    elif rate is not None:
        tail = f"{rate:.0f} steps/s"
        if eta_s is not None:
            tail += f", eta ~{format_duration(eta_s)}"
        lines.append(f"throughput: {tail}")
    return "\n".join(lines)


def watch(
    run_dir: str,
    *,
    interval: float = 1.0,
    frames: int | None = None,
    once: bool = False,
    follow: bool = False,
    stream: Any = None,
) -> int:
    """Tail *run_dir* until the run reaches a terminal status.

    Each refresh re-reads the stream and prints a frame; on a TTY the
    screen is cleared between frames, elsewhere frames are separated by
    a rule so piped output stays line-oriented.  The loop ends when
    ``meta.json`` carries a :data:`TERMINAL_STATUSES` status (*follow*
    keeps tailing anyway), after *frames* frames, or after one frame
    with *once*.  Returns 0; raises :class:`FileNotFoundError` when
    *run_dir* never appears.
    """
    out = stream if stream is not None else sys.stdout
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"{run_dir!r} is not a run directory")
    is_tty = bool(getattr(out, "isatty", lambda: False)())
    rendered = 0
    prev: tuple[float, int] | None = None
    while True:
        records, _ = load_timeseries(run_dir)
        last_step = 0
        for r in records:
            if r.get("type") == "point":
                last_step = max(last_step, int(r.get("step", 0)))
        now = time.perf_counter()
        rate = None
        eta_s = None
        if prev is not None and now > prev[0] and last_step > prev[1]:
            rate = (last_step - prev[1]) / (now - prev[0])
            meta = _load_meta(run_dir)
            total = meta.get("steps_total")
            if isinstance(total, (int, float)) and total > last_step and rate > 0:
                eta_s = (float(total) - last_step) / rate
        prev = (now, last_step)
        frame = render_frame(run_dir, rate=rate, eta_s=eta_s)
        if is_tty:
            print("\x1b[2J\x1b[H" + frame, file=out, flush=True)
        else:
            if rendered:
                print("-" * 72, file=out, flush=True)
            print(frame, file=out, flush=True)
        rendered += 1
        terminal = _load_meta(run_dir).get("status") in TERMINAL_STATUSES
        if once or (terminal and not follow) or (
            frames is not None and rendered >= frames
        ):
            return 0
        time.sleep(interval)
