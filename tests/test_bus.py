"""Fleet telemetry bus: cross-process streaming, lanes, robustness.

Covers the PR-7 tentpole end to end: workers ship decimated probe
points / monitor events / heartbeats to the parent recorder over a
``multiprocessing`` queue; the finished ``timeseries.jsonl`` is
canonicalized (byte-identical per seed and process count); a killed
worker surfaces as a ``worker_lost`` monitor event on a still-readable
artifact; ``obs watch`` renders per-worker lanes, a fleet-aggregate
track, and exits on terminal status.
"""

from __future__ import annotations

import io
import json
import os
import time

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.analysis.recovery_measure import recovery_times_balls
from repro.balls.rules import ABKURule
from repro.experiments.base import shard_sizes
from repro.experiments.campaign import run_campaign
from repro.obs.bus import BusSender, HeartbeatThread, worker_telemetry
from repro.obs.recorder import load_run, observe_run
from repro.obs.timeseries import (
    latest_heartbeats,
    load_heartbeats,
    points_by_lane,
    workers_of,
)
from repro.obs.watch import TERMINAL_STATUSES, render_frame, watch
from repro.utils.parallel import parallel_replica_map


class _Recorder:
    """Minimal recorder double capturing tagged bus traffic."""

    def __init__(self):
        self.points = []
        self.monitors = []
        self.heartbeats = []
        self.byes = []

    def record_point(self, series, step, stats, *, worker=None):
        self.points.append((series, step, stats, worker))

    def record_monitor(self, event, *, worker=None):
        self.monitors.append((event, worker))

    def record_heartbeat(self, worker, payload):
        self.heartbeats.append((worker, payload))

    def record_bye(self, worker):
        self.byes.append(worker)


# -- module-level worker fns (must pickle) -----------------------------------


def _probed_item(item, seed_seq):
    """Ship one worker-lane point through whatever recorder is active."""
    from repro.obs import runtime

    rec = runtime.get_recorder()
    if rec is not None:
        rec.record_point("test/series", int(item), {"value": float(item)})
    return int(item)


def _die_on(item, seed_seq, *, victim):
    _probed_item(item, seed_seq)
    if int(item) == int(victim):
        time.sleep(0.3)  # let sibling shards finish + say bye first
        os._exit(1)
    return int(item)


# -- BusSender / heartbeat units ---------------------------------------------


def test_bus_sender_tags_worker_lane():
    rec = _Recorder()
    sender = BusSender(3, recorder=rec)
    sender.record_point("s", 10, {"max": 2.0})
    sender.record_monitor({"monitor": "recovered", "series": "s", "step": 10})
    sender.heartbeat()
    sender.bye()
    assert rec.points == [("s", 10, {"max": 2.0}, 3)]
    assert rec.monitors[0][1] == 3
    assert rec.heartbeats[0][0] == 3
    assert rec.heartbeats[0][1]["points"] == 1
    assert rec.byes == [3]
    # Span/sample surface is accepted and dropped worker-side.
    sender.record("x", 0, 1.0)
    sender.emit({})
    sender.flush()


def test_bus_sender_requires_exactly_one_sink():
    with pytest.raises(ValueError):
        BusSender(0)
    with pytest.raises(ValueError):
        BusSender(0, recorder=_Recorder(), queue=object())


def test_heartbeat_thread_beats_and_stops():
    rec = _Recorder()
    sender, hb = worker_telemetry(1, recorder=rec, items_total=4,
                                  heartbeat_s=0.02)
    assert isinstance(hb, HeartbeatThread)
    hb.start()
    time.sleep(0.1)
    hb.stop()
    n = len(rec.heartbeats)
    assert n >= 2  # immediate first beat + at least one periodic
    time.sleep(0.06)
    assert len(rec.heartbeats) == n  # stopped means stopped
    assert rec.heartbeats[0][1]["items_total"] == 4


def test_shard_sizes_partition():
    assert shard_sizes(10, 3) == [4, 3, 3]
    assert shard_sizes(2, 8) == [1, 1]
    assert shard_sizes(5, 1) == [5]
    with pytest.raises(ValueError):
        shard_sizes(0, 2)
    with pytest.raises(ValueError):
        shard_sizes(4, 0)


# -- cross-process streaming --------------------------------------------------


def _parallel_run(tmp_path, name, *, fn=_probed_item, processes=2,
                  items=8, **kwargs):
    run_dir = str(tmp_path / name)
    err = None
    try:
        with observe_run(run_dir, meta={"case": name}, trace=False):
            parallel_replica_map(
                fn, range(items), seed=7, processes=processes,
                heartbeat_s=0.05, **kwargs,
            )
    except Exception as e:  # the kill test needs the artifact anyway
        err = e
    return run_dir, err


def test_parallel_campaign_streams_worker_lanes(tmp_path):
    run_dir, err = _parallel_run(tmp_path, "fleet")
    assert err is None
    art = load_run(run_dir)
    assert art.workers == [0, 1]
    lanes = points_by_lane(art.timeseries)
    # Contiguous sharding: worker 0 took items 0-3, worker 1 items 4-7.
    assert sorted(p["step"] for p in lanes[("test/series", 0)]) == [0, 1, 2, 3]
    assert sorted(p["step"] for p in lanes[("test/series", 1)]) == [4, 5, 6, 7]
    # Heartbeats landed in their own stream, every lane said bye.
    hb, corrupt = load_heartbeats(run_dir)
    assert corrupt == 0
    latest = latest_heartbeats(hb)
    assert sorted(latest) == [0, 1]
    assert all(r["type"] == "bye" for r in latest.values())


def test_parallel_timeseries_bytes_reproduce(tmp_path):
    d1, _ = _parallel_run(tmp_path, "a")
    d2, _ = _parallel_run(tmp_path, "b")
    ts1 = (tmp_path / "a" / "timeseries.jsonl").read_bytes()
    ts2 = (tmp_path / "b" / "timeseries.jsonl").read_bytes()
    assert ts1 == ts2
    # Canonical order: lanes sorted by worker, header first.
    records = [json.loads(line) for line in ts1.splitlines()]
    assert records[0]["type"] == "header"
    lanes = [r["worker"] for r in records[1:] if "worker" in r]
    assert lanes == sorted(lanes)


def test_inline_path_matches_pooled_results(tmp_path):
    r1, _ = _parallel_run(tmp_path, "p1", processes=1)
    r2, _ = _parallel_run(tmp_path, "p2", processes=2)
    a1 = load_run(r1)
    a2 = load_run(r2)
    # processes=1 runs one inline lane; the shipped steps are the same
    # item set either way.
    steps = lambda art: sorted(
        p["step"] for pts in points_by_lane(art.timeseries).values()
        for p in pts
    )
    assert steps(a1) == steps(a2)
    assert a1.workers == [0]


def test_scalar_recovery_parity_across_process_counts():
    rule = ABKURule(2)
    serial = recovery_times_balls(
        rule, 16, 16, 5, replicas=4, seed=11, processes=1, max_steps=100_000
    )
    fanned = recovery_times_balls(
        rule, 16, 16, 5, replicas=4, seed=11, processes=2, max_steps=100_000
    )
    assert np.array_equal(serial, fanned)


def test_vectorized_sharded_recovery_is_deterministic():
    rule = ABKURule(2)
    kw = dict(replicas=5, seed=3, engine="vectorized", processes=2,
              max_steps=100_000)
    a = recovery_times_balls(rule, 16, 16, 5, **kw)
    b = recovery_times_balls(rule, 16, 16, 5, **kw)
    assert np.array_equal(a, b)
    assert a.shape == (5,)
    assert (a >= 0).all()


# -- worker-crash robustness --------------------------------------------------


def test_killed_worker_leaves_readable_artifact(tmp_path):
    # Four items across two shards; the victim is shard 1's last item,
    # so shard 0 finishes (and says bye) before the pool breaks.
    run_dir, err = _parallel_run(
        tmp_path, "crash", fn=_die_on, items=4, victim=3,
    )
    assert isinstance(err, BrokenProcessPool)
    art = load_run(run_dir)
    assert art.meta.get("status") == "error"
    lanes = points_by_lane(art.timeseries)
    # The surviving shard's points made it onto the artifact.
    assert sorted(p["step"] for p in lanes[("test/series", 0)]) == [0, 1]
    lost = [e for e in art.monitor_events if e.get("monitor") == "worker_lost"]
    assert len(lost) == 1
    assert lost[0]["worker"] == 1
    # The dead lane never said bye.
    latest = latest_heartbeats(load_heartbeats(run_dir)[0])
    assert latest[0]["type"] == "bye"
    assert latest[1]["type"] == "heartbeat"


# -- watch rendering / exit ---------------------------------------------------


def test_render_frame_shows_fleet_and_worker_lanes(tmp_path):
    run_dir, _ = _parallel_run(tmp_path, "frame")
    frame = render_frame(run_dir)
    assert "2 worker lane(s)" in frame
    assert "fleet mean value" in frame
    assert "w0" in frame and "w1" in frame
    assert "workers:" in frame
    assert "done (bye" in frame


def test_watch_exits_on_terminal_status_and_follow_overrides(tmp_path):
    run_dir, _ = _parallel_run(tmp_path, "done")
    assert load_run(run_dir).meta["status"] in TERMINAL_STATUSES
    out = io.StringIO()
    # Terminal status: one frame, then return — no --once needed.
    assert watch(run_dir, interval=0.01, stream=out) == 0
    assert out.getvalue().count("watch ") == 1
    out = io.StringIO()
    # --follow keeps tailing; the frame cap stops the test.
    assert watch(run_dir, interval=0.01, follow=True, frames=3,
                 stream=out) == 0
    assert out.getvalue().count("watch ") == 3


def test_watch_flags_stalled_worker(tmp_path):
    from repro.obs.watch import _worker_panel

    beats = [
        {"type": "heartbeat", "worker": 0, "at": time.time() - 60.0,
         "items_done": 1, "items_total": 4, "points": 2, "rss_kb": 2048},
    ]
    live = _worker_panel(beats, live=True)
    assert any("STALLED" in line for line in live)
    finished = _worker_panel(beats, live=False)
    assert not any("STALLED" in line for line in finished)


# -- the campaign driver ------------------------------------------------------


def test_run_campaign_produces_live_artifact(tmp_path):
    out = str(tmp_path / "campaign")
    summary = run_campaign(
        n=16, replicas=4, processes=2, probe_every=5,
        heartbeat_s=0.05, max_steps=100_000, seed=5, out=out,
    )
    assert summary["run_dir"] == out
    assert summary["capped"] == 0
    assert summary["times"].shape == (4,)
    art = load_run(out)
    assert art.meta["status"] == "ok"
    assert art.meta["steps_total"] == 100_000
    assert art.workers == [0, 1]
    assert workers_of(art.timeseries) == [0, 1]
    assert any(
        series == "scenario_a/chain"
        for series, _ in points_by_lane(art.timeseries)
    )


def test_run_campaign_rejects_bad_scenario(tmp_path):
    with pytest.raises(ValueError):
        run_campaign(scenario="c", out=str(tmp_path / "x"))


@pytest.mark.parametrize("kw", [
    dict(save_every=0, processes=2),
    dict(save_every=5, processes=1),
    dict(save_every=5, processes=2, engine="exact"),
], ids=["no-save-every", "serial", "exact"])
def test_run_campaign_rejects_restart_lost_without_fleet_checkpoints(
    tmp_path, kw
):
    # Only pooled sampling runs with save_every > 0 write the fleet
    # checkpoints a lost shard replays from; elsewhere the knob would
    # silently do nothing.
    out = tmp_path / "x"
    with pytest.raises(ValueError, match="restart_lost=2 needs fleet checkpoints"):
        run_campaign(n=3, restart_lost=2, out=str(out), **kw)
    assert not out.exists()


def test_run_campaign_seed_kinds(tmp_path):
    # save_every=0 takes any SeedLike; a checkpointed run stores its
    # seed in the checkpoint's JSON config, so only int or None fits.
    kw = dict(n=4, replicas=2, processes=1, probe_every=0)
    a = run_campaign(seed=np.random.SeedSequence(3), out=str(tmp_path / "a"), **kw)
    b = run_campaign(seed=3, out=str(tmp_path / "b"), **kw)
    assert list(a["times"]) == list(b["times"])
    with pytest.raises(ValueError, match="int or None seed"):
        run_campaign(seed=np.random.SeedSequence(3), save_every=5,
                     out=str(tmp_path / "c"), **kw)
    assert not (tmp_path / "c").exists()


def test_cli_campaign_restart_lost_without_save_every_exits_2(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "x"
    code = main(["campaign", "--n", "3", "--restart-lost", "2",
                 "--out", str(out)])
    assert code == 2
    assert "error: restart_lost=2 needs fleet checkpoints" in capsys.readouterr().err
    assert not out.exists()


def test_bus_disabled_outside_observe_run():
    # No recorder, no obs: the pooled path must not build a bus.
    assert not obs.enabled()
    outs = parallel_replica_map(_probed_item, range(4), seed=1, processes=2)
    assert outs == [0, 1, 2, 3]
