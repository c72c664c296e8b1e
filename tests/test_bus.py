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
import itertools
import json
import multiprocessing as mp
import os
import re
import threading
import time

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.analysis.recovery_measure import recovery_times_balls
from repro.balls.rules import ABKURule
from repro.experiments.base import shard_sizes
from repro.experiments.campaign import run_campaign
from repro.obs.bus import (
    BATCH_RECORDS,
    BusSender,
    HeartbeatThread,
    TelemetryBus,
    worker_telemetry,
)
from repro.obs.recorder import RunRecorder, load_run, observe_run
from repro.obs.timeseries import (
    latest_heartbeats,
    load_heartbeats,
    points_by_lane,
    workers_of,
)
from repro.obs.watch import TERMINAL_STATUSES, render_frame, watch
from repro.utils.parallel import _run_shard, parallel_replica_map


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

    def record_batch(self, worker, records):
        for kind, *body in records:
            if kind == "point":
                self.record_point(*body, worker=worker)
            else:
                self.record_monitor(*body, worker=worker)

    def record_heartbeat(self, worker, payload):
        self.heartbeats.append((worker, payload))

    def record_bye(self, worker):
        self.byes.append(worker)


class _QueueDouble:
    """A bus queue that logs each message it is handed."""

    def __init__(self, log):
        self.log = log

    def put(self, msg):
        self.log.append(msg)


class _FleetDouble:
    """A FleetCheckpoint that logs each shard commit into the same log."""

    def __init__(self, log):
        self.log = log

    def read(self, shard):
        return None

    def write(self, shard, payload):
        self.log.append(("commit", shard, payload["records_sent"]))


# -- module-level worker fns (must pickle) -----------------------------------


def _probed_item(item, seed_seq):
    """Ship one worker-lane point through whatever recorder is active."""
    from repro.obs import runtime

    rec = runtime.get_recorder()
    if rec is not None:
        rec.record_point("test/series", int(item), {"value": float(item)})
    return int(item)


def _emit_points(item, seed_seq):
    """Emit *item* points (steps 0 .. item - 1) on the active recorder."""
    from repro.obs import runtime

    for step in range(item):
        runtime.record_point("test/batch", step, {"value": float(step)})
    return item


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


@pytest.mark.parametrize("per_item", [
    [0, 5, BATCH_RECORDS + 3, 2 * BATCH_RECORDS, 1],
    [BATCH_RECORDS - 1, BATCH_RECORDS, BATCH_RECORDS + 1],
    [],
], ids=["mixed", "around-cap", "no-items"])
def test_queue_lane_ships_batches_before_each_shard_commit(per_item):
    log = []
    sender = BusSender(2, queue=_QueueDouble(log))
    pairs = [(k, None) for k in per_item]
    outs = _run_shard(2, _emit_points, pairs, {}, False, sender, None,
                      _FleetDouble(log))
    assert [result for result, _ in outs] == per_item
    messages = [m for m in log if m[0] != "commit"]
    n_points = sum(per_item)
    # Not one message per point: at most one per item, one per
    # BATCH_RECORDS, and the bye.
    assert len(messages) <= (
        len(per_item) + -(-n_points // BATCH_RECORDS) + 1
    )
    assert messages[-1] == ("bye", 2)
    assert all(m[0] == "batch" and m[1] == 2 and 0 < len(m[2]) <= BATCH_RECORDS
               for m in messages[:-1])
    # Every record of item i is on the bus before shard i's commit, and
    # none of item i + 1's is.
    put, commits = 0, []
    for m in log:
        if m[0] == "batch":
            put += len(m[2])
        elif m[0] == "commit":
            commits.append((put, m[2]))
    assert commits == [(c, c) for c in itertools.accumulate(per_item)]
    # A batch keeps emission order.
    assert [r[2] for m in messages[:-1] for r in m[2]] == [
        step for n in per_item for step in range(n)
    ]


def test_queue_lane_heartbeat_counts_emitted_points():
    log = []
    sender = BusSender(1, queue=_QueueDouble(log))
    for step in range(3):
        sender.record_point("s", step, {})
    sender.heartbeat()
    assert [m[0] for m in log] == ["heartbeat"]
    assert log[0][2]["points"] == 3
    sender.bye()
    assert [m[0] for m in log] == ["heartbeat", "batch", "bye"]


def test_record_batch_writes_the_per_record_bytes(tmp_path):
    records = [("point", "s", 0, {"max": 1.0}),
               ("monitor", {"monitor": "recovered", "series": "s", "step": 0}),
               ("point", "s", 1, {"max": 2.0})]
    one = RunRecorder(str(tmp_path / "one"))
    for kind, *body in records:
        if kind == "point":
            one.record_point(*body, worker=1)
        else:
            one.record_monitor(*body, worker=1)
    one.record_point("s", 5, {"max": 3.0})
    one.finish()
    batch = RunRecorder(str(tmp_path / "batch"))
    batch.record_batch(1, records)
    batch.record_point("s", 5, {"max": 3.0})
    batch.finish()
    for name in ("timeseries.jsonl", "events.jsonl"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "batch" / name).read_bytes())
    metas = [load_run(str(tmp_path / d)).meta for d in ("one", "batch")]
    assert [(m["timeseries"], m["monitor_events"]) for m in metas] == [
        ({"s": 1, "s#w1": 2}, 1)
    ] * 2


def test_bus_finish_handles_everything_queued_before_the_sentinel():
    rec = _Recorder()
    bus = TelemetryBus(rec, mp.get_context(), heartbeat_s=0.0).start()
    sender = BusSender(0, queue=bus.queue)
    n = 3 * BATCH_RECORDS + 7
    for step in range(n):
        sender.record_point("s", step, {})
    sender.record_monitor({"monitor": "recovered", "series": "s", "step": n})
    sender.flush()
    # No bye is awaited, so the sentinel goes straight in behind the
    # batches; the drain thread must still handle all of them.
    assert bus.finish(set()) == set()
    assert not bus._thread.is_alive()
    assert [p[1] for p in rec.points] == list(range(n))
    assert rec.points[0][3] == 0
    assert rec.monitors == [
        ({"monitor": "recovered", "series": "s", "step": n}, 0)
    ]
    assert bus.points_received == n


def test_bus_finish_waits_for_byes_and_reports_silent_lanes():
    rec = _Recorder()
    bus = TelemetryBus(rec, mp.get_context(), heartbeat_s=0.0).start()
    late = threading.Timer(0.05, BusSender(0, queue=bus.queue).bye)
    late.start()
    assert bus.finish({0}, grace_s=5.0) == set()
    assert rec.byes == [0]
    late.join(timeout=2.0)
    assert not late.is_alive()
    bus = TelemetryBus(rec, mp.get_context(), heartbeat_s=0.0).start()
    BusSender(1, queue=bus.queue).bye()
    assert bus.finish({0, 1}, grace_s=0.05) == {0}
    assert not bus._thread.is_alive()


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


def test_cli_scenario_b_campaign_is_judged_against_claim53(tmp_path, capsys):
    """Pooled scenario-B monitors carry Claim 5.3's envelope, not Theorem 1's."""
    from repro.cli import main
    from repro.coupling.recovery import claim53_bound

    out = str(tmp_path / "b")
    assert main([
        "campaign", "--scenario", "b", "--n", "32", "--replicas", "8",
        "--processes", "2", "--probe-every", "1", "--seed", "7", "--out", out,
    ]) == 0
    events = load_run(out).monitor_events
    assert len(events) == 8
    assert {(e["bound_step"], e["within_bound"]) for e in events} == {
        (claim53_bound(32, 32), True)
    }
    capsys.readouterr()
    assert main(["obs", "summarize", out]) == 0
    report = capsys.readouterr().out
    assert report.count("within bound") == 8
    assert "OUTSIDE bound" not in report


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


@pytest.mark.parametrize("kw, why", [
    (dict(batch=0), "batch must be >= 1, got 0"),
    (dict(batch=-3), "batch must be >= 1, got -3"),
    (dict(batch=64, engine="scalar"), "batch=64 needs engine='vectorized'"),
    (dict(batch=2, engine="exact"), "batch=2 needs engine='vectorized'"),
], ids=["zero", "negative", "scalar", "exact"])
def test_run_campaign_rejects_bad_batch(tmp_path, kw, why):
    # batch < 1 used to run (only batch > 1 was branched on), and
    # batch > 1 on an engine without segment kernels was ignored.
    out = tmp_path / "x"
    with pytest.raises(ValueError, match=re.escape(why)):
        run_campaign(
            n=3, processes=1, out=str(out), **{"engine": "vectorized", **kw}
        )
    assert not out.exists()


_BAD_CAMPAIGN_ARGS = [
    (dict(n=0), ["--n", "0"], "n must be >= 1, got 0"),
    (dict(n=1, m=0), ["--n", "1", "--m", "0"], "m must be >= 1, got 0"),
    (dict(d=0), ["--d", "0"], "d must be >= 1, got 0"),
    (dict(replicas=0), ["--replicas", "0"], "replicas must be >= 1, got 0"),
    (dict(replicas=-3), ["--replicas", "-3"], "replicas must be >= 1, got -3"),
    (dict(processes=0), ["--processes", "0"], "processes must be >= 1, got 0"),
    (dict(processes=-1), ["--processes", "-1"], "processes must be >= 1, got -1"),
    (dict(max_steps=0), ["--max-steps", "0"], "max_steps must be >= 1, got 0"),
    (dict(max_steps=-1), ["--max-steps", "-1"], "max_steps must be >= 1, got -1"),
    (dict(probe_every=-1), ["--probe-every", "-1"],
     "probe_every must be >= 0, got -1"),
    (dict(save_every=-5), ["--save-every", "-5"],
     "save_every must be >= 0, got -5"),
    (dict(target=-1), ["--target", "-1"], "target=-1 is below ceil(m/n) = 1"),
    (dict(n=4, m=9, target=2, engine="vectorized"),
     ["--n", "4", "--m", "9", "--target", "2", "--engine", "vectorized"],
     "target=2 is below ceil(m/n) = 3"),
]


@pytest.mark.parametrize(
    "kw, argv, why", _BAD_CAMPAIGN_ARGS,
    ids=[" ".join(argv) for _, argv, _ in _BAD_CAMPAIGN_ARGS],
)
def test_campaign_config_rejects_bad_arguments(tmp_path, capsys, kw, argv, why):
    # Rejected before the run directory exists: run on, these values
    # give a nan median (replicas=0), record processes <= 0 in
    # meta.json, run every replica to the step cap (a target below
    # ceil(m/n) is unreachable while m balls stay), or fail deep in
    # numpy or the metrics registry after meta.json is written.
    from repro.cli import main
    from repro.experiments.campaign import campaign_config

    with pytest.raises(ValueError, match=re.escape(why)):
        campaign_config(**kw)
    out = tmp_path / "x"
    assert main(["campaign", *argv, "--out", str(out)]) == 2
    assert f"error: {why}" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_config_accepts_the_boundary_values():
    from repro.experiments.campaign import campaign_config

    cfg = campaign_config(n=4, m=9, target=3, processes=None,
                          probe_every=0, save_every=0, max_steps=1)
    assert (cfg["target"], cfg["processes"]) == (3, None)
    # The exact engine measures TV recovery and never reads the target.
    assert campaign_config(engine="exact", target=0)["target"] == 0


def test_recovery_times_rejects_bad_batch():
    from repro.balls.load_vector import LoadVector
    from repro.engine import VectorizedEngine, registered_specs

    bp = VectorizedEngine.make(
        registered_specs()["scenario_a"], LoadVector.all_in_one(8, 4), 2, seed=0
    )
    for batch in (0, -3):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            bp.recovery_times(2, 50, batch=batch)
    assert bp.t == 0


def test_cli_campaign_bad_batch_exits_2_without_run_dir(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "x"
    code = main(["campaign", "--n", "8", "--batch", "0", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: batch must be >= 1" in captured.err
    assert "campaign run dir" not in captured.out
    assert "watch live" not in captured.out
    assert not out.exists()


def test_bus_disabled_outside_observe_run():
    # No recorder, no obs: the pooled path must not build a bus.
    assert not obs.enabled()
    outs = parallel_replica_map(_probed_item, range(4), seed=1, processes=2)
    assert outs == [0, 1, 2, 3]
