"""Per-step probes, recovery monitors, timeseries stream, and obs watch."""

import json
import os
import signal
import threading

import numpy as np
import pytest

from repro import obs
from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule, UniformRule
from repro.engine.exact import ExactEngine
from repro.engine.scalar import ScalarEngine
from repro.engine.spec import open_spec, scenario_a_spec
from repro.engine.vectorized import VectorizedProcess
from repro.obs.probes import (
    ChainProbe,
    ThresholdMonitor,
    max_load_recovery_monitor,
    recovery_target,
)
from repro.obs.recorder import RunRecorder, load_run
from repro.obs.timeseries import (
    TIMESERIES_FILE,
    TIMESERIES_SCHEMA,
    load_timeseries,
    stat_track,
)


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability and probes off."""
    obs.disable()
    obs.set_probe_interval(0)
    yield
    obs.disable()
    obs.set_probe_interval(0)
    obs.set_tracer(None)
    obs.set_recorder(None)


def _probed_run(run_dir, *, seed=7, steps=400, every=5, n=6, m=30):
    spec = scenario_a_spec(ABKURule(2))
    with obs.observe_run(run_dir, meta={"seed": seed}, probe_every=every) as rec:
        proc = ScalarEngine.make(spec, LoadVector.all_in_one(m, n), seed=seed)
        proc.run(steps)
    return rec


class TestThresholdMonitor:
    def test_one_shot_with_bound_verdict(self, tmp_path):
        with obs.observe_run(str(tmp_path / "r")) as rec:
            mon = ThresholdMonitor("m", "s", 3.0, bound_step=10)
            assert mon.observe(1, 5.0) is None
            event = mon.observe(4, 2.0)
            assert event["step"] == 4 and event["within_bound"] is True
            assert mon.observe(5, 1.0) is None  # already fired
        assert len(rec.monitors) == 1
        assert rec.monitors[0]["monitor"] == "m"

    def test_outside_bound(self, tmp_path):
        with obs.observe_run(str(tmp_path / "r")):
            mon = ThresholdMonitor("m", "s", 3.0, bound_step=2)
            event = mon.observe(9, 0.0)
        assert event["within_bound"] is False

    def test_no_recorder_is_noop(self):
        mon = ThresholdMonitor("m", "s", 3.0)
        event = mon.observe(1, 0.0)
        assert event["monitor"] == "m" and mon.fired


class TestChainProbes:
    def test_scalar_run_streams_points_and_monitor(self, tmp_path):
        run_dir = str(tmp_path / "run")
        rec = _probed_run(run_dir)
        assert rec.points == {"scenario_a/chain": 80}
        assert rec.monitors and rec.monitors[0]["monitor"] == "max_load_recovery"
        records, corrupt = load_timeseries(run_dir)
        assert corrupt == 0
        assert records[0] == {
            "type": "header", "schema": TIMESERIES_SCHEMA, "probe_every": 5,
        }
        points = [r for r in records if r.get("type") == "point"]
        assert len(points) == 80
        assert all(p["step"] % 5 == 0 for p in points)
        stats = points[-1]["stats"]
        for key in ("max", "gap", "l2", "nonempty", "max_mean", "max_std",
                    "max_p90", "hist"):
            assert key in stats
        # The crash start (all 30 balls in one bin) must dominate the
        # observed history: max of the first point is near 30.
        steps, maxes = stat_track(points, "max")
        assert maxes[0] > maxes[-1]
        # Monitor events are mirrored into the timeseries stream.
        assert any(r.get("type") == "monitor" for r in records)

    def test_meta_records_timeseries_counts(self, tmp_path):
        run_dir = str(tmp_path / "run")
        _probed_run(run_dir)
        meta = json.load(open(os.path.join(run_dir, "meta.json")))
        assert meta["timeseries"] == {"scenario_a/chain": 80}
        assert meta["monitor_events"] == 1

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        _probed_run(a)
        _probed_run(b)
        raw_a = open(os.path.join(a, TIMESERIES_FILE), "rb").read()
        raw_b = open(os.path.join(b, TIMESERIES_FILE), "rb").read()
        assert raw_a == raw_b
        assert len(raw_a) > 0

    def test_probes_off_writes_no_timeseries(self, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = scenario_a_spec(ABKURule(2))
        with obs.observe_run(run_dir) as rec:  # probe_every defaults to 0
            ScalarEngine.make(spec, LoadVector.all_in_one(12, 4), seed=0).run(50)
        assert rec.points == {}
        assert not os.path.exists(os.path.join(run_dir, TIMESERIES_FILE))

    def test_open_spec_run_probes(self, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = open_spec(UniformRule(), max_balls=20)
        with obs.observe_run(run_dir, probe_every=4) as rec:
            proc = ScalarEngine.make(spec, LoadVector.all_in_one(10, 5), seed=3)
            proc.run(100)
        (series,) = rec.points
        assert series == f"{spec.name}/chain"
        assert rec.points[series] == 25

    def test_vectorized_run_probes(self, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = scenario_a_spec(ABKURule(2))
        with obs.observe_run(run_dir, probe_every=8) as rec:
            proc = VectorizedProcess(spec, LoadVector.all_in_one(16, 4), 12, seed=1)
            proc.run(64)
        series = f"batch/{spec.name}"
        assert rec.points[series] == 8
        records, _ = load_timeseries(run_dir)
        stats = [r for r in records if r.get("type") == "point"][-1]["stats"]
        for key in ("max", "mean", "std", "max_p90", "mean_run", "hist"):
            assert key in stats

    def test_vectorized_recovery_times_monitor(self, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = scenario_a_spec(ABKURule(2))
        with obs.observe_run(run_dir, probe_every=2) as rec:
            proc = VectorizedProcess(spec, LoadVector.all_in_one(20, 5), 8, seed=2)
            target = recovery_target(5, 20)
            times = proc.recovery_times(target, max_steps=4000)
        assert (times >= 0).all()
        fired = [m for m in rec.monitors if m["monitor"] == "max_load_recovery"]
        assert fired and fired[0]["threshold"] == float(target)
        # The whole-fleet monitor cannot fire before the slowest replica.
        assert fired[0]["step"] >= int(times.max())

    def test_vectorized_monitor_precedes_same_step_samples(self, tmp_path):
        """Events stay in step order, and at a step that is both a probe
        boundary and a power of two the monitor (probe observation)
        comes before that step's fleet samples."""
        run_dir = str(tmp_path / "run")
        spec = scenario_a_spec(ABKURule(2))
        with obs.observe_run(run_dir, trace=False, probe_every=2):
            proc = VectorizedProcess(spec, LoadVector.all_in_one(16, 16), 2, seed=0)
            proc.recovery_times(14, max_steps=100, batch=7)
        with open(os.path.join(run_dir, "events.jsonl")) as f:
            events = [json.loads(line) for line in f]
        (fired,) = [e for e in events if e["type"] == "monitor"]
        assert fired["step"] == 2
        keys = [(e["step"], e["type"] != "monitor") for e in events]
        assert keys == sorted(keys)


class TestRecoveryTargets:
    def test_recovery_target_shape(self):
        assert recovery_target(8, 64) == 8 + 3
        assert recovery_target(1, 0) == 1
        with pytest.raises(ValueError):
            recovery_target(0, 5)

    def test_theorem1_bound_attached_only_for_m_ge_2(self):
        assert max_load_recovery_monitor("s", 4, 1).bound_step is None
        assert max_load_recovery_monitor("s", 4, 10).bound_step is not None


class TestExactEvolve:
    def test_tv_decay_and_monitor_match(self, tmp_path):
        spec = scenario_a_spec(ABKURule(2))
        start = (5, 0, 0)
        run_dir = str(tmp_path / "run")
        with obs.observe_run(run_dir, probe_every=1) as rec:
            tv = ExactEngine.evolve(spec, start, 60, eps=0.25)
        assert tv.shape == (61,)
        assert tv[-1] < tv[0]
        fired = [m for m in rec.monitors if m["monitor"] == "tv_recovery"]
        assert len(fired) == 1
        event = fired[0]
        # The monitor's crossing step is exactly the first t with
        # d_TV(mu_t, pi) <= eps on the exact trajectory.
        first = int(np.argmax(tv <= 0.25))
        assert event["step"] == first
        assert event["value"] == pytest.approx(tv[first])
        assert event["within_bound"] is True  # Theorem 1 envelopes it
        records, _ = load_timeseries(run_dir)
        points = [r for r in records if r.get("type") == "point"]
        _, tvs = stat_track(points, "tv")
        assert tvs == pytest.approx(list(tv))

    def test_evolve_without_obs_is_pure(self):
        spec = scenario_a_spec(ABKURule(2))
        tv = ExactEngine.evolve(spec, (4, 0), 10)
        assert tv[0] == pytest.approx(
            ExactEngine.evolve(spec, (4, 0), 10)[0]
        )
        with pytest.raises(ValueError):
            ExactEngine.evolve(spec, (4, 0), -1)


class TestCoalescenceMonitor:
    def test_grand_coupling_emits_coalescence_event(self, tmp_path):
        from repro.coupling.grand import coalescence_time_spec

        spec = scenario_a_spec(ABKURule(2))
        run_dir = str(tmp_path / "run")
        with obs.observe_run(run_dir, probe_every=3) as rec:
            t = coalescence_time_spec(
                spec, (6, 0, 0), (2, 2, 2), max_steps=100_000, seed=5
            )
        assert t > 0
        fired = [m for m in rec.monitors if m["monitor"] == "coalescence"]
        assert len(fired) == 1
        assert fired[0]["step"] == t
        assert fired[0]["value"] == 0.0
        assert "bound_step" in fired[0]  # Theorem 1 for ball removal


class TestInterruptedRunFlush:
    def test_atexit_finalizes_partial_artifact(self, tmp_path):
        run_dir = str(tmp_path / "run")
        rec = RunRecorder(run_dir)
        rec.record("s", 1, 2.0)
        rec.record_point("p", 1, {"max": 3})
        # Simulate interpreter teardown with the recorder still open.
        rec._atexit_finish()
        meta = json.load(open(os.path.join(run_dir, "meta.json")))
        assert meta["status"] == "interrupted"
        art = load_run(run_dir)
        assert art.series["s"] == ([1], [2.0])
        assert [p["stats"]["max"] for p in art.points["p"]] == [3]
        # finish() after the atexit hook is a no-op (idempotent).
        rec.finish(status="ok")
        assert json.load(open(os.path.join(run_dir, "meta.json")))[
            "status"
        ] == "interrupted"

    def test_sigint_handler_flushes_then_chains(self, tmp_path):
        assert threading.current_thread() is threading.main_thread()
        rec = RunRecorder(str(tmp_path / "run"))
        try:
            handler = signal.getsignal(signal.SIGINT)
            assert handler is not signal.default_int_handler
            rec.emit({"type": "sample", "series": "x", "step": 1, "value": 1.0})
            with pytest.raises(KeyboardInterrupt):
                handler(signal.SIGINT, None)
            # The line hit the disk before the interrupt unwound.
            lines = open(str(tmp_path / "run" / "events.jsonl")).readlines()
            assert len(lines) == 1
        finally:
            rec.finish()
        # Teardown restored the previous handler.
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_flush_on_closed_recorder_is_safe(self, tmp_path):
        rec = RunRecorder(str(tmp_path / "run"))
        rec.finish()
        rec.flush()  # must not raise on closed files


class TestTimeseriesReader:
    def test_missing_file_is_empty_stream(self, tmp_path):
        records, corrupt = load_timeseries(str(tmp_path))
        assert records == [] and corrupt == 0

    def test_truncated_tail_is_counted_not_raised(self, tmp_path):
        run_dir = str(tmp_path / "run")
        _probed_run(run_dir, steps=50)
        path = os.path.join(run_dir, TIMESERIES_FILE)
        with open(path) as f:
            data = f.read()
        with open(path, "w") as f:
            f.write(data[:-20] + "\n")  # chop mid-record
        records, corrupt = load_timeseries(run_dir)
        assert corrupt == 1
        assert records[0]["type"] == "header"
        art = load_run(run_dir)
        assert art.corrupt_lines == 1
        assert art.points  # surviving points still load

    def test_stat_track_skips_missing_stats(self):
        points = [
            {"type": "point", "step": 1, "stats": {"max": 2}},
            {"type": "point", "step": 2, "stats": {"other": 1.0}},
            {"type": "point", "step": 3, "stats": {"max": True}},  # bool: skip
            {"type": "point", "step": 4, "stats": {"max": 4.5}},
        ]
        assert stat_track(points, "max") == ([1, 4], [2.0, 4.5])


class TestWatchAndSummarize:
    def test_render_frame_shows_series_and_monitors(self, tmp_path):
        run_dir = str(tmp_path / "run")
        _probed_run(run_dir)
        from repro.obs.watch import render_frame

        frame = render_frame(run_dir)
        assert "scenario_a/chain [max]" in frame
        assert "max_load_recovery" in frame
        assert "status ok" in frame
        assert "finished in" in frame

    def test_render_frame_on_live_run(self, tmp_path):
        # A run dir with a timeseries but no meta.json yet (still running).
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, TIMESERIES_FILE), "w") as f:
            f.write(json.dumps({"type": "header", "schema": TIMESERIES_SCHEMA,
                                "probe_every": 2}) + "\n")
            f.write(json.dumps({"type": "point", "series": "s", "step": 2,
                                "stats": {"max": 5}}) + "\n")
        from repro.obs.watch import render_frame

        frame = render_frame(run_dir)
        assert "status running…" in frame
        assert "s [max]" in frame

    def test_watch_once_and_missing_dir(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        _probed_run(run_dir)
        from repro.obs.watch import watch

        assert watch(run_dir, follow=False) == 0
        out = capsys.readouterr().out
        assert "scenario_a/chain" in out
        with pytest.raises(FileNotFoundError):
            watch(str(tmp_path / "nope"), follow=False)

    def test_summarize_renders_timeseries_sections(self, tmp_path):
        run_dir = str(tmp_path / "run")
        _probed_run(run_dir)
        from repro.obs import summarize_run

        report = summarize_run(run_dir)
        assert "probe timeseries" in report
        assert "recovery-monitor events" in report
        assert "within bound" in report

    def test_cli_obs_watch_once(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        _probed_run(run_dir)
        from repro.cli import main

        assert main(["obs", "watch", run_dir, "--once"]) == 0
        assert "scenario_a/chain" in capsys.readouterr().out
        assert main(["obs", "watch", str(tmp_path / "missing"), "--once"]) == 1

    def test_cli_experiment_probe_every(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "e01")
        code = main([
            "experiment", "E1", "--scale", "smoke", "--metrics-out", run_dir,
            "--probe-every", "50",
        ])
        assert code == 0
        assert os.path.exists(os.path.join(run_dir, TIMESERIES_FILE))
        records, _ = load_timeseries(run_dir)
        assert any(r.get("type") == "point" for r in records)


class TestFacade:
    def test_probe_interval_roundtrip(self):
        assert obs.probe_interval() == 0
        prev = obs.set_probe_interval(9)
        assert prev == 0 and obs.probe_interval() == 9
        obs.set_probe_interval(prev)
        with pytest.raises(ValueError):
            obs.set_probe_interval(-1)

    def test_record_point_without_recorder_is_noop(self):
        obs.record_point("s", 1, {"max": 1})  # must not raise
        obs.record_monitor({"monitor": "m", "step": 1})

    def test_chain_probe_without_recorder(self):
        probe = ChainProbe("s")
        probe.observe(1, np.array([3, 1, 0], dtype=np.int64))
        assert probe.max_stats.n == 1
