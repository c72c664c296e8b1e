"""Tests for the observability subsystem (repro.obs)."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()
    obs.set_tracer(None)
    obs.set_recorder(None)


class TestRegistry:
    def test_counter_arithmetic(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(41)
        assert reg.counter("x").value == 42
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1)
        reg.gauge("g").set(7.5)
        assert reg.gauge("g").value == 7.5

    def test_snapshot_merge_roundtrip(self):
        a = MetricsRegistry()
        a.counter("c").inc(3)
        a.gauge("g").set(2.0)
        b = MetricsRegistry()
        b.counter("c").inc(4)
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        assert b.counter("c").value == 3 + 3 + 4
        assert b.gauge("g").value == 2.0
        # Merge round-trips through JSON (the multiprocessing wire format).
        c = MetricsRegistry()
        c.merge(json.loads(json.dumps(b.snapshot())))
        assert c.snapshot() == b.snapshot()
        # Snapshots in older checkpoints also carry two always-empty
        # "timers"/"histograms" keys; they still merge.
        d = MetricsRegistry()
        d.merge({**a.snapshot(), "timers": {}, "histograms": {}})
        assert d.snapshot() == a.snapshot()

    def test_scoped_registry_swaps_default(self):
        outer = obs.metrics()
        with scoped_registry() as reg:
            assert obs.metrics() is reg
            obs.metrics().counter("inner").inc()
        assert obs.metrics() is outer
        assert reg.counter("inner").value == 1


class TestTrace:
    def test_span_nesting_depths(self):
        tracer = Tracer()
        obs.set_tracer(tracer)
        with obs.span("outer"):
            with obs.span("inner", size=3):
                pass
        names = [(e["name"], e["depth"], e["parent"]) for e in tracer.events]
        # Inner closes first.
        assert names == [("inner", 1, "outer"), ("outer", 0, None)]
        assert tracer.events[0]["attrs"] == {"size": 3}
        assert all(e["dur_s"] >= 0 for e in tracer.events)

    def test_span_records_error(self):
        tracer = Tracer()
        obs.set_tracer(tracer)
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert tracer.events[0]["error"] == "RuntimeError"

    def test_span_without_tracer_is_shared_noop(self):
        obs.set_tracer(None)
        s1 = obs.span("a")
        s2 = obs.span("b")
        assert s1 is s2  # the disabled fast path allocates nothing
        with s1:
            pass


class TestRecorder:
    def test_jsonl_round_trip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with obs.observe_run(run_dir, meta={"seed": 7, "scale": "smoke"}) as rec:
            with obs.span("stage"):
                obs.metrics().counter("phases").inc(5)
            for k in range(4):
                rec.record("max_load", k, 10.0 - k)
        art = obs.load_run(run_dir)
        assert art.meta["seed"] == 7
        assert art.meta["status"] == "ok"
        assert art.meta["metrics"]["counters"]["phases"] == 5
        steps, values = art.series["max_load"]
        assert steps == [0, 1, 2, 3]
        assert values == [10.0, 9.0, 8.0, 7.0]
        assert [s["name"] for s in art.spans] == ["stage"]
        # Every line of events.jsonl is standalone JSON.
        with open(os.path.join(run_dir, "events.jsonl")) as f:
            events = [json.loads(line) for line in f]
        assert len(events) == len(art.events)

    def test_observe_run_restores_state_on_error(self, tmp_path):
        run_dir = str(tmp_path / "bad")
        with pytest.raises(RuntimeError):
            with obs.observe_run(run_dir):
                assert obs.enabled()
                raise RuntimeError("boom")
        assert not obs.enabled()
        assert obs.get_tracer() is None
        assert obs.load_run(run_dir).meta["status"] == "error"

    def test_sample_cap(self, tmp_path):
        from repro.obs import recorder as rec_mod

        rec = rec_mod.RunRecorder(str(tmp_path / "cap"))
        old = rec_mod.MAX_SAMPLES_PER_SERIES
        rec_mod.MAX_SAMPLES_PER_SERIES = 3
        try:
            for k in range(10):
                rec.record("s", k, k)
        finally:
            rec_mod.MAX_SAMPLES_PER_SERIES = old
        rec.finish()
        art = obs.load_run(rec.run_dir)
        assert len(art.series["s"][0]) == 3
        assert art.meta["dropped_samples"] == {"s": 7}

    def test_load_run_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            obs.load_run(str(tmp_path / "nope"))


class TestDisabledNoOp:
    def test_disabled_run_records_nothing(self):
        from repro.balls.load_vector import LoadVector
        from repro.balls.rules import ABKURule
        from repro.balls.scenario_a import ScenarioAProcess

        with scoped_registry() as reg:
            proc = ScenarioAProcess(ABKURule(2), LoadVector.all_in_one(16, 16), seed=0)
            proc.run(50)
            proc.trajectory(10)
            proc.run_until(lambda v: v[0] <= 2, 100)
            assert len(reg) == 0
            assert reg.snapshot()["counters"] == {}

    def test_enabled_run_counts_phases(self):
        from repro.balls.load_vector import LoadVector
        from repro.balls.rules import ABKURule
        from repro.balls.scenario_b import ScenarioBProcess

        with scoped_registry() as reg:
            obs.enable()
            proc = ScenarioBProcess(ABKURule(2), LoadVector.all_in_one(16, 16), seed=0)
            proc.run(50)
            obs.disable()
        snap = reg.snapshot()
        assert snap["counters"]["scenario_b.phases"] == 50
        assert snap["counters"]["fact32.updates"] == 100
        assert snap["gauges"]["scenario_b.nonempty_bins"] >= 1

    def test_enabled_vs_disabled_same_trajectory(self):
        """Instrumentation must not consume randomness or change results."""
        from repro.balls.load_vector import LoadVector
        from repro.balls.rules import ABKURule
        from repro.balls.scenario_a import ScenarioAProcess

        def final_state(enabled):
            with scoped_registry():
                if enabled:
                    obs.enable()
                proc = ScenarioAProcess(
                    ABKURule(2), LoadVector.all_in_one(32, 32), seed=123
                )
                proc.run(500)
                obs.disable()
                return proc.state.loads

        np.testing.assert_array_equal(final_state(False), final_state(True))


class TestSummarize:
    def test_report_has_stages_series_counters(self, tmp_path):
        run_dir = str(tmp_path / "r")
        with obs.observe_run(run_dir, meta={"experiment_id": "E1"}) as rec:
            with obs.span("e01/run"):
                with obs.span("coalescence/size=8"):
                    obs.metrics().counter("coupling.phases").inc(12)
            for k in range(6):
                rec.record("coupling/max_load", 2**k, 32 / (k + 1))
                rec.record("tv_bound/size=8", 2**k, 1.0 / (k + 1))
        out = obs.summarize_run(run_dir)
        assert "stage timings" in out
        assert "e01/run" in out and "coalescence/size=8" in out
        assert "coupling/max_load" in out and "tv_bound/size=8" in out
        assert "coupling.phases" in out
        # Sparkline glyphs present for the recorded series.
        assert any(ch in out for ch in "▁▂▃▄▅▆▇█")

    def test_empty_run_dir(self, tmp_path):
        run_dir = str(tmp_path / "empty")
        obs.RunRecorder(run_dir).finish()
        out = obs.summarize_run(run_dir)
        assert "no spans" in out


class TestExperimentIntegration:
    def test_run_observed_writes_artifact(self, tmp_path):
        from repro.experiments.base import run_observed
        from repro.experiments.registry import get_experiment

        run_dir = str(tmp_path / "e9")
        result = run_observed(
            get_experiment("E9"), scale="smoke", seed=0,
            trace=True, metrics_out=run_dir,
        )
        assert result.telemetry["run_dir"] == run_dir
        assert os.path.exists(os.path.join(run_dir, "events.jsonl"))
        assert os.path.exists(os.path.join(run_dir, "meta.json"))
        art = obs.load_run(run_dir)
        assert art.meta["experiment_id"] == "E9"
        assert "run artifact" in result.render()
        assert not obs.enabled()

    def test_run_observed_plain_path_unchanged(self):
        from repro.experiments.base import run_observed
        from repro.experiments.registry import get_experiment

        result = run_observed(get_experiment("E9"), scale="smoke", seed=0)
        assert result.telemetry is None


class TestCliObs:
    def test_obs_summarize_cli(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "cli-run")
        with obs.observe_run(run_dir, meta={"scale": "smoke"}) as rec:
            with obs.span("stage"):
                pass
            rec.record("max_load", 0, 4.0)
        assert main(["obs", "summarize", run_dir]) == 0
        out = capsys.readouterr().out
        assert "stage timings" in out and "max_load" in out

    def test_experiment_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "e9-cli")
        assert main(
            ["experiment", "e9", "--trace", "--metrics-out", run_dir]
        ) == 0
        assert "[E9]" in capsys.readouterr().out
        assert os.path.exists(os.path.join(run_dir, "meta.json"))


class TestGracefulSummarize:
    """`obs summarize` must degrade, not crash, on damaged artifacts."""

    def test_truncated_events_line(self, tmp_path):
        run_dir = str(tmp_path / "trunc")
        with obs.observe_run(run_dir, meta={"experiment_id": "E1"}) as rec:
            with obs.span("stage"):
                pass
            rec.record("load", 0, 3.0)
        # Simulate a kill mid-write: chop the last event line in half.
        events = os.path.join(run_dir, "events.jsonl")
        with open(events) as f:
            lines = f.readlines()
        with open(events, "w") as f:
            f.writelines(lines[:-1])
            f.write(lines[-1][: len(lines[-1]) // 2])
        art = obs.load_run(run_dir)
        assert art.corrupt_lines == 1
        out = obs.summarize_run(run_dir)
        assert "warning: skipped 1 corrupt line(s)" in out
        assert "stage" in out  # intact prefix still reported

    def test_empty_events_missing_meta(self, tmp_path):
        run_dir = str(tmp_path / "empty")
        os.makedirs(run_dir)
        open(os.path.join(run_dir, "events.jsonl"), "w").close()
        out = obs.summarize_run(run_dir)
        assert "warning: meta.json missing or incomplete" in out
        assert "no spans" in out

    def test_cli_summarize_damaged_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "dmg")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "events.jsonl"), "w") as f:
            f.write('{"type": "span", "name": "s", "dur_s": 0.1}\n')
            f.write('{"type": "span", "name": "t", "dur')
        assert main(["obs", "summarize", run_dir]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "s" in out


class TestGcRuns:
    def _make_run(self, runs_dir, name, mtime):
        d = os.path.join(runs_dir, name)
        obs.RunRecorder(d).finish()
        os.utime(d, (mtime, mtime))
        return d

    def test_dry_run_keeps_everything(self, tmp_path):
        runs_dir = str(tmp_path / "runs")
        for i in range(4):
            self._make_run(runs_dir, f"r{i}", 1_000_000 + i)
        result = obs.gc_runs(runs_dir, keep=2)
        assert result["applied"] is False
        assert [os.path.basename(p) for p in result["pruned"]] == ["r1", "r0"]
        assert sorted(os.listdir(runs_dir)) == ["r0", "r1", "r2", "r3"]

    def test_apply_prunes_oldest(self, tmp_path):
        runs_dir = str(tmp_path / "runs")
        for i in range(4):
            self._make_run(runs_dir, f"r{i}", 1_000_000 + i)
        result = obs.gc_runs(runs_dir, keep=2, apply=True)
        assert result["applied"] is True
        assert sorted(os.listdir(runs_dir)) == ["r2", "r3"]

    def test_non_artifact_dirs_untouched(self, tmp_path):
        runs_dir = str(tmp_path / "runs")
        self._make_run(runs_dir, "real", 1_000_000)
        stray = os.path.join(runs_dir, "not-a-run")
        os.makedirs(stray)
        with open(os.path.join(stray, "notes.txt"), "w") as f:
            f.write("keep me")
        result = obs.gc_runs(runs_dir, keep=0, apply=True)
        assert [os.path.basename(p) for p in result["pruned"]] == ["real"]
        assert os.path.exists(stray)

    def test_missing_dir_is_empty(self, tmp_path):
        result = obs.gc_runs(str(tmp_path / "nope"), keep=3)
        assert result == {"kept": [], "pruned": [], "applied": False}

    def test_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            obs.gc_runs(str(tmp_path), keep=-1)

    def test_cli_gc(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        for i in range(3):
            self._make_run(runs_dir, f"r{i}", 1_000_000 + i)
        assert main(["obs", "gc", "--keep", "1", "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out and "would remove" in out
        assert sorted(os.listdir(runs_dir)) == ["r0", "r1", "r2"]
        assert main([
            "obs", "gc", "--keep", "1", "--runs-dir", runs_dir, "--apply"
        ]) == 0
        assert os.listdir(runs_dir) == ["r2"]


class TestProfiling:
    def test_profiled_writes_pstats_and_emits(self, tmp_path):
        from repro.obs.profile import profiled

        run_dir = str(tmp_path / "prof-run")
        pstats_path = str(tmp_path / "out.pstats")
        with obs.observe_run(run_dir):
            with profiled(pstats_path) as prof:
                sum(i * i for i in range(20_000))
        assert os.path.exists(pstats_path)
        assert prof.summary is not None and prof.summary.rows
        assert prof.summary.total_s >= 0
        art = obs.load_run(run_dir)
        profile_events = [e for e in art.events if e.get("type") == "profile"]
        assert len(profile_events) == 1
        assert profile_events[0]["pstats"] == "out.pstats"

    def test_profiled_no_recorder_still_works(self, tmp_path):
        from repro.obs.profile import profiled

        pstats_path = str(tmp_path / "solo.pstats")
        with profiled(pstats_path, emit=False) as prof:
            sorted(range(1000), reverse=True)
        assert os.path.exists(pstats_path)
        assert prof.summary.rows

    def test_run_observed_profile(self, tmp_path):
        from repro.experiments.base import run_observed
        from repro.experiments.registry import get_experiment

        run_dir = str(tmp_path / "e9-prof")
        result = run_observed(
            get_experiment("E9"), scale="smoke", seed=0,
            metrics_out=run_dir, profile=True,
        )
        assert os.path.exists(os.path.join(run_dir, "profile.pstats"))
        assert os.path.exists(os.path.join(run_dir, "profile_top.txt"))
        prof = result.telemetry["profile"]
        assert prof["top"] and prof["total_s"] > 0
        assert "profile" in result.render()
        # The hotspot table surfaces in the summarize report.
        out = obs.summarize_run(run_dir)
        assert "profile hotspots" in out

    def test_cli_experiment_profile(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "e9-cli-prof")
        assert main([
            "experiment", "e9", "--profile", "--metrics-out", run_dir
        ]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(run_dir, "profile.pstats"))
