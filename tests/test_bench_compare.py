"""Tests for the perf observatory: bench runner, regression diffs, progress."""

import io
import json
import os
import re
import textwrap

import pytest

from repro.cli import main
from repro.experiments.base import ProgressReporter, eta_seconds, format_duration
from repro.obs.bench import (
    SCHEMA,
    BenchTimer,
    discover,
    run_benchmarks,
    summary_stats,
    validate_bench_payload,
)
from repro.obs.compare import (
    bootstrap_delta_ci,
    compare_paths,
    compare_to_json,
    load_metrics,
    render_compare,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A deterministic, fast synthetic bench suite for runner tests.
BENCH_SRC = textwrap.dedent(
    """
    def test_bench_fast(benchmark):
        benchmark(lambda: sum(range(64)))

    def test_bench_pedantic(benchmark):
        benchmark.pedantic(lambda: None, rounds=3, iterations=2)

    def test_bench_unsupported(benchmark, capsys):
        benchmark(lambda: None)

    def helper_not_a_bench(benchmark):
        raise AssertionError("must not be collected")
    """
)


def _write_bench_dir(tmp_path, src=BENCH_SRC, stem="bench_synthetic"):
    d = tmp_path / "benchmarks"
    d.mkdir(exist_ok=True)
    (d / f"{stem}.py").write_text(src)
    return str(d)


class TestBenchTimer:
    def test_repeats_and_samples(self):
        t = BenchTimer(repeats=3, warmup=1, min_round_s=0.0)
        t(lambda: None)
        assert t.rounds == 3
        assert len(t.wall_samples) == 3 == len(t.cpu_samples)
        assert all(s >= 0 for s in t.wall_samples)

    def test_calibration_grows_iterations(self):
        t = BenchTimer(repeats=2, warmup=0, min_round_s=0.001)
        t(lambda: None)
        # A no-op takes nanoseconds; a 1 ms round needs many iterations.
        assert t.iterations > 1

    def test_pedantic_honours_rounds(self):
        t = BenchTimer(repeats=10, min_round_s=0.0)
        calls = []
        t.pedantic(lambda: calls.append(1), rounds=2, iterations=1)
        assert t.rounds == 2
        assert len(calls) == 2
        assert t.iterations == 1

    def test_returns_last_result(self):
        t = BenchTimer(repeats=1, warmup=0, min_round_s=0.0)
        assert t(lambda: 42) == 42


class TestDiscovery:
    def test_collects_and_flags_fixtures(self, tmp_path):
        specs = discover(_write_bench_dir(tmp_path))
        by_name = {s.name: s for s in specs}
        assert set(by_name) == {
            "test_bench_fast", "test_bench_pedantic", "test_bench_unsupported"
        }
        assert by_name["test_bench_fast"].skip_reason is None
        assert "capsys" in by_name["test_bench_unsupported"].skip_reason

    def test_filter_matches_file_stem(self, tmp_path):
        d = _write_bench_dir(tmp_path)
        (tmp_path / "benchmarks" / "bench_other.py").write_text(
            "def test_bench_o(benchmark):\n    benchmark(lambda: None)\n"
        )
        specs = discover(d, "synthetic")
        assert {s.file for s in specs} == {"bench_synthetic.py"}

    def test_filter_matches_function_id(self, tmp_path):
        specs = discover(_write_bench_dir(tmp_path), "pedantic")
        assert [s.name for s in specs] == ["test_bench_pedantic"]

    def test_import_error_becomes_error_with_traceback(self, tmp_path):
        """A bench module raising at import is a failure, not a skip —
        otherwise a typo silently drops every bench in the file."""
        d = _write_bench_dir(tmp_path, src="import no_such_module_xyz\n")
        specs = discover(d)
        assert len(specs) == 1
        assert specs[0].skip_reason is None
        assert "import error" in specs[0].error
        assert "ModuleNotFoundError" in specs[0].error
        assert "no_such_module_xyz" in specs[0].traceback
        assert "Traceback" in specs[0].traceback

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover(str(tmp_path / "nope"))


class TestRunner:
    def test_artifact_matches_schema(self, tmp_path):
        d = _write_bench_dir(tmp_path)
        json_path, payload = run_benchmarks(
            bench_dir=d, repeats=2, quick=True, progress=False,
            out_dir=str(tmp_path / "out"), run_dir=str(tmp_path / "run"),
        )
        validate_bench_payload(payload)  # raises on mismatch
        # A tree without .git (an exported copy) has no revision.
        assert re.fullmatch(
            r"BENCH_\d{8}-\d{6}_([0-9a-f]{1,10}|unknown)\.json",
            os.path.basename(json_path),
        )
        with open(json_path) as f:
            assert json.load(f) == payload
        statuses = {b["id"]: b["status"] for b in payload["benches"]}
        assert statuses["bench_synthetic::test_bench_fast"] == "ok"
        assert statuses["bench_synthetic::test_bench_unsupported"] == "skipped"
        ok = next(b for b in payload["benches"] if b["status"] == "ok")
        assert ok["wall_s"]["n"] == len(ok["wall_s"]["samples"]) == ok["rounds"]
        assert payload["resources"]["peak_rss_kb"] > 0

    def test_artifact_without_git_rev_is_named_unknown(self, tmp_path, monkeypatch):
        import repro.obs.bench as bench

        monkeypatch.setattr(bench, "git_revision", lambda: None)
        json_path, payload = run_benchmarks(
            bench_dir=_write_bench_dir(tmp_path), repeats=1, quick=True,
            progress=False, out_dir=str(tmp_path / "out"),
            run_dir=str(tmp_path / "run"),
        )
        validate_bench_payload(payload)
        assert os.path.basename(json_path).endswith("_unknown.json")
        assert payload["git_rev"] is None

    def test_run_dir_gets_spans_and_resources(self, tmp_path):
        from repro import obs

        run_dir = str(tmp_path / "run")
        run_benchmarks(
            bench_dir=_write_bench_dir(tmp_path), repeats=1, quick=True,
            progress=False, out_dir=str(tmp_path / "out"), run_dir=run_dir,
        )
        art = obs.load_run(run_dir)
        span_names = {s["name"] for s in art.spans}
        assert "bench/bench_synthetic::test_bench_fast" in span_names
        assert "resource/rss_mb" in art.series
        assert art.meta["kind"] == "bench"

    def test_broken_bench_module_fails_the_run(self, tmp_path, capsys):
        """An import-time crash in a bench module surfaces as an error
        record (with traceback) and a non-zero ``repro bench run``."""
        d = _write_bench_dir(tmp_path)
        (tmp_path / "benchmarks" / "bench_broken.py").write_text(
            "raise ValueError('broken at import')\n"
        )
        _, payload = run_benchmarks(
            bench_dir=d, quick=True, progress=False,
            out_dir=str(tmp_path / "out"), run_dir=str(tmp_path / "run"),
        )
        validate_bench_payload(payload)
        by_id = {b["id"]: b for b in payload["benches"]}
        assert by_id["bench_broken"]["status"] == "error"
        assert "broken at import" in by_id["bench_broken"]["error"]
        assert "Traceback" in by_id["bench_broken"]["traceback"]
        # The healthy module still ran.
        assert by_id["bench_synthetic::test_bench_fast"]["status"] == "ok"
        # And the CLI reports failure.
        rc = main([
            "bench", "run", "--bench-dir", d, "--quick", "--no-progress",
            "--out-dir", str(tmp_path / "out2"),
            "--run-dir", str(tmp_path / "run2"),
        ])
        assert rc == 1
        assert "bench_broken" in capsys.readouterr().err

    def test_bench_error_is_contained(self, tmp_path):
        d = _write_bench_dir(
            tmp_path,
            src="def test_bench_boom(benchmark):\n    raise RuntimeError('x')\n",
        )
        _, payload = run_benchmarks(
            bench_dir=d, quick=True, progress=False,
            out_dir=str(tmp_path / "out"), run_dir=str(tmp_path / "run"),
        )
        (rec,) = payload["benches"]
        assert rec["status"] == "error"
        assert "RuntimeError" in rec["error"]

    def test_validate_rejects_bad_payload(self):
        with pytest.raises(ValueError, match="schema"):
            validate_bench_payload({"schema": "nope"})
        with pytest.raises(ValueError, match="status"):
            validate_bench_payload({
                "schema": SCHEMA, "created_at": "t", "git_rev": None,
                "config": {}, "env": {"python": "3", "platform": "p"},
                "resources": {}, "benches": [{"id": "x", "status": "weird"}],
            })


class TestGoldenBaseline:
    """The committed CI baseline doubles as the schema golden file."""

    BASELINE = os.path.join(ROOT, "benchmarks", "baseline_quick.json")

    def test_baseline_validates(self):
        with open(self.BASELINE) as f:
            payload = json.load(f)
        validate_bench_payload(payload)
        assert payload["schema"] == SCHEMA
        assert any(b["status"] == "ok" for b in payload["benches"])

    def test_baseline_loads_as_diff_source(self):
        metrics = load_metrics(self.BASELINE)
        assert any(name.endswith(".wall_s") for name in metrics)
        result = compare_paths(self.BASELINE, self.BASELINE, n_boot=50)
        assert result.deltas and not result.has_regression
        assert all(d.verdict == "unchanged" for d in result.deltas)


def _payload_for(wall_by_id: dict) -> dict:
    benches = []
    for bid, samples in wall_by_id.items():
        stats = summary_stats(samples)
        benches.append({
            "id": bid, "file": "bench_x.py", "name": bid.split("::")[-1],
            "status": "ok", "rounds": len(samples), "iterations": 1,
            "wall_s": {**stats, "samples": list(samples)},
            "cpu_s": summary_stats(samples),
            "peak_rss_kb": 1024.0,
        })
    return {
        "schema": SCHEMA, "created_at": "2026-01-01T00:00:00+0000",
        "git_rev": "deadbeef", "config": {"repeats": 8},
        "env": {"python": "3.11", "platform": "test"},
        "resources": {"peak_rss_kb": 2048.0}, "benches": benches,
    }


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99]


@pytest.fixture
def regression_pair(tmp_path):
    """Two synthetic artifacts with a known delta per bench."""
    a = _payload_for({
        "b::same": BASE,
        "b::regresses": BASE,
        "b::improves": BASE,
    })
    b = _payload_for({
        "b::same": BASE,
        "b::regresses": [1.5 * v for v in BASE],
        "b::improves": [0.5 * v for v in BASE],
    })
    pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path, payload in ((pa, a), (pb, b)):
        with open(path, "w") as f:
            json.dump(payload, f)
    return pa, pb


class TestCompare:
    def test_known_delta_verdicts(self, regression_pair):
        pa, pb = regression_pair
        result = compare_paths(pa, pb, n_boot=500, seed=1)
        verdicts = {
            d.name: d.verdict for d in result.deltas if d.name.endswith(".wall_s")
        }
        assert verdicts == {
            "b::same.wall_s": "unchanged",
            "b::regresses.wall_s": "regressed",
            "b::improves.wall_s": "improved",
        }
        regressed = next(d for d in result.deltas if d.verdict == "regressed")
        assert regressed.significant
        assert regressed.ci[0] > 0  # CI excludes zero on the bad side
        assert regressed.pct == pytest.approx(0.5, abs=0.05)
        assert result.has_regression

    def test_bootstrap_ci_deterministic_and_sane(self):
        a = BASE
        b = [v + 0.5 for v in BASE]
        ci1 = bootstrap_delta_ci(a, b, n_boot=300, seed=7)
        ci2 = bootstrap_delta_ci(a, b, n_boot=300, seed=7)
        assert ci1 == ci2
        assert ci1[0] <= 0.5 <= ci1[1] or (0.45 < ci1[0] < 0.55)
        assert bootstrap_delta_ci([1.0], [1.0, 2.0]) is None

    def test_render_and_json(self, regression_pair):
        result = compare_paths(*regression_pair, n_boot=200)
        text = render_compare(result)
        assert "REGRESSED" in text and "improved" in text and "verdict" in text
        blob = compare_to_json(result)
        json.dumps(blob)  # serializable
        assert blob["schema"] == "repro.diff/1"
        assert blob["has_regression"] is True

    def test_run_dir_sources(self, tmp_path):
        from repro import obs

        for name, dur in (("ra", 0.001), ("rb", 0.002)):
            with obs.observe_run(str(tmp_path / name)) as rec:
                for k in range(3):
                    with obs.span("stage"):
                        pass
                rec.record("max_load", 0, 10.0)
                rec.record("max_load", 1, 4.0)
        result = compare_paths(str(tmp_path / "ra"), str(tmp_path / "rb"), n_boot=100)
        names = {d.name for d in result.deltas}
        assert "span/stage.dur_s" in names
        assert "series/max_load.last" in names
        assert "run.duration_s" in names

    def test_rejects_foreign_json(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as f:
            json.dump({"hello": 1}, f)
        with pytest.raises(ValueError, match="repro.bench"):
            load_metrics(path)


class TestCliBenchAndDiff:
    def test_bench_run_cli(self, tmp_path, capsys, monkeypatch):
        bench_dir = _write_bench_dir(tmp_path)
        out_dir = str(tmp_path / "out")
        assert main([
            "bench", "run", "--quick", "--repeats", "1", "--no-progress",
            "--bench-dir", bench_dir, "--out-dir", out_dir,
            "--run-dir", str(tmp_path / "run"),
        ]) == 0
        out = capsys.readouterr().out
        assert "bench artifact" in out and "wrote" in out
        files = [f for f in os.listdir(out_dir) if f.startswith("BENCH_")]
        assert len(files) == 1

    def test_library_out_dir_default_is_the_cli_default(self):
        """A library call and ``repro bench run`` write to the same place."""
        import inspect

        from repro.cli import build_parser

        cli_default = build_parser().parse_args(["bench", "run"]).out_dir
        lib_default = inspect.signature(run_benchmarks).parameters["out_dir"].default
        assert lib_default == cli_default == "benchmarks/artifacts"

    def test_bench_list_cli(self, tmp_path, capsys):
        assert main([
            "bench", "list", "--bench-dir", _write_bench_dir(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "test_bench_fast" in out and "capsys" in out

    def test_diff_cli_exit_codes(self, regression_pair, capsys):
        pa, pb = regression_pair
        # Report-only: regression present but exit 0 without the flag.
        assert main(["obs", "diff", pa, pb, "--bootstrap", "200"]) == 0
        assert main([
            "obs", "diff", pa, pb, "--bootstrap", "200", "--fail-on-regression",
        ]) == 1
        # Improvement-only direction: no regression, flag stays green.
        assert main([
            "obs", "diff", pb, pb, "--bootstrap", "200", "--fail-on-regression",
        ]) == 0
        capsys.readouterr()

    def test_diff_cli_json(self, regression_pair, capsys):
        pa, pb = regression_pair
        assert main(["obs", "diff", pa, pb, "--json", "--bootstrap", "100"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["schema"] == "repro.diff/1"

    def test_diff_cli_bad_input(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["obs", "diff", missing, missing]) == 2


class TestEtaAndProgress:
    def test_eta_extrapolation(self):
        assert eta_seconds([2.0, 4.0], 3) == pytest.approx(9.0)
        assert eta_seconds([], 5) == 0.0
        assert eta_seconds([1.0], 0) == 0.0

    def test_format_duration(self):
        assert format_duration(8.24) == "8.2s"
        assert format_duration(185) == "3m05s"
        assert format_duration(4020) == "1h07m"

    def test_reporter_heartbeat_lines(self):
        stream = io.StringIO()
        rep = ProgressReporter(2, stream=stream)
        with rep.task("E1 — first"):
            pass
        with rep.task("E2 — second"):
            pass
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[1/2] E1 — first ..."
        assert "done in" in lines[1] and "eta ~" in lines[1]
        # The last task carries elapsed but no ETA.
        assert "elapsed" in lines[3] and "eta" not in lines[3]

    def test_reporter_disabled_is_silent(self):
        stream = io.StringIO()
        rep = ProgressReporter(1, stream=stream, enabled=False)
        with rep.task("quiet"):
            pass
        assert stream.getvalue() == ""

    def test_report_generate_emits_progress(self, capsys, monkeypatch):
        from repro.experiments import report as report_mod

        # Patch the registry down to one fast experiment for speed.
        from repro.experiments.registry import EXPERIMENTS

        fast = {"E9": EXPERIMENTS["E9"]}
        monkeypatch.setattr(report_mod, "EXPERIMENTS", fast)
        monkeypatch.setattr("repro.experiments.registry.EXPERIMENTS", fast)
        text = report_mod.generate("smoke", 0, progress=True)
        err = capsys.readouterr().err
        assert "[1/1] E9" in err and "done in" in err
        assert "## E9" in text
