"""The perf trajectory (``repro obs trend``) and the campaign CLI smoke."""

from __future__ import annotations

import json
import os

import numpy as np

from repro.cli import main
from repro.obs.trend import (
    bench_trajectory,
    compute_trend,
    render_trend,
    trend_to_json,
)


def _bench_artifact(path, created_at, wall_samples, *, git_rev="cafe0001",
                    bench_id="bench_x::test_bench_y"):
    """Write a minimal-but-valid repro.bench artifact."""
    samples = [float(s) for s in wall_samples]
    payload = {
        "schema": "repro.bench/1",
        "created_at": created_at,
        "git_rev": git_rev,
        "config": {"filter": None, "repeats": len(samples)},
        "benches": [{
            "id": bench_id,
            "file": "bench_x.py",
            "name": "test_bench_y",
            "status": "ok",
            "rounds": len(samples),
            "wall_s": {
                "mean": float(np.mean(samples)),
                "min": min(samples),
                "max": max(samples),
                "n": len(samples),
                "samples": samples,
            },
        }],
    }
    with open(path, "w") as f:
        json.dump(payload, f)


# -- the trajectory + drift ---------------------------------------------------


def _trajectory(tmp_path, head_samples):
    """Three history points at 1.0s, then a head artifact."""
    os.makedirs(tmp_path, exist_ok=True)
    for i, created in enumerate(
        ["2026-08-01T10:00:00", "2026-08-02T10:00:00", "2026-08-03T10:00:00"]
    ):
        _bench_artifact(
            tmp_path / f"BENCH_h{i}.json", created,
            [1.0, 1.02, 0.98], git_rev=f"rev{i}",
        )
    _bench_artifact(tmp_path / "BENCH_head.json", "2026-08-04T10:00:00",
                    head_samples, git_rev="revhead")
    return (str(tmp_path),)


def test_trend_flags_regression_against_trailing_window(tmp_path):
    dirs = _trajectory(tmp_path, [2.0, 2.05, 1.95])
    result = compute_trend(bench_dirs=dirs)
    assert [p.git_rev for p in result.points] == [
        "rev0", "rev1", "rev2", "revhead",
    ]
    (tr,) = result.trends
    assert tr.name == "bench_x::test_bench_y.wall_s"
    assert tr.verdict == "regressed"
    assert result.has_regression
    assert tr.n_trail == 9  # three pooled artifacts of three samples


def test_trend_improvement_and_stability(tmp_path):
    improved = compute_trend(
        bench_dirs=_trajectory(tmp_path / "a", [0.5, 0.49, 0.51])
    ).trends[0]
    assert improved.verdict == "improved"
    flat = compute_trend(
        bench_dirs=_trajectory(tmp_path / "b", [1.0, 1.01, 0.99])
    )
    assert not flat.has_regression


def test_trend_render_and_json(tmp_path):
    dirs = _trajectory(tmp_path, [2.0, 2.1, 1.9])
    result = compute_trend(bench_dirs=dirs)
    text = render_trend(result)
    assert "perf trajectory (4 artifacts" in text
    assert "REGRESSED" in text
    payload = trend_to_json(result)
    assert payload["schema"] == "repro.trend/1"
    assert payload["has_regression"] is True
    (metric,) = payload["metrics"]
    assert len(metric["means"]) == 4
    assert metric["ci95"] is not None
    json.dumps(payload)  # NaN-free by construction


def test_trajectory_skips_foreign_and_unreadable_json(tmp_path):
    with open(tmp_path / "BENCH_other.json", "w") as f:
        json.dump({"schema": "other/1"}, f)
    with open(tmp_path / "BENCH_broken.json", "w") as f:
        f.write("{nope")
    _bench_artifact(tmp_path / "BENCH_ok.json", "2026-08-01T10:00:00", [1.0])
    traj = bench_trajectory((str(tmp_path),))
    assert [os.path.basename(p.path) for p in traj] == ["BENCH_ok.json"]


def test_trend_named_metric_without_history_is_new(tmp_path):
    _bench_artifact(tmp_path / "BENCH_only.json", "2026-08-04T10:00:00",
                    [1.0, 1.1])
    result = compute_trend(bench_dirs=(str(tmp_path),))
    (tr,) = result.trends
    assert tr.verdict == "new"
    assert not result.has_regression
    traj = bench_trajectory((str(tmp_path),))
    assert len(traj) == 1


# -- CLI wiring ---------------------------------------------------------------


def test_cli_obs_trend(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.makedirs("benchmarks/artifacts")
    for i, created in enumerate(
        ["2026-08-01T10:00:00", "2026-08-02T10:00:00", "2026-08-03T10:00:00"]
    ):
        _bench_artifact(f"benchmarks/artifacts/BENCH_{i}.json", created,
                        [1.0, 1.02, 0.98], git_rev=f"rev{i}")
    # Only benchmarks/artifacts is scanned: a stray root artifact is not
    # a trajectory point.
    _bench_artifact("BENCH_root.json", "2026-08-04T10:00:00", [9.0])
    assert main(["obs", "trend", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.trend/1"
    assert len(payload["artifacts"]) == 3

    assert main(["obs", "trend", "--fail-on-regression"]) == 0
    capsys.readouterr()
    # A slow head artifact turns --fail-on-regression into exit 1.
    _bench_artifact("benchmarks/artifacts/BENCH_slow.json",
                    "2026-08-04T10:00:00", [3.0, 3.1, 2.9], git_rev="bad")
    assert main(["obs", "trend", "--fail-on-regression"]) == 1
    capsys.readouterr()


def test_cli_campaign_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "campaign", "--n", "16", "--replicas", "4", "--processes", "2",
        "--probe-every", "5", "--max-steps", "100000", "--seed", "5",
        "--out", "runs/camp",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "campaign summary" in out
    assert "obs watch runs/camp" in out
    assert os.path.exists("runs/camp/timeseries.jsonl")
    assert os.path.exists("runs/camp/heartbeats.jsonl")
