"""Differential fuzz: the batched kernels against independent references.

The enforcement layer of the vectorized engine's one stepping path.
Instead of hand-picked cases, randomized (spec × shape × seed × horizon
× batch × probe-interval × checkpoint-boundary) configurations are
drawn — both hypothesis-driven and from the deterministic CI seed grid
— and every draw must satisfy the differential checks of
:mod:`repro.verify.differential`: bitwise ``run_batched`` vs row-by-row
replay fleet identity (for synchronous specs too, one ball per
uniform), bitwise scalar run loops vs a one-row replay of their draw
order, bitwise snapshot replay across different batch lengths,
artifact-for-artifact ``recovery_times`` equality across segment
lengths (times, telemetry bytes, checkpoint offers), and
scalar-vs-vectorized distributional parity.  A failure shrinks and prints a one-line
``repro fuzz --config '…'`` replay command (see :mod:`tests.fuzzkit`).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.verify.differential import (
    CHECKS,
    DiffConfig,
    run_check,
    run_fuzz_cli,
    run_grid,
    sample_configs,
    shrink_config,
    vectorizable_spec_names,
)
from tests import fuzzkit

FAST = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SLOWER = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Hypothesis-driven differential properties
# ---------------------------------------------------------------------------


@FAST
@given(cfg=fuzzkit.config_strategy())
def test_batched_bitwise_identity(cfg):
    """run_batched(T, b) lands on the row-by-row replay's fleet state."""
    fuzzkit.assert_passes(cfg, "batched")


@FAST
@given(cfg=fuzzkit.config_strategy())
def test_snapshot_replay_across_batch_lengths(cfg):
    """A mid-run state_dict replays bitwise under a different batch."""
    fuzzkit.assert_passes(cfg, "replay")


@FAST
@given(cfg=fuzzkit.config_strategy())
def test_scalar_loops_match_the_one_row_replay(cfg):
    """Scalar run / run_until / trajectory land on replay_scalar's state."""
    fuzzkit.assert_passes(cfg, "scalar")


@SLOWER
@given(cfg=fuzzkit.config_strategy(max_steps=80))
def test_observed_artifacts_identical(cfg):
    """Observed recovery_times: times, telemetry bytes, checkpoint offers."""
    fuzzkit.assert_passes(cfg, "artifact")


# ---------------------------------------------------------------------------
# Deterministic CI seed grid
# ---------------------------------------------------------------------------


def test_seed_grid_is_deterministic():
    a = sample_configs(17, seed=5)
    b = sample_configs(17, seed=5)
    assert a == b
    assert a != sample_configs(17, seed=6)
    # Every sampled spec is actually vectorizable.
    names = set(vectorizable_spec_names())
    assert {c.spec for c in a} <= names
    assert "scenario_a_adap" not in names and "rbb_walk" not in names


def test_seed_grid_hits_boundary_shapes():
    """CI's 200-config grid draws n = 1, n = 2 and int64 search scratch."""
    from repro.engine.registry import registered_specs

    specs = registered_specs()
    cfgs = sample_configs(200, seed=0)
    assert {1, 2} <= {c.n for c in cfgs}
    # Loads fit int32, the fleet key and block sums do not: sequential
    # closed specs search wide scratch over a narrowed fleet.
    wide = [
        c for c in cfgs
        if c.replicas * (c.m + 1) >= 2**31 and c.m < 2**31 - 1
        and specs[c.spec].kind == "closed"
        and not specs[c.spec].step.synchronous
    ]
    assert wide


def test_grid_smoke_passes():
    """A small slice of the exact grid the CI fuzz-smoke job runs."""
    fuzzkit.assert_grid_passes(30, seed=0)


@pytest.mark.parametrize("spec", sorted(vectorizable_spec_names()))
def test_pinned_config_per_spec(spec):
    """One fixed config per vectorizable spec through the cheap checks."""
    cfg = fuzzkit.pinned_config(spec)
    fuzzkit.assert_passes(cfg, "batched")
    fuzzkit.assert_passes(cfg, "replay")


@pytest.mark.statistical
def test_scalar_vs_vectorized_ks_smoke():
    """Distributional parity check on a pinned config (double-rejection)."""
    fuzzkit.assert_passes(fuzzkit.pinned_config("scenario_a", steps=60), "ks")


# ---------------------------------------------------------------------------
# The harness itself: shrinking, repro lines, CLI exit codes
# ---------------------------------------------------------------------------


def test_config_json_round_trip():
    cfg = fuzzkit.pinned_config("open_ball", batch=9)
    assert DiffConfig.from_json(cfg.to_json()) == cfg
    line = cfg.cli("artifact")
    assert line.startswith("PYTHONPATH=src python -m repro fuzz --config '")
    assert line.endswith("--check artifact")
    assert "\n" not in line


def test_shrinker_minimizes_failing_config():
    """shrink_config drives every field to its floor for a synthetic bug."""

    def synthetic(cfg):
        return "too big" if cfg.steps > 3 or cfg.n > 5 else None

    CHECKS["synthetic"] = synthetic
    try:
        big = fuzzkit.pinned_config("scenario_a", steps=100, n=19, m=40)
        small = shrink_config(big, "synthetic")
        assert run_check(small, "synthetic") is not None
        # Minimal failing envelope: one field just past its threshold,
        # everything irrelevant at its floor.
        assert small.steps <= 4 and small.n <= 6
        assert small.replicas == 2 and small.batch == 2
        assert small.m == 1 and small.save_every == 0 and small.probe_every == 0
        with pytest.raises(AssertionError, match=r"repro fuzz --config"):
            fuzzkit.assert_passes(big, "synthetic")
    finally:
        del CHECKS["synthetic"]


def test_shrinker_rejects_passing_config():
    with pytest.raises(ValueError, match="failing"):
        shrink_config(fuzzkit.pinned_config("scenario_a"), "batched")


def test_run_check_unknown_name():
    with pytest.raises(ValueError, match="unknown check"):
        run_check(fuzzkit.pinned_config("scenario_a"), "nope")


def test_fuzz_cli_passes_and_replays(capsys):
    assert run_fuzz_cli(budget=4, seed=11, check="batched") == 0
    out = capsys.readouterr().out
    assert "4 configs passed" in out
    cfg = fuzzkit.pinned_config("scenario_b")
    assert run_fuzz_cli(config_json=cfg.to_json(), check="replay") == 0


def test_fuzz_cli_reports_failures_with_repro_line(capsys):
    CHECKS["alwaysfail"] = lambda cfg: "boom"
    try:
        cfg = fuzzkit.pinned_config("scenario_a")
        code = run_fuzz_cli(config_json=cfg.to_json(), check="alwaysfail")
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL [alwaysfail] boom" in err
        assert "repro: PYTHONPATH=src python -m repro fuzz --config" in err
    finally:
        del CHECKS["alwaysfail"]


def test_raising_check_is_reported_shrunk_and_fails_the_cli(capsys):
    """A check that raises is a failure with a replay line, not a traceback."""

    def crashes(cfg):
        if cfg.steps > 3:
            raise IndexError("index 99 is out of bounds")
        return None

    CHECKS["crashes"] = crashes
    try:
        cfg = fuzzkit.pinned_config("scenario_a", steps=40)
        assert run_check(cfg, "crashes").startswith(
            "raised IndexError: index 99 is out of bounds "
            "(test_engine_fuzz.py:"
        )
        assert shrink_config(cfg, "crashes").steps == 4
        # The grid carries on past a raising config.
        grid = sample_configs(6, seed=0)
        failures = run_grid(grid, check="crashes")
        assert [c for c, _, _ in failures] == [c for c in grid if c.steps > 3]
        assert run_fuzz_cli(budget=6, seed=0, check="crashes") == 1
        err = capsys.readouterr().err
        assert "FAIL [crashes] raised IndexError: index 99" in err
        assert "repro: PYTHONPATH=src python -m repro fuzz --config" in err
    finally:
        del CHECKS["crashes"]


def test_fuzz_cli_json_schema(capsys):
    import json

    assert run_fuzz_cli(budget=2, seed=3, check="batched", as_json=True) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.fuzz/1"
    assert doc["configs"] == 2 and doc["failures"] == []
