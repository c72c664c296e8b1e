"""Checkpoint/resume: crash-injection, byte-determinism, property tests.

The central invariant (docs/CHECKPOINT.md): a checkpointed run killed
at any step — SIGKILL mid-checkpoint-write included — and resumed with
``repro resume`` produces ``timeseries.jsonl``, ``events.jsonl``,
metrics counters, and summary statistics byte-identical to the same
run left uninterrupted.

Three layers of enforcement:

* **subprocess SIGKILL** (via :mod:`tests.crashkit`): real kills under
  seeded ``REPRO_CRASH_AT`` schedules, per engine × topology —
  including the ``write:N`` schedule that kills exactly between the
  archive write and the pointer rename, proving the atomic protocol;
* **in-process determinism**: ``save_every > 0`` must not perturb the
  artifact relative to the unchunked ``save_every = 0`` run, and a
  deterministic SIGTERM (sent to self from the crash hook, so the
  save boundary is exact) must finalize a resumable artifact;
* **hypothesis properties**: randomized small (n, m, save_every,
  crash step) grids over all three engines, crashing in-process with
  :class:`~repro.checkpoint.SimulatedCrash`.
"""

from __future__ import annotations

import json
import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import SimulatedCrash, checkpoint_step, resume, set_crash_hook
from repro.experiments.campaign import run_campaign
from tests.crashkit import (
    assert_runs_match,
    campaign_argv,
    run_clean,
    run_resume,
    run_with_crash,
)

# Campaign geometries per engine.  m = 4n makes recovery take at least
# ~m - target steps (max load falls by at most 1 per step from the
# all-in-one crash state), so every crash schedule below fires before
# the measurement can finish.
SCALAR_KW = dict(
    engine="scalar", n=8, m=32, replicas=3, processes=1,
    max_steps=2000, probe_every=5, seed=1, save_every=10,
)
VECTORIZED_KW = dict(SCALAR_KW, engine="vectorized")
EXACT_KW = dict(
    engine="exact", n=3, m=5, eps=0.01, replicas=1, processes=1,
    max_steps=500, probe_every=2, seed=1, save_every=3,
)


def _campaign(out, **kw):
    kw = dict(kw)
    kw.setdefault("d", 2)
    return run_campaign(out=str(out), **kw)


# -- subprocess SIGKILL ------------------------------------------------------


@pytest.mark.parametrize(
    "kw,crash_at",
    [
        pytest.param(SCALAR_KW, "step:20", id="scalar-serial"),
        pytest.param(VECTORIZED_KW, "step:20", id="vectorized-single"),
        pytest.param(EXACT_KW, "step:6", id="exact"),
        pytest.param(
            dict(SCALAR_KW, replicas=4, processes=2), "item:2",
            id="pooled-scalar",
        ),
        pytest.param(
            dict(VECTORIZED_KW, replicas=4, processes=2), "item:1",
            id="pooled-vectorized",
        ),
        # Synchronous step shape: from m = 4n all-in-one the RBB max
        # load also sheds at most one per step, so the same schedules
        # land mid-measurement.
        pytest.param(
            dict(SCALAR_KW, scenario="rbb_uniform"), "step:20",
            id="rbb-scalar-serial",
        ),
        pytest.param(
            dict(VECTORIZED_KW, scenario="rbb_twochoice"), "step:20",
            id="rbb-vectorized-single",
        ),
    ],
)
def test_sigkill_resume_matches_uninterrupted(tmp_path, kw, crash_at):
    crashed = str(tmp_path / "crashed")
    reference = str(tmp_path / "reference")
    run_with_crash(campaign_argv(crashed, **kw), crash_at)
    run_resume(crashed)
    run_clean(campaign_argv(reference, **kw))
    assert_runs_match(crashed, reference)


def test_sigkill_mid_write_lands_on_previous_checkpoint(tmp_path):
    """``write:2`` kills between archive write and pointer rename of
    the 2nd save: the committed pointer must still be checkpoint 1, and
    the resume from it must reproduce the uninterrupted artifact."""
    crashed = str(tmp_path / "crashed")
    reference = str(tmp_path / "reference")
    run_with_crash(campaign_argv(crashed, **SCALAR_KW), "write:2")
    # The wreckage: an orphan 2nd archive, a pointer still at save 1.
    assert checkpoint_step(crashed) == SCALAR_KW["save_every"]
    run_resume(crashed)
    run_clean(campaign_argv(reference, **SCALAR_KW))
    assert_runs_match(crashed, reference)


def test_sigkill_mid_batch_resumes_byte_identical(tmp_path):
    """``step:13`` with ``--batch 16``: K is strictly inside a batched
    segment (boundaries fall on probe/save multiples of 5), so the kill
    fires at the first save opportunity *after* K.  The resumed run
    must still be byte-identical to an uninterrupted batched run, and
    the batched artifact byte-identical to the unbatched one."""
    kw = dict(VECTORIZED_KW, batch=16)
    crashed = str(tmp_path / "crashed")
    reference = str(tmp_path / "reference")
    unbatched = str(tmp_path / "unbatched")
    run_with_crash(campaign_argv(crashed, **kw), "step:13")
    # The kill fired before any save past 10 committed.
    assert checkpoint_step(crashed) == 10
    run_resume(crashed)
    run_clean(campaign_argv(reference, **kw))
    assert_runs_match(crashed, reference)
    # Batching is invisible in the artifact bytes (meta.json records the
    # differing batch knob, so compare the telemetry streams directly).
    run_clean(campaign_argv(unbatched, **VECTORIZED_KW))
    for name in ("timeseries.jsonl", "events.jsonl"):
        with open(os.path.join(reference, name), "rb") as f:
            batched_bytes = f.read()
        with open(os.path.join(unbatched, name), "rb") as f:
            assert batched_bytes == f.read()


# -- in-process determinism --------------------------------------------------


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_save_every_is_invisible_in_the_artifact(tmp_path, engine):
    """Chunked execution (save_every > 0) must be byte-identical to the
    unchunked run (save_every = 0, one run_until call per replica):
    probes key off global step counters and the RNG stream never sees
    a chunk boundary."""
    kw = dict(SCALAR_KW, engine=engine)
    kw.pop("save_every")
    a = _campaign(tmp_path / "chunked", save_every=10, **kw)
    b = _campaign(tmp_path / "unchunked", save_every=0, **kw)
    assert list(a["times"]) == list(b["times"])
    for name in ("timeseries.jsonl", "events.jsonl"):
        with open(tmp_path / "chunked" / name, "rb") as f:
            chunked = f.read()
        with open(tmp_path / "unchunked" / name, "rb") as f:
            unchunked = f.read()
        assert chunked == unchunked


def test_sigterm_saves_finalizes_and_resumes(tmp_path):
    """SIGTERM → save at the next boundary → status 'interrupted' →
    resumable.  The signal is raised from the crash hook inside
    ``maybe_save`` itself, so the interrupting boundary is exact."""
    out = str(tmp_path / "run")

    def hook(step):
        if step >= 20:
            set_crash_hook(None)
            os.kill(os.getpid(), signal.SIGTERM)

    set_crash_hook(hook)
    try:
        summary = _campaign(out, **SCALAR_KW)
    finally:
        set_crash_hook(None)
    assert summary["interrupted"] == 20
    assert summary["times"] is None
    with open(os.path.join(out, "meta.json")) as f:
        meta = json.load(f)
    assert meta["status"] == "interrupted"
    assert meta["last_checkpoint_step"] == 20

    resumed = resume(out)
    assert resumed["interrupted"] is None
    reference = str(tmp_path / "reference")
    run_clean(campaign_argv(reference, **SCALAR_KW))
    assert_runs_match(out, reference)


def test_interrupted_run_reports_resumable(tmp_path):
    """obs watch/summarize surface "resumable at step K" for a run that
    stopped with a committed checkpoint."""
    from repro.obs.summarize import summarize_run
    from repro.obs.watch import render_frame

    out = str(tmp_path / "run")

    def hook(step):
        if step >= 20:
            set_crash_hook(None)
            os.kill(os.getpid(), signal.SIGTERM)

    set_crash_hook(hook)
    try:
        _campaign(out, **SCALAR_KW)
    finally:
        set_crash_hook(None)
    assert f"resumable at step 20: python -m repro resume {out}" in (
        render_frame(out)
    )
    assert "resumable at step 20" in summarize_run(out)
    # Once resumed to completion the hint disappears.
    resume(out)
    assert "resumable" not in render_frame(out)
    assert "resumable" not in summarize_run(out)


def test_resume_rejects_completed_and_missing(tmp_path):
    done = str(tmp_path / "done")
    _campaign(done, **SCALAR_KW)
    with pytest.raises(ValueError, match="already completed"):
        resume(done)
    with pytest.raises(FileNotFoundError):
        resume(str(tmp_path / "nowhere"))


# -- verification runs -------------------------------------------------------


def test_verify_checkpoint_resume_matches_uninterrupted(tmp_path):
    from repro.verify.runner import VerifyConfig, run_verification

    crashed = str(tmp_path / "crashed")
    reference = str(tmp_path / "reference")

    def hook(step):
        # step counts finished certificates; crash before the 3rd save.
        if step >= 3:
            raise SimulatedCrash

    set_crash_hook(hook)
    try:
        with pytest.raises(SimulatedCrash):
            run_verification(
                VerifyConfig.quick(out=crashed, battery=False),
                checkpoint=True,
            )
    finally:
        set_crash_hook(None)
    resumed = resume(crashed)
    fresh = run_verification(
        VerifyConfig.quick(out=reference, battery=False), checkpoint=True
    )
    assert resumed.passed and fresh.passed
    for name in ("events.jsonl", "certificates.json"):
        with open(os.path.join(crashed, name), "rb") as f:
            a = f.read()
        with open(os.path.join(reference, name), "rb") as f:
            b = f.read()
        assert a == b


# -- hypothesis properties ---------------------------------------------------


def _crash_resume_roundtrip(tmp_path, kw, crash_step):
    """Crash in-process at *crash_step*, resume, byte-diff vs clean."""
    crashed = str(tmp_path / "crashed")
    reference = str(tmp_path / "reference")

    def hook(step):
        if step >= crash_step:
            raise SimulatedCrash

    set_crash_hook(hook)
    crashed_out = False
    try:
        _campaign(crashed, **kw)
    except SimulatedCrash:
        crashed_out = True
    finally:
        set_crash_hook(None)
    if crashed_out:
        resume(crashed)
    # else: the run recovered before the crash step — the comparison
    # below still pins plain re-run determinism.
    _campaign(reference, **kw)
    assert_runs_match(crashed, reference)


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(2, 5),
    save_every=st.integers(1, 5),
    crash_offset=st.integers(1, 12),
    seed=st.integers(0, 3),
)
@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_crash_resume_property_sampling(
    tmp_path_factory, engine, n, save_every, crash_offset, seed
):
    # crash_step > save_every: the first save opportunity commits
    # before any later opportunity can crash, so a crash always leaves
    # a resumable checkpoint.
    kw = dict(
        engine=engine, n=n, m=4 * n, replicas=2, processes=1,
        max_steps=5000, probe_every=3, seed=seed, save_every=save_every,
    )
    tmp_path = tmp_path_factory.mktemp(f"crash-{engine}")
    _crash_resume_roundtrip(tmp_path, kw, save_every + crash_offset)


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(2, 3),
    extra=st.integers(0, 2),
    save_every=st.integers(1, 3),
    crash_offset=st.integers(1, 8),
)
def test_crash_resume_property_exact(
    tmp_path_factory, n, extra, save_every, crash_offset
):
    kw = dict(
        engine="exact", n=n, m=n + extra, eps=0.01, replicas=1,
        processes=1, max_steps=500, probe_every=2, seed=0,
        save_every=save_every,
    )
    tmp_path = tmp_path_factory.mktemp("crash-exact")
    _crash_resume_roundtrip(tmp_path, kw, save_every + crash_offset)


def test_fleet_reconcile_rolls_back_to_materialized_telemetry(tmp_path):
    """A shard cursor ahead of the on-disk artifact rolls back by items.

    The race this pins: a worker commits its shard when an item's
    telemetry is *enqueued* on the bus, so a SIGKILL can take the
    parent down with records still undrained — the shard then claims
    more items than the artifact holds.  ``reconcile`` must truncate
    the done list to the longest prefix whose cumulative cursors are
    fully materialized, so the lost telemetry replays.
    """
    from repro.checkpoint.manager import FleetCheckpoint

    fleet = FleetCheckpoint(str(tmp_path))
    fleet.write(0, {
        "done": [[[10, 0.5], None], [[11, 0.25], None], [[12, 0.125], None]],
        "cursors": [[5, 1], [9, 1], [16, 2]],
        "records_sent": 16,
        "monitors_sent": 2,
    })
    # Disk holds lane 0's telemetry only through item 2 (9 records, 1
    # monitor): item 3's 7 records and second monitor never landed.
    fleet.reconcile({0: {"records": 9, "monitors": 1}})
    doc = fleet.read(0)
    assert [result for result, _ in doc["done"]] == [[10, 0.5], [11, 0.25]]
    assert doc["cursors"] == [[5, 1], [9, 1]]
    assert doc["records_sent"] == 9 and doc["monitors_sent"] == 1
    assert fleet.lane_counts() == {0: {"records": 9, "monitors": 1}}

    # Nothing materialized at all: the whole shard replays.
    fleet.reconcile({})
    doc = fleet.read(0)
    assert doc["done"] == [] and doc["records_sent"] == 0

    # Pre-cursor shard docs (no "cursors" list) are left untouched.
    fleet.write(1, {"done": [[[7, 1.0], None]],
                    "records_sent": 4, "monitors_sent": 0})
    fleet.reconcile({1: {"records": 0, "monitors": 0}})
    assert fleet.read(1)["records_sent"] == 4
