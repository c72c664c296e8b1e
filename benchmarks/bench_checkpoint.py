"""Checkpoint subsystem overhead benchmarks.

The contract (docs/CHECKPOINT.md): ``--save-every 0`` — the default —
builds no checkpointer, so a campaign that never asked for
checkpointing pays nothing.  ``test_save_every_zero_overhead_ratio`` is
the CI gate on that promise: ``run_campaign(save_every=0)``, which goes
through the one campaign driver, must stay within 5% of the bare
measurement it wraps (``recovery_times_balls`` called directly inside
``observe_run``).

The remaining benches put numbers on the costs that *are* paid when
checkpointing is on: one atomic ``checkpoint.json[.npz]`` commit, a
chunked scalar measurement at a given cadence, and a fleet-shard
commit.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.checkpoint.store import save_checkpoint, write_json_npz

CAMPAIGN_KW = dict(
    n=16, m=64, d=2, scenario="a", engine="scalar",
    replicas=6, processes=1, max_steps=20_000, probe_every=0, seed=7,
)


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    obs.set_probe_interval(0)
    yield
    obs.disable()
    obs.set_probe_interval(0)


def _best_of(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_interleaved(fa, fb, repeats=9):
    """Best-of for two rivals with alternating samples.

    Alternation decorrelates slow drift (thermal throttling, a noisy
    neighbor) from the A-vs-B comparison: both sides sample the same
    machine conditions, so the best-of ratio stays honest on shared
    runners.
    """
    ta = tb = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fa()
        ta = min(ta, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fb()
        tb = min(tb, time.perf_counter() - t0)
    return ta, tb


def test_bench_save_checkpoint(benchmark, tmp_path):
    """One atomic checkpoint commit (json + npz sidecar + fsync)."""
    run_dir = str(tmp_path / "run")
    state = {"engine": {"loads": np.arange(1024), "t": 1000}}
    seq = iter(range(1, 10_000_000))
    benchmark(
        lambda: save_checkpoint(
            run_dir,
            {"kind": "campaign", "step": 1000, "config": {}, "state": state},
            seq=next(seq),
        )
    )


def test_bench_shard_commit(benchmark, tmp_path):
    """One fleet-shard commit (the per-item cost of pooled campaigns)."""
    path = str(tmp_path / "shard-0.json")
    payload = {"done": [[int(i), None] for i in range(16)],
               "records_sent": 128, "monitors_sent": 2}
    benchmark(lambda: write_json_npz(path, payload))


def test_bench_campaign_checkpointed(benchmark, tmp_path):
    """A scalar campaign at cadence 500 (chunked run_until + saves)."""
    from repro.experiments.campaign import run_campaign

    stamp = iter(range(10_000_000))
    benchmark(
        lambda: run_campaign(
            out=str(tmp_path / f"run-{next(stamp)}"),
            save_every=500, **CAMPAIGN_KW,
        )
    )


def test_save_every_zero_overhead_ratio(capsys, tmp_path):
    """CI gate: the campaign driver adds nothing at save_every=0.

    The driven side is ``run_campaign(save_every=0)``: argument checks,
    the config record, and
    :func:`~repro.checkpoint.campaign.run_checkpointed_campaign` with
    no checkpointer.  The bare side makes the call that driver wraps —
    ``recovery_times_balls`` inside ``observe_run``, same arguments,
    same meta keys — so both write the same artifact and the ratio
    prices only the driver's own work.
    """
    from repro.analysis.recovery_measure import (
        campaign_rule,
        recovery_times_balls,
    )
    from repro.balls.load_vector import LoadVector
    from repro.experiments.campaign import run_campaign
    from repro.obs.probes import recovery_target
    from repro.obs.recorder import observe_run

    stamp = iter(range(10_000_000))
    # A longer measurement than the micro-benches (recovery from the
    # all-in-one crash scales with m), so the ratio sits well above
    # timer noise.
    kw = dict(CAMPAIGN_KW, m=256)
    n, m = kw["n"], kw["m"]
    target = recovery_target(n, m)
    meta = {
        "experiment": "campaign", "scenario": kw["scenario"],
        "engine": kw["engine"], "n": n, "m": m, "d": kw["d"],
        "replicas": kw["replicas"], "processes": kw["processes"],
        "target_max_load": target, "seed": kw["seed"],
        "steps_total": kw["max_steps"], "save_every": 0, "batch": 1,
    }

    def bare():
        with observe_run(
            str(tmp_path / f"b-{next(stamp)}"), meta=meta, trace=False,
            probe_every=kw["probe_every"],
        ):
            recovery_times_balls(
                campaign_rule(kw["scenario"], kw["d"]), n, m, target,
                scenario=kw["scenario"],
                start=LoadVector.all_in_one(m, n),
                replicas=kw["replicas"],
                max_steps=kw["max_steps"],
                engine=kw["engine"],
                seed=kw["seed"],
                processes=kw["processes"],
            )

    def driven():
        run_campaign(
            out=str(tmp_path / f"d-{next(stamp)}"), target=target,
            save_every=0, **kw,
        )

    bare()  # warmup
    driven()
    t_bare, t_driven = _best_of_interleaved(bare, driven)
    ratio = t_driven / t_bare
    with capsys.disabled():
        print(
            f"\nsave_every=0 overhead: bare {1e3 * t_bare:.1f} ms, "
            f"driven {1e3 * t_driven:.1f} ms, ratio {ratio:.4f}"
        )
    assert ratio < 1.05, f"save_every=0 must be free, got ratio {ratio:.3f}"
