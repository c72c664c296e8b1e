"""Tests for repro.utils.parallel.parallel_replica_map.

Pins the docstring's promises: the inline (processes=1) and pooled
(processes=2) paths produce identical results for the same seed, worker
exceptions propagate on both paths, and per-worker metrics merge back
into the parent registry when observability is on.
"""

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import scoped_registry
from repro.utils.parallel import parallel_replica_map


def _draw(item, seed_seq):
    """Module-level (picklable) worker: one seeded draw per item."""
    rng = np.random.default_rng(seed_seq)
    return item, float(rng.random())


def _scaled_draw(item, seed_seq, factor=1.0):
    rng = np.random.default_rng(seed_seq)
    return factor * item * float(rng.random())


def _boom(item, seed_seq):
    raise ValueError(f"worker failure on item {item}")


def _counting(item, seed_seq):
    obs.metrics().counter("worker.calls").inc()
    obs.metrics().counter("worker.items").inc(item)
    return item


def _die_once(item, seed_seq, tombstone=None, victim=None):
    """Worker that SIGKILLs itself mid-item, exactly once per tombstone.

    The kill fires *before* the item's result is committed, so the
    restarted shard replays the in-flight item from its own spawned
    seed stream — results must match an undisturbed run's.
    """
    import os
    import signal

    rng = np.random.default_rng(seed_seq)
    value = float(rng.random())
    if item == victim and tombstone and not os.path.exists(tombstone):
        open(tombstone, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    # A list, not a tuple: completed items round-trip through the JSON
    # shard checkpoint, which has no tuple type.
    return [item, value]


def _always_die(item, seed_seq, victim=None):
    """Worker whose victim item dies on every attempt (restart cannot help)."""
    import os
    import signal

    if item == victim:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def _scalar_recovery_with_kill(k, seed_seq, tombstone=None, victim=None):
    """One scalar recovery replica, killed once mid-item on the victim lane.

    Mirrors ``analysis.recovery_measure._scalar_recovery_replica`` —
    same spawned seed stream per replica, so the replayed fleet must
    reproduce the serial path's times exactly.
    """
    import os
    import signal

    from repro.balls.load_vector import LoadVector
    from repro.balls.rules import ABKURule
    from repro.balls.scenario_a import ScenarioAProcess

    proc = ScenarioAProcess(
        ABKURule(2), LoadVector.all_in_one(32, 8),
        seed=np.random.default_rng(seed_seq),
    )
    if k == victim and tombstone and not os.path.exists(tombstone):
        open(tombstone, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return int(proc.run_until(7, 2000))


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


class TestDeterminism:
    def test_inline_matches_pool_same_seed(self):
        items = list(range(8))
        inline = parallel_replica_map(_draw, items, seed=42, processes=1)
        pooled = parallel_replica_map(_draw, items, seed=42, processes=2)
        assert inline == pooled

    def test_kwargs_forwarded_both_paths(self):
        items = [1, 2, 3]
        inline = parallel_replica_map(
            _scaled_draw, items, seed=7, processes=1, factor=2.0
        )
        pooled = parallel_replica_map(
            _scaled_draw, items, seed=7, processes=2, factor=2.0
        )
        assert inline == pooled

    def test_different_seeds_differ(self):
        items = list(range(4))
        a = parallel_replica_map(_draw, items, seed=0, processes=1)
        b = parallel_replica_map(_draw, items, seed=1, processes=1)
        assert a != b

    def test_order_preserved(self):
        items = [5, 3, 9, 1]
        out = parallel_replica_map(_draw, items, seed=0, processes=2)
        assert [item for item, _ in out] == items


class TestExceptions:
    def test_worker_exception_propagates_inline(self):
        with pytest.raises(ValueError, match="worker failure"):
            parallel_replica_map(_boom, [0, 1], seed=0, processes=1)

    def test_worker_exception_propagates_pool(self):
        with pytest.raises(ValueError, match="worker failure"):
            parallel_replica_map(_boom, [0, 1, 2, 3], seed=0, processes=2)


class TestMetricsMerge:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_worker_metrics_merge_back(self, processes):
        with scoped_registry() as reg:
            obs.enable()
            out = parallel_replica_map(
                _counting, [1, 2, 3, 4], seed=0, processes=processes
            )
            obs.disable()
        assert out == [1, 2, 3, 4]
        snap = reg.snapshot()
        assert snap["counters"]["worker.calls"] == 4
        assert snap["counters"]["worker.items"] == 10
        assert snap["counters"]["parallel.replicas"] == 4

    def test_disabled_skips_capture_machinery(self):
        with scoped_registry() as reg:
            parallel_replica_map(_counting, [1, 2], seed=0, processes=1)
            snap = reg.snapshot()
        # Inline calls still hit the default registry directly, but the
        # capture/merge bookkeeping stays out of the way when disabled.
        assert snap["counters"]["worker.calls"] == 2
        assert "parallel.replicas" not in snap["counters"]


class TestWorkerRestart:
    """restart_lost: a killed worker's lane replays from its shard
    checkpoint (satellite of the checkpoint/resume PR)."""

    def test_restart_lost_matches_undisturbed(self, tmp_path):
        from repro.checkpoint import FleetCheckpoint

        items = list(range(6))
        baseline = parallel_replica_map(_die_once, items, seed=5, processes=2)
        fleet = FleetCheckpoint(str(tmp_path / "run"))
        out = parallel_replica_map(
            _die_once, items, seed=5, processes=2,
            fleet_ckpt=fleet, restart_lost=1,
            tombstone=str(tmp_path / "tombstone"), victim=4,
        )
        assert out == baseline
        # The tombstone proves the kill actually happened.
        assert (tmp_path / "tombstone").exists()

    def test_restart_exhausted_raises(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        from repro.checkpoint import FleetCheckpoint

        fleet = FleetCheckpoint(str(tmp_path / "run"))
        # No tombstone path that survives the kill: victim dies every
        # attempt, so one allowed restart is not enough.
        with pytest.raises(BrokenProcessPool):
            parallel_replica_map(
                _always_die, list(range(4)), seed=5, processes=2,
                fleet_ckpt=fleet, restart_lost=1, victim=2,
            )

    def test_scalar_campaign_parity_across_restart(self, tmp_path):
        """A pooled scalar fleet that loses a worker still produces the
        per-replica seed-stream results of the serial path, and the
        run artifact records no worker_lost event."""
        import json

        from repro.analysis.recovery_measure import recovery_times_balls
        from repro.balls.rules import ABKURule
        from repro.checkpoint import FleetCheckpoint
        from repro.obs.recorder import observe_run

        serial = recovery_times_balls(
            ABKURule(2), 8, 32, 7, replicas=4, max_steps=2000,
            engine="scalar", seed=3, processes=1,
        )
        out_dir = str(tmp_path / "run")
        fleet = FleetCheckpoint(out_dir)
        with observe_run(out_dir, meta={"experiment": "restart-test"},
                         probe_every=5):
            pooled = parallel_replica_map(
                _scalar_recovery_with_kill, range(4), seed=3, processes=2,
                fleet_ckpt=fleet, restart_lost=1,
                tombstone=str(tmp_path / "tombstone"), victim=2,
            )
        assert (tmp_path / "tombstone").exists()
        assert list(serial) == pooled
        with open(f"{out_dir}/events.jsonl") as f:
            events = [json.loads(line) for line in f]
        assert not any(e.get("monitor") == "worker_lost" for e in events)
