"""Parallel probed recovery campaigns: ``python -m repro campaign``.

The driver behind the fleet-telemetry demo: a crash-recovery
measurement (§1.1's "how long until the system recovers?") run as an
``observe_run`` artifact with the replica fleet fanned across worker
processes.  Each worker is a telemetry-bus lane
(:mod:`repro.obs.bus`): decimated probe points and recovery-monitor
events stream to the parent recorder live, heartbeats land in
``heartbeats.jsonl``, and ``repro obs watch <run-dir>`` tails the
campaign while it runs — per-worker lanes, a fleet-aggregate track,
stall flags.

Engines and determinism follow
:func:`~repro.analysis.recovery_measure.recovery_times_balls`:
``scalar`` keeps one spawned RNG stream per replica (results identical
at every process count); ``vectorized`` shards the fleet into one
``(R_k, n)`` engine per worker (deterministic per ``(seed,
processes)``).  The finished ``timeseries.jsonl`` is canonicalized at
finalization, so a re-run with the same seed and process count is
byte-identical.

:func:`campaign_config` validates the arguments and builds the config
record; :func:`run_campaign` hands that record to
:func:`~repro.checkpoint.campaign.run_checkpointed_campaign`, the one
campaign driver: checkpointed or not, every engine and every
``save_every`` cadence runs through it.
"""

from __future__ import annotations

import os
import time

from repro.analysis.recovery_measure import CAMPAIGN_SCENARIOS
from repro.checkpoint.campaign import run_checkpointed_campaign
from repro.utils.rng import SeedLike
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = ["campaign_config", "run_campaign", "default_campaign_dir"]


def default_campaign_dir(runs_dir: str = "runs") -> str:
    """A fresh ``runs/<stamp>-campaign`` directory name (not created)."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = os.path.join(runs_dir, f"{stamp}-campaign")
    out, k = base, 1
    while os.path.exists(out):
        out = f"{base}-{k}"
        k += 1
    return out


def campaign_config(
    *,
    n: int = 64,
    m: int | None = None,
    d: int = 2,
    scenario: str = "a",
    engine: str = "scalar",
    replicas: int = 8,
    processes: int = 2,
    target: int | None = None,
    max_steps: int = 1_000_000,
    probe_every: int = 50,
    heartbeat_s: float | None = None,
    seed: SeedLike = 0,
    trace: bool = False,
    save_every: int = 0,
    eps: float = 0.25,
    restart_lost: int = 0,
    batch: int = 1,
) -> dict:
    """Validate a campaign's arguments and build its config record.

    Raises ``ValueError`` (``TypeError`` for a count that is not an
    int) naming the reason before anything is written.
    The campaign starts every replica from the all-in-one crash state
    and measures the hitting time of max load ≤ *target* (default:
    :func:`~repro.obs.probes.recovery_target`).

    ``save_every > 0`` turns on checkpointing (see
    :mod:`repro.checkpoint`): the run commits atomic
    ``checkpoint.json[.npz]`` snapshots every *save_every* steps (per
    completed fleet item for pooled runs) and finalizes a resumable
    artifact on SIGTERM; ``repro resume <run-dir>`` continues it.
    ``engine='exact'`` measures TV-distance recovery of the exact
    distribution (first t with d_TV(μ_t, π) ≤ *eps*) instead of
    sampled hitting times.  *restart_lost* > 0 lets pooled campaigns
    survive that many killed workers by replaying their shards from
    the last fleet checkpoint, so it needs ``save_every > 0`` and
    ``processes > 1`` on a sampling engine (``ValueError`` otherwise).
    With ``save_every=0`` (the default) nothing is checkpointed: no
    SIGTERM handler, no fleet checkpoint, no save.

    Besides the paper's ``'a'``/``'b'``, *scenario* accepts the
    synchronous RBB tokens ``'rbb_uniform'``, ``'rbb_twochoice'`` and
    ``'rbb_walk'`` (``repro campaign --spec rbb_…``); the placement
    rule then follows :func:`~repro.analysis.recovery_measure.campaign_rule`
    and *d* only matters for the two-choice flavors.

    *batch* (``--batch``) is the longest segment a vectorized fleet
    advances per kernel call — same times, same telemetry bytes, same
    checkpoints at every value; just fewer Python-level calls.  It
    must be ≥ 1, and > 1 only on the vectorized engine.
    """
    if scenario not in CAMPAIGN_SCENARIOS:
        raise ValueError(
            f"scenario must be one of {CAMPAIGN_SCENARIOS}, got {scenario!r}"
        )
    n = check_positive_int("n", n)
    m = n if m is None else check_positive_int("m", m)
    replicas = check_positive_int("replicas", replicas)
    if processes is not None:
        processes = check_positive_int("processes", processes)
    max_steps = check_positive_int("max_steps", max_steps)
    probe_every = check_nonnegative_int("probe_every", probe_every)
    save_every = check_nonnegative_int("save_every", save_every)
    pooled = engine != "exact" and (processes is None or processes > 1)
    if restart_lost > 0 and not (pooled and save_every > 0):
        raise ValueError(
            f"restart_lost={restart_lost} needs fleet checkpoints to replay "
            "lost shards from, and only a pooled (processes > 1) scalar or "
            "vectorized campaign with save_every > 0 writes them"
        )
    if save_every > 0 and not (seed is None or isinstance(seed, int)):
        raise ValueError(
            "save_every > 0 needs an int or None seed (the checkpoint "
            f"stores it as JSON), got {type(seed).__name__}"
        )
    batch = check_positive_int("batch", batch)
    if batch > 1 and engine != "vectorized":
        raise ValueError(
            f"batch={batch} needs engine='vectorized': the {engine} engine "
            "has no segment kernels and steps one phase at a time"
        )
    if target is None:
        from repro.obs.probes import recovery_target

        target = recovery_target(n, m)
    elif engine != "exact" and target < -(-m // n):
        raise ValueError(
            f"target={target} is below ceil(m/n) = {-(-m // n)}: every "
            "campaign scenario keeps all m balls, so no replica can reach it"
        )
    return {
        "n": n,
        "m": m,
        "d": d,
        "scenario": scenario,
        "engine": engine,
        "replicas": replicas,
        "processes": processes,
        "target": int(target),
        "max_steps": max_steps,
        "probe_every": probe_every,
        "heartbeat_s": heartbeat_s,
        "seed": seed,
        "trace": trace,
        "save_every": save_every,
        "eps": float(eps),
        "restart_lost": int(restart_lost),
        "batch": batch,
    }


def run_campaign(*, out: str | None = None, **kwargs) -> dict:
    """Run one observed, parallel crash-recovery campaign into *out*.

    Takes :func:`campaign_config`'s keyword arguments.  Returns a
    summary dict with the run directory, the per-replica times, and the
    fleet quantiles; the full telemetry lives in ``<run_dir>/``.
    """
    return run_checkpointed_campaign(
        out or default_campaign_dir(), config=campaign_config(**kwargs)
    )
