"""The benchmark's workloads: fixed shapes, a seed-derived program seed.

Each workload is one call through the program's public entry points —
``experiments.campaign.run_campaign``, or ``VectorizedEngine.make(...)
.run_batched`` inside ``obs.recorder.observe_run`` — with every input
the call takes pinned here, never left to a CLI or keyword default, so
a later change to a default cannot silently change a workload.  The
benchmark seed only picks the program's RNG seed.

This module imports nothing from the program at module level: the
orchestrator (``run.py``) reads the workload table without paying the
program's import, and each repetition (``rep.py``) imports the entry
point itself, inside the timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

#: Workload name -> the one-line reason it is in the benchmark.
WHY = {
    "campaign_a": (
        "Scenario A crash recovery on the closed batched kernel with "
        "checkpoints: per-row removal inversion and Fact 3.2 searches dominate"
    ),
    "campaign_rbb": (
        "Two-choice Repeated Balls-into-Bins recovery: the synchronous "
        "release/scatter/row-sort kernel on the save_every=0 campaign path"
    ),
    "campaign_b_pool": (
        "Scenario B on the default scalar engine in 2 forked workers with "
        "telemetry bus and shard checkpoints; no vectorized code runs"
    ),
    "open_fleet": (
        "The section 7 open system on run_batched: allocating removal and "
        "fancy-indexed Fact 3.2 updates on row subsets, whole-array scans"
    ),
}

#: Shapes, sized so one repetition takes 2-4 s on a 2-core VM and about
#: ten fit in a 40 s run.  The benchmark seed only picks the program seed.
SHAPES = {
    "campaign_a": {
        "kind": "campaign", "scenario": "a", "engine": "vectorized",
        "n": 512, "m": 512, "d": 2, "replicas": 64, "processes": 1,
        "batch": 128, "probe_every": 50, "save_every": 250,
    },
    "campaign_rbb": {
        "kind": "campaign", "scenario": "rbb_twochoice", "engine": "vectorized",
        "n": 8192, "m": 8192, "d": 2, "replicas": 4, "processes": 1,
        "batch": 128, "probe_every": 50, "save_every": 0,
    },
    "campaign_b_pool": {
        "kind": "campaign", "scenario": "b", "engine": "scalar",
        "n": 128, "m": 128, "d": 2, "replicas": 32, "processes": 2,
        "batch": 1, "probe_every": 50, "save_every": 1,
    },
    "open_fleet": {
        "kind": "open", "removal": "ball", "n": 1024, "m": 1024, "d": 2,
        "max_balls": 2048, "replicas": 64, "steps": 8192, "batch": 128,
        "probe_every": 50,
    },
}

#: Campaign arguments that take the same value on every workload.
CAMPAIGN_FIXED = {
    "max_steps": 1_000_000,
    "heartbeat_s": 0.5,
    "trace": False,
    "eps": 0.25,
    "restart_lost": 0,
}


def recovery_target(n: int, m: int) -> int:
    """The recovered max-load level every campaign is run to.

    ``ceil(m/n) + max(1, ceil(log2 n))``: the program's default
    envelope, pinned here so a change to that default cannot change
    the workload.
    """
    return math.ceil(m / n) + max(1, math.ceil(math.log2(max(2, n))))


def program_seed(workload: str, seed: int) -> int:
    """The program's RNG seed for benchmark *seed* on *workload*."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_config(workload: str, seed: int) -> dict:
    """Every input of one repetition of *workload* at benchmark *seed*."""
    cfg = dict(SHAPES[workload])
    cfg["seed"] = program_seed(workload, seed)
    if cfg["kind"] == "campaign":
        cfg.update(CAMPAIGN_FIXED)
        cfg["target"] = recovery_target(cfg["n"], cfg["m"])
    return cfg


def useful_phases(cfg: dict, times) -> int:
    """Replica-phases a user wanted: sum of recovery times, or R*T."""
    if cfg["kind"] == "open":
        return cfg["replicas"] * cfg["steps"]
    return int(sum(int(t) for t in times))


# -- run (inside a repetition's interpreter) ---------------------------------

def import_entry(cfg: dict) -> None:
    """Import the entry points the workload calls (part of set-up)."""
    if cfg["kind"] == "campaign":
        import repro.experiments.campaign  # noqa: F401
    else:
        import repro.balls.load_vector  # noqa: F401
        import repro.balls.rules  # noqa: F401
        import repro.engine.spec  # noqa: F401
        import repro.engine.vectorized  # noqa: F401
        import repro.obs.recorder  # noqa: F401


def build_inputs(cfg: dict) -> dict:
    """The program objects the measured call takes (part of set-up)."""
    if cfg["kind"] == "campaign":
        keys = ("n", "m", "d", "scenario", "engine", "replicas", "processes",
                "target", "max_steps", "probe_every", "heartbeat_s", "seed",
                "trace", "save_every", "eps", "restart_lost", "batch")
        return {"kwargs": {k: cfg[k] for k in keys}}
    from repro.balls.load_vector import LoadVector
    from repro.balls.rules import ABKURule
    from repro.engine.spec import open_spec

    spec = open_spec(
        ABKURule(cfg["d"]), removal=cfg["removal"],
        max_balls=cfg["max_balls"], name=f"open_{cfg['removal']}",
    )
    start = LoadVector.all_in_one(cfg["m"], cfg["n"])
    meta = {"experiment": "open_fleet",
            **{k: v for k, v in cfg.items() if k != "kind"}}
    return {"spec": spec, "start": start, "meta": meta}


def run(cfg: dict, inputs: dict, run_dir: str):
    """The measured call.  Returns the recovery times or the final loads."""
    if cfg["kind"] == "campaign":
        from repro.experiments.campaign import run_campaign

        out = run_campaign(out=run_dir, **inputs["kwargs"])
        return out["times"]
    from repro.engine.vectorized import VectorizedEngine
    from repro.obs.recorder import observe_run

    with observe_run(run_dir, meta=inputs["meta"], trace=False,
                     probe_every=cfg["probe_every"]):
        proc = VectorizedEngine.make(
            inputs["spec"], inputs["start"], cfg["replicas"], seed=cfg["seed"]
        )
        proc.run_batched(cfg["steps"], batch=cfg["batch"])
    return proc.loads


# -- output checks -----------------------------------------------------------

def paper_bound(cfg: dict) -> int:
    """The scenario's paper recovery bound each replica's time must meet."""
    n, m = cfg["n"], cfg["m"]
    if cfg["scenario"] == "a":
        from repro.coupling.recovery import theorem1_bound

        return theorem1_bound(m)
    if cfg["scenario"] == "b":
        from repro.coupling.recovery import claim53_bound

        return claim53_bound(n, m)
    from repro.obs.probes import rbb_recovery_bound

    return rbb_recovery_bound(n, m)


def _jsonl(path: str) -> list[dict]:
    """Every record of a JSONL file; raises ValueError on a bad line."""
    records = []
    with open(path) as f:
        for k, line in enumerate(f, 1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    raise ValueError(f"{os.path.basename(path)}:{k}: {e}")
    return records


def artifact_counts(cfg: dict, run_dir: str, out) -> tuple[dict, list[str]]:
    """Deterministic counts read off the finished run directory.

    Also checks the directory against the call's output *out*.  Returns
    ``(counts, problems)``; a non-empty *problems* fails every replica
    of the repetition.
    """
    problems: list[str] = []
    counts: dict = {}
    try:
        with open(os.path.join(run_dir, "meta.json")) as f:
            meta = json.load(f)
    except (OSError, ValueError) as e:
        return counts, [f"meta.json unreadable: {e}"]
    if meta.get("status") != "ok":
        problems.append(f"meta.json status {meta.get('status')!r}")
    counts["program_counters"] = meta.get("metrics", {}).get("counters", {})
    ts = os.path.join(run_dir, "timeseries.jsonl")
    records = []
    if os.path.exists(ts):
        try:
            records = _jsonl(ts)
        except ValueError as e:
            problems.append(f"timeseries.jsonl: {e}")
    elif cfg["probe_every"] > 0:
        problems.append("timeseries.jsonl missing")
    counts["probe_points"] = sum(r.get("type") == "point" for r in records)
    lanes = [r for r in records if "worker" in r]
    counts["bus_records"] = sum(
        r.get("monitor") != "worker_lost" for r in lanes
    )
    counts["lost_workers"] = sum(r.get("monitor") == "worker_lost" for r in lanes)
    counts["checkpoint_commits"] = 0
    if cfg.get("save_every", 0) > 0:
        from repro.checkpoint.store import load_checkpoint

        doc = load_checkpoint(run_dir)
        if doc is None:
            problems.append("no loadable checkpoint.json")
        else:
            counts["checkpoint_commits"] = int(doc["seq"])
            problems += _fleet_checkpoint_problems(cfg, doc["state"], out)
        shard_dir = os.path.join(run_dir, "shards")
        if os.path.isdir(shard_dir):
            names = sorted(os.listdir(shard_dir),
                           key=lambda s: int(s.split("-")[1].split(".")[0]))
            results = []
            for name in names:
                with open(os.path.join(shard_dir, name)) as f:
                    done = json.load(f)["done"]
                counts["checkpoint_commits"] += len(done)
                results += [int(result) for result, _ in done]
            if results != [int(t) for t in out]:
                problems.append("shard checkpoints disagree with the result")
    return counts, problems


def _fleet_checkpoint_problems(cfg: dict, state: dict, times) -> list[str]:
    """A checkpointed vectorized fleet must be a valid, consistent state.

    Every row non-increasing and holding exactly m balls, and every
    replica the checkpoint saw recover has the time the call returned.
    """
    import numpy as np

    V = state.get("engine", {}).get("V")
    if V is None:
        return []
    problems = []
    V = np.asarray(V)
    if (np.diff(V, axis=1) > 0).any() or (V.sum(axis=1) != cfg["m"]).any():
        problems.append("checkpointed fleet breaks the load-vector invariants")
    loop = state["loop"]
    done = np.asarray(loop["done"], dtype=bool)
    if (np.asarray(loop["times"])[done] != np.asarray(times)[done]).any():
        problems.append("checkpointed recovery times disagree with the result")
    return problems


def replica_ok(cfg: dict, out) -> list[bool]:
    """Per-replica verdict on the call's output.

    Campaigns: the replica recovered within the scenario's paper bound,
    and no faster than m - target phases (every scenario lowers the max
    load by at most one per phase).  Open fleet: the row is
    non-increasing and holds between 0 and ``max_balls`` balls.
    """
    import numpy as np

    out = np.asarray(out)
    R = cfg["replicas"]
    if cfg["kind"] == "campaign":
        if out.shape != (R,):
            return [False] * R
        lo, hi = cfg["m"] - cfg["target"], paper_bound(cfg)
        return [bool(lo <= int(t) <= hi) for t in out]
    if out.shape != (R, cfg["n"]):
        return [False] * R
    sums = out.sum(axis=1)
    monotone = (np.diff(out, axis=1) <= 0).all(axis=1)
    return [bool(ok and 0 <= s <= cfg["max_balls"])
            for ok, s in zip(monotone, sums)]


def digest(out) -> str:
    """Stable digest of the call's output (times or final loads)."""
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(out, dtype="<i8"))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def dir_bytes(path: str, *, checkpoint: bool) -> int:
    """Bytes under *path*: checkpoint files, or everything else."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            is_ckpt = (name.startswith("checkpoint")
                       or os.path.basename(dirpath) == "shards")
            if is_ckpt == checkpoint:
                total += os.path.getsize(os.path.join(dirpath, name))
    return total
