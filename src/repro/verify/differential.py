"""Differential engine fuzzing: the harness that makes perf rewrites safe.

The vectorized engine moves every fleet through one set of batched
kernels (:meth:`VectorizedProcess._advance`), and they promise
*bitwise* the trajectory of the paper's row-by-row process on the
documented uniform slab, whatever the segment length — a promise no
hand-picked test case can certify.  This module certifies it by
sampling randomized configurations (spec × shape × seed × horizon ×
batch × probe decimation × checkpoint cadence) and running
differential checks over each:

* ``batched`` — ``run_batched(T, batch)`` vs :func:`replay_rows`, a
  replay of the same uniforms on plain int64 rows: one replica at a
  time through the scalar Fact 3.2 primitives (sequential specs), or
  all rows one step at a time with one ball placed per uniform
  (synchronous specs): load matrix, RNG stream position, step counter
  and relocation counter must match exactly;
* ``replay`` — a mid-run :meth:`state_dict` snapshot restored onto a
  fresh fleet and continued with a *different* batch length must land
  on the identical state (checkpoint portability across batching);
* ``artifact`` — observed ``recovery_times`` at ``batch=1`` vs
  ``batch=b`` (segment cuts and mid-segment completion): per-replica
  hitting times, ``timeseries.jsonl`` / ``events.jsonl`` bytes, and
  the (step, payload-digest) sequence offered to a ``save_every``
  checkpointer must all agree;
* ``scalar`` — the scalar engine's ``run``, ``run_until`` and
  ``trajectory`` vs :func:`replay_scalar`, a replay of the engine's
  documented draw order on one plain int64 row and a plain Generator
  (closed sequential specs): loads, step counter, relocation counter,
  RNG state, hitting time and recorded statistic must match exactly;
* ``ks`` — scalar vs vectorized end-state max-load distributions
  (two-sample KS), the engines-disagree-in-law alarm.  Statistical, so
  a failure is only reported when two independent sample pairs both
  reject at p < 1e-4.

The config sample is a pure function of ``(seed, budget)``, so a CI
failure replays locally with the one-line command the report prints
(``repro fuzz --config '…' --check …``).  ``tests/fuzzkit.py`` builds
its shrinker and pytest glue on these primitives.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import asdict, dataclass, replace

import numpy as np

__all__ = [
    "DiffConfig",
    "sample_configs",
    "vectorizable_spec_names",
    "build_processes",
    "replay_rows",
    "replay_scalar",
    "check_batched",
    "check_replay",
    "check_artifact",
    "diff_scalar",
    "check_scalar",
    "check_ks",
    "run_check",
    "run_grid",
    "run_fuzz_cli",
    "CHECKS",
]


@dataclass(frozen=True)
class DiffConfig:
    """One sampled differential-testing configuration (JSON-round-trippable)."""

    spec: str
    n: int
    m: int
    replicas: int
    steps: int
    batch: int
    probe_every: int
    save_every: int
    seed: int

    def to_json(self) -> str:
        """Canonical one-line JSON (the ``--config`` replay payload)."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DiffConfig":
        doc = json.loads(text)
        return cls(**{k: (v if k == "spec" else int(v)) for k, v in doc.items()})

    def cli(self, check: str = "all") -> str:
        """The one-line replay command a failure report prints."""
        return (
            "PYTHONPATH=src python -m repro fuzz "
            f"--config '{self.to_json()}' --check {check}"
        )


def vectorizable_spec_names() -> list[str]:
    """Registered spec names the vectorized engine accepts (sorted)."""
    from repro.engine.registry import registered_specs
    from repro.engine.vectorized import VectorizedEngine

    return sorted(
        name
        for name, spec in registered_specs().items()
        if VectorizedEngine.supports(spec)[0]
    )


def sample_configs(budget: int, seed: int = 0) -> list[DiffConfig]:
    """Deterministically sample *budget* configurations.

    A pure function of ``(seed, budget)``: the CI grid and a local
    replay see the same configs.  Shapes stay small — the point is
    coverage of the *code paths* (spec kind × batch vs horizon vs
    probe/checkpoint boundary alignment), not scale.  Boundary shapes
    are drawn on purpose: n = 1 and 2, and about one config in 25
    with a ball count whose loads fit int32 while R·(m + 1) does not,
    so the batched kernels search int64 scratch over an int32 fleet.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    names = vectorizable_spec_names()
    out: list[DiffConfig] = []
    for _ in range(budget):
        n = int(rng.integers(1, 24))
        replicas = int(rng.integers(2, 14))
        m = int(rng.integers(1, 4 * n))
        if rng.random() < 0.04:
            m = int(rng.integers(2**31 // replicas, 2**31 - 1))
        steps = int(rng.integers(1, 160))
        batch = int(rng.integers(2, 80))
        probe_every = int(rng.choice([0, 1, 2, 3, 5, 7, 11, 16]))
        save_every = int(rng.choice([0, 1, 2, 5, 9, 13]))
        out.append(
            DiffConfig(
                spec=str(names[int(rng.integers(0, len(names)))]),
                n=n,
                m=m,
                replicas=replicas,
                steps=steps,
                batch=batch,
                probe_every=probe_every,
                save_every=save_every,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _spec_and_start(cfg: DiffConfig):
    from repro.balls.load_vector import LoadVector
    from repro.engine.registry import registered_specs

    spec = registered_specs()[cfg.spec]
    m = cfg.m
    if spec.kind == "open" and spec.max_balls is not None:
        m = min(m, spec.max_balls)
    m = max(m, 1)
    return spec, LoadVector.all_in_one(m, cfg.n)


def build_processes(cfg: DiffConfig, count: int = 2):
    """*count* identically-seeded vectorized twins of *cfg*'s fleet."""
    from repro.engine.vectorized import VectorizedProcess

    spec, start = _spec_and_start(cfg)
    return [
        VectorizedProcess(spec, start, cfg.replicas, seed=cfg.seed)
        for _ in range(count)
    ]


def _fleet_state(p) -> dict:
    """The comparable full state of a fleet (canonical dtypes)."""
    return {
        "V": np.asarray(p.loads, dtype=np.int64),
        "rng": p._rng.bit_generator.state,
        "t": p.t,
        "relocations": p.relocations,
    }


def replay_rows(spec, start, replicas: int, seed: int, steps: int) -> dict:
    """Row-by-row replay of a fleet from the LoadVector *start*.

    The kernels' bitwise oracle, on plain int64 rows, with insertion by
    ``spec.rule.insertion_quantile_batch`` on one uniform at a time.

    * Sequential specs: draws the documented slab
      ``default_rng(seed).random((steps, k, replicas))`` (k = 2 closed,
      4 with relocation, 3 open) and feeds replica r's column to its
      row: removal by ``spec.removal.quantile`` and every edit at
      :func:`~repro.balls.load_vector.ominus_index` /
      :func:`~repro.balls.load_vector.oplus_index`.  Nothing here
      touches the kernels' fleet search, edits or whole-fleet removal
      inversion.
    * Synchronous (RBB) specs: steps all rows together.  Per step each
      row releases one ball from each of its s_r nonempty bins, one
      ``rng.random(Σ s_r)`` draw is made as the kernel makes it, row r
      places one ball per uniform of its share (rows in order), and
      each row is re-sorted descending.  Nothing here touches the
      kernel's fleet key, release mask, scatter or keyed row sort.

    Returns the keys of :func:`_fleet_state`.
    """
    from repro.balls.load_vector import ominus_index, oplus_index

    n, law, p, cap = start.n, spec.removal, spec.p_relocate, spec.max_balls
    rng = np.random.default_rng(seed)
    V = np.tile(start.loads.astype(np.int64), (replicas, 1))
    relocations = 0

    def index(u) -> int:
        return int(spec.rule.insertion_quantile_batch(n, np.array([u]))[0])

    if spec.step.synchronous:
        for _ in range(steps):
            released = [int((row > 0).sum()) for row in V]
            for row in V:
                row[row > 0] -= 1
            draws = iter(rng.random(sum(released)))
            for row, s in zip(V, released):
                for _ in range(s):
                    row[index(next(draws))] += 1
                row[::-1].sort()
        return {"V": V, "rng": rng.bit_generator.state, "t": steps,
                "relocations": 0}

    k = 3 if spec.kind == "open" else (4 if p > 0 else 2)
    U = rng.random((steps, k, replicas))
    for r in range(replicas):
        row = V[r]
        for u in U[:, :, r]:
            if spec.kind == "open":
                balls = int(row.sum())
                if u[0] < 0.5:
                    if balls > 0:
                        row[ominus_index(row, law.quantile(row, u[1]))] -= 1
                elif cap is None or balls < cap:
                    row[oplus_index(row, index(u[2]))] += 1
                continue
            row[ominus_index(row, law.quantile(row, u[0]))] -= 1
            row[oplus_index(row, index(u[1]))] += 1
            if p > 0 and u[2] < p:
                target = index(u[3])
                if row[0] - row[target] >= 2:
                    row[ominus_index(row, 0)] -= 1
                    row[oplus_index(row, target)] += 1
                    relocations += 1
    return {"V": V, "rng": rng.bit_generator.state, "t": steps,
            "relocations": relocations}


def replay_scalar(spec, start, seed, steps: int) -> dict:
    """The scalar engine's phases replayed on one plain int64 row.

    The bitwise oracle of :class:`~repro.engine.scalar.SpecProcess`
    (closed sequential specs), sharing none of its loop: a plain
    ``np.random.default_rng(seed)`` Generator and, per phase, the
    engine's documented draws in order —

    * removal: ``integers(0, m)`` (ball removal, the ball's bin found on
      the row's cumulative sum) or ``integers(0, s)`` over the s
      nonempty bins (bin removal) when ``p_relocate == 0``; otherwise
      one ``random()``, at ball ⌊u·m⌋ or bin ⌊u·s⌋; any other law at
      ``law.quantile(row, random())``;
    * placement: ``rule.select(row, rng)``;
    * with ``p_relocate > 0``: the coin ``random() < p``, then
      ``rule.select(row, rng)`` for the target, moved to only when the
      fullest bin's load exceeds the target's by at least 2.

    Every edit goes through :func:`~repro.balls.load_vector.ominus_index`
    / :func:`~repro.balls.load_vector.oplus_index`; no tail counts,
    Fenwick tree or draw stream.  Returns the keys of
    :func:`_fleet_state` (``V`` is the row as a 1 × n matrix) plus
    ``max_loads``, the max load before the first phase and after each.
    """
    from repro.balls.load_vector import ominus_index, oplus_index
    from repro.engine.spec import BallRemoval, BinRemoval

    if spec.kind != "closed" or spec.step.synchronous:
        raise ValueError(f"replay_scalar replays closed sequential specs, not {spec.name!r}")
    rng = np.random.default_rng(seed)
    row = start.loads.astype(np.int64)
    m, law, p, rule = int(row.sum()), spec.removal, spec.p_relocate, spec.rule
    relocations = 0
    max_loads = [int(row[0])]
    for _ in range(steps):
        if isinstance(law, BallRemoval):
            ball = min(int(rng.random() * m), m - 1) if p > 0 else int(rng.integers(0, m))
            i = int(np.searchsorted(np.cumsum(row), ball, side="right"))
        elif isinstance(law, BinRemoval):
            s = int((row > 0).sum())
            i = min(int(rng.random() * s), s - 1) if p > 0 else int(rng.integers(0, s))
        else:
            i = law.quantile(row, float(rng.random()))
        row[ominus_index(row, i)] -= 1
        row[oplus_index(row, rule.select(row, rng))] += 1
        if p > 0 and rng.random() < p:
            dst = rule.select(row, rng)
            if row[0] - row[dst] >= 2:
                row[ominus_index(row, 0)] -= 1
                row[oplus_index(row, dst)] += 1
                relocations += 1
        max_loads.append(int(row[0]))
    return {"V": row[None, :], "rng": rng.bit_generator.state, "t": steps,
            "relocations": relocations, "max_loads": max_loads}


def _diff_states(a: dict, b: dict, label_a: str, label_b: str) -> str | None:
    if not np.array_equal(a["V"], b["V"]):
        row = int(np.argwhere((a["V"] != b["V"]).any(axis=1))[0][0])
        return (
            f"load matrices diverge at replica {row}: "
            f"{label_a}={a['V'][row].tolist()} {label_b}={b['V'][row].tolist()}"
        )
    if a["rng"] != b["rng"]:
        return f"RNG stream positions diverge ({label_a} vs {label_b})"
    if a["t"] != b["t"]:
        return f"step counters diverge: {a['t']} vs {b['t']}"
    if a["relocations"] != b["relocations"]:
        return f"relocation counters diverge: {a['relocations']} vs {b['relocations']}"
    return None


class _RecordingCheckpointer:
    """Duck-typed checkpointer that records (step, payload digest) offers.

    Only cadence-due offers materialize a payload, mirroring
    :class:`repro.checkpoint.manager.Checkpointer` — so the recorded
    sequence is exactly the committed-save sequence a real run would
    produce, without touching the filesystem.
    """

    def __init__(self, save_every: int):
        self.save_every = int(save_every)
        self.saved: list[tuple[int, str]] = []

    def maybe_save(self, step: int, payload_fn) -> bool:
        if self.save_every <= 0 or step % self.save_every != 0:
            return False
        self.saved.append((int(step), self._digest(payload_fn())))
        return True

    @staticmethod
    def _digest(payload: dict) -> str:
        import hashlib

        eng = payload["engine"]
        loop = payload["loop"]
        h = hashlib.sha256()
        h.update(np.asarray(eng["V"], dtype=np.int64).tobytes())
        h.update(repr(eng["rng"]).encode())
        h.update(str(int(eng["t"])).encode())
        h.update(str(int(eng.get("relocations", 0))).encode())
        h.update(
            json.dumps(
                {
                    "k": int(loop["k"]),
                    "executed": int(loop["executed"]),
                    "times": np.asarray(loop["times"]).tolist(),
                    "done": np.asarray(loop["done"]).astype(int).tolist(),
                },
                sort_keys=True,
            ).encode()
        )
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Checks: each returns None (pass) or a failure description
# ---------------------------------------------------------------------------

def check_batched(cfg: DiffConfig) -> str | None:
    """``run_batched(T, batch)`` vs :func:`replay_rows`, bitwise, for every spec.

    Sequential specs replay the same uniform slab row by row;
    synchronous (RBB) specs replay each step's scatter draw one ball at
    a time.
    """
    spec, start = _spec_and_start(cfg)
    ref = replay_rows(spec, start, cfg.replicas, cfg.seed, cfg.steps)
    (proc,) = build_processes(cfg, 1)
    proc.run_batched(cfg.steps, batch=cfg.batch)
    return _diff_states(
        ref, _fleet_state(proc), "replay_rows", f"run_batched[{cfg.batch}]"
    )


def check_replay(cfg: DiffConfig) -> str | None:
    """Mid-run snapshot → fresh fleet → different batch: bitwise replay."""
    t1 = max(1, cfg.steps // 2)
    t2 = max(1, cfg.steps - t1)
    a, b = build_processes(cfg, 2)
    a.run_batched(t1, batch=cfg.batch)
    snap = a.state_dict()
    a.run_batched(t2, batch=cfg.batch)
    b.load_state(snap)
    # A different segment length exercises different cut points.
    b.run_batched(t2, batch=max(1, cfg.batch // 2) + 1)
    return _diff_states(
        _fleet_state(a), _fleet_state(b), "continuous", "replayed"
    )


def check_artifact(cfg: DiffConfig) -> str | None:
    """Observed ``recovery_times``: batch=1 vs batch=b artifact identity.

    Both sides run the same kernels, so this checks how
    ``recovery_times`` cuts segments (at probe and ``save_every``
    boundaries) and finishes mid-segment, not the kernels themselves
    (:func:`check_batched` does that).  Compares per-replica hitting
    times, the decimated telemetry bytes
    (``timeseries.jsonl``/``events.jsonl``) and the committed-save
    sequence offered to a ``save_every`` checkpointer.
    """
    import tempfile

    from repro.obs.probes import recovery_target
    from repro.obs.recorder import observe_run

    spec, start = _spec_and_start(cfg)
    target = recovery_target(cfg.n, int(start.m))
    max_steps = max(cfg.steps, 1)
    results = {}
    with tempfile.TemporaryDirectory() as td:
        for label, batch in (("ref", 1), ("batched", cfg.batch)):
            run_dir = os.path.join(td, label)
            ckpt = _RecordingCheckpointer(cfg.save_every)
            (proc,) = build_processes(cfg, 1)
            with observe_run(
                run_dir,
                meta={"seed": cfg.seed},
                probe_every=cfg.probe_every,
            ):
                times = proc.recovery_times(
                    target, max_steps, checkpointer=ckpt, batch=batch
                )
            streams = {}
            for fname in ("timeseries.jsonl", "events.jsonl"):
                path = os.path.join(run_dir, fname)
                streams[fname] = (
                    open(path, "rb").read() if os.path.exists(path) else None
                )
            results[label] = (np.asarray(times), ckpt.saved, streams)
    t_ref, saved_ref, s_ref = results["ref"]
    t_bat, saved_bat, s_bat = results["batched"]
    if not np.array_equal(t_ref, t_bat):
        return (
            f"recovery times diverge: batch=1 {t_ref.tolist()} vs "
            f"batch={cfg.batch} {t_bat.tolist()}"
        )
    if saved_ref != saved_bat:
        return (
            f"checkpoint save sequences diverge: batch=1 offered "
            f"{[s for s, _ in saved_ref]}, batch={cfg.batch} offered "
            f"{[s for s, _ in saved_bat]} (or payload digests differ)"
        )
    for fname in ("timeseries.jsonl", "events.jsonl"):
        if s_ref[fname] != s_bat[fname]:
            return f"{fname} bytes diverge between batch=1 and batch={cfg.batch}"
    return None


#: Largest ball count the ``scalar`` check replays: the scalar engine's
#: tail counts take O(max load) memory, and the all-in-one start puts
#: every ball in one bin.
_SCALAR_MAX_BALLS = 1 << 16


def _scalar_state(p) -> dict:
    """The comparable state of one scalar simulator (keys of :func:`_fleet_state`)."""
    return {"V": p.loads[None, :], "rng": p._rng.bit_generator.state,
            "t": p.t, "relocations": p.relocations}


def diff_scalar(spec, start, seed, steps: int, probe_every: int) -> str | None:
    """The scalar engine's run loops vs :func:`replay_scalar`, bitwise.

    Three fresh simulators of the closed sequential *spec* at *seed*:
    ``run(steps)``; ``run_until`` at the lowest max load the replay
    reaches in its first half (so it hits at or before ``steps // 2``,
    at 0 when the start is already there), under probes every
    *probe_every* phases when that is positive, so its segments are cut
    at probe boundaries; and ``trajectory(steps, every=probe_every or
    1)``.  Each must match the replay's loads, step counter, relocation
    counter and RNG state at the phase it stops, and the hitting time
    or the recorded max loads.  Returns None or the first difference.
    """
    import tempfile

    from repro.engine.scalar import ScalarEngine
    from repro.obs.recorder import observe_run

    ref = replay_scalar(spec, start, seed, steps)
    maxes = ref.pop("max_loads")

    def make():
        return ScalarEngine.make(spec, start, seed=seed)

    proc = make()
    proc.run(steps)
    why = _diff_states(ref, _scalar_state(proc), "replay_scalar", "run")
    if why:
        return why
    target = min(maxes[: steps // 2 + 1])
    want = maxes.index(target)
    proc = make()
    if probe_every > 0:
        with tempfile.TemporaryDirectory() as td:
            with observe_run(td, trace=False, probe_every=probe_every):
                hit = proc.run_until(target, steps)
    else:
        hit = proc.run_until(target, steps)
    if hit != want:
        return f"run_until({target}) hit at {hit}, replay_scalar at {want}"
    at_hit = replay_scalar(spec, start, seed, want)
    at_hit.pop("max_loads")
    why = _diff_states(at_hit, _scalar_state(proc), "replay_scalar", "run_until")
    if why:
        return why
    every = probe_every or 1
    proc = make()
    got = proc.trajectory(steps, every=every).tolist()
    if got != [float(x) for x in maxes[::every]]:
        return f"trajectory(every={every}) records {got}, replay_scalar {maxes[::every]}"
    return _diff_states(ref, _scalar_state(proc), "replay_scalar", "trajectory")


def check_scalar(cfg: DiffConfig) -> str | None:
    """:func:`diff_scalar` on *cfg* (closed sequential specs; others pass).

    From *cfg*'s crash state, and from the balanced state, where the
    max load can climb past the start's, so the tail counts must grow.
    """
    from repro.balls.load_vector import LoadVector

    spec, crash = _spec_and_start(cfg)
    if spec.kind != "closed" or spec.step.synchronous or crash.m > _SCALAR_MAX_BALLS:
        return None
    for start in (crash, LoadVector.balanced(crash.m, crash.n)):
        why = diff_scalar(spec, start, cfg.seed, cfg.steps, cfg.probe_every)
        if why:
            return f"from {start.loads.tolist()}: {why}"
    return None


def check_ks(cfg: DiffConfig) -> str | None:
    """Scalar vs vectorized end-state max loads: two-sample KS.

    Statistical: reports failure only when two independent sample
    pairs both reject at p < 1e-4 (false-alarm rate ~1e-8 per config).
    """
    from scipy.stats import ks_2samp

    from repro.engine.registry import registered_specs
    from repro.engine.scalar import ScalarEngine
    from repro.engine.vectorized import VectorizedEngine

    spec = registered_specs()[cfg.spec]
    _, start = _spec_and_start(cfg)
    horizon = min(max(cfg.steps, 20), 120)
    replicas = 150
    pvalues = []
    for round_ in range(2):
        base = (cfg.seed + 1) * (round_ + 1)
        scalar_max = np.empty(replicas)
        for k in range(replicas):
            p = ScalarEngine.make(spec, start, seed=base * 100_003 + k)
            p.run(horizon)
            scalar_max[k] = float(p.loads[0])
        bp = VectorizedEngine.make(spec, start, replicas, seed=base + 7)
        bp.run_batched(horizon, batch=cfg.batch)
        _, pvalue = ks_2samp(scalar_max, bp.max_loads().astype(np.float64))
        pvalues.append(float(pvalue))
        if pvalue >= 1e-4:
            return None
    return (
        f"scalar vs vectorized max-load KS rejects twice: "
        f"p-values {pvalues} at horizon {horizon}"
    )


CHECKS = {
    "batched": check_batched,
    "replay": check_replay,
    "artifact": check_artifact,
    "scalar": check_scalar,
    "ks": check_ks,
}

#: Cheap checks run on every grid config; expensive ones are decimated.
_GRID_PLAN = (
    ("batched", 1),  # every config
    ("replay", 1),
    ("scalar", 1),
    ("artifact", 3),  # every 3rd config
    ("ks", 8),  # every 8th config (statistical, scalar-loop heavy)
)


def run_check(cfg: DiffConfig, check: str) -> str | None:
    """Run one named check; returns None (pass) or the failure text.

    A check that raises fails with the exception's type, message and
    innermost frame.
    """
    try:
        fn = CHECKS[check]
    except KeyError:
        raise ValueError(
            f"unknown check {check!r}; choose from {sorted(CHECKS)}"
        ) from None
    try:
        return fn(cfg)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        return f"raised {type(exc).__name__}: {exc} ({where})"


def run_grid(
    configs: list[DiffConfig],
    *,
    check: str = "all",
    progress=None,
) -> list[tuple[DiffConfig, str, str]]:
    """Run the differential grid; returns (config, check, failure) triples.

    ``check='all'`` applies the decimated plan (bitwise checks on every
    config, artifact/KS on a deterministic subsample); a named check
    runs on every config.  *progress* is an optional callable invoked
    as ``progress(i, total)`` after each config.
    """
    failures: list[tuple[DiffConfig, str, str]] = []
    total = len(configs)
    for i, cfg in enumerate(configs):
        if check == "all":
            plan = [name for name, every in _GRID_PLAN if i % every == 0]
        else:
            plan = [check]
        for name in plan:
            why = run_check(cfg, name)
            if why is not None:
                failures.append((cfg, name, why))
        if progress is not None:
            progress(i + 1, total)
    return failures


def run_fuzz_cli(
    *,
    budget: int = 50,
    seed: int = 0,
    config_json: str | None = None,
    check: str = "all",
    as_json: bool = False,
) -> int:
    """The ``repro fuzz`` entry point; returns the process exit code."""
    import sys

    if config_json is not None:
        cfg = DiffConfig.from_json(config_json)
        names = sorted(CHECKS) if check == "all" else [check]
        failures = [
            (cfg, name, why)
            for name in names
            if (why := run_check(cfg, name)) is not None
        ]
        configs = [cfg]
    else:
        configs = sample_configs(budget, seed)

        def progress(i, total):
            if i % 25 == 0 or i == total:
                print(f"fuzz: {i}/{total} configs", file=sys.stderr)

        failures = run_grid(configs, check=check, progress=progress)
    if as_json:
        print(
            json.dumps(
                {
                    "schema": "repro.fuzz/1",
                    "configs": len(configs),
                    "check": check,
                    "seed": seed if config_json is None else None,
                    "failures": [
                        {"config": json.loads(c.to_json()), "check": name, "why": why}
                        for c, name, why in failures
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    for cfg, name, why in failures:
        print(f"FAIL [{name}] {why}", file=sys.stderr)
        print(f"  repro: {cfg.cli(name)}", file=sys.stderr)
    if not failures and not as_json:
        print(f"fuzz: {len(configs)} configs passed ({check})")
    return 1 if failures else 0


def shrink_config(
    cfg: DiffConfig, check: str, *, max_rounds: int = 40
) -> DiffConfig:
    """Greedy failure-case minimizer: smallest config still failing *check*.

    Repeatedly tries to shrink one field at a time (halving toward the
    field's floor) and keeps any shrink that still fails, until a full
    round makes no progress.  Deterministic, so the shrunk config's
    replay command is stable.
    """
    if run_check(cfg, check) is None:
        raise ValueError("shrink_config needs a failing (config, check) pair")

    def candidates(c: DiffConfig):
        for field, floor in (
            ("steps", 1),
            ("replicas", 2),
            ("n", 1),
            ("m", 1),
            ("batch", 2),
            ("save_every", 0),
            ("probe_every", 0),
        ):
            cur = getattr(c, field)
            for nxt in {floor, cur // 2, cur - 1}:
                if floor <= nxt < cur:
                    yield replace(c, **{field: int(nxt)})

    for _ in range(max_rounds):
        for cand in candidates(cfg):
            if run_check(cand, check) is not None:
                cfg = cand
                break
        else:
            return cfg
    return cfg
