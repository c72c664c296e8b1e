"""Unified benchmark runner: ``python -m repro bench run``.

The repo's perf story lives in ``benchmarks/bench_*.py`` — pytest-style
modules whose ``test_bench_*`` functions drive a ``benchmark`` fixture.
This module executes them *without* pytest, under one schema-versioned
protocol, so every PR can leave a machine-readable point on the perf
trajectory:

* **discovery** — :func:`discover` imports each ``bench_*.py`` and
  collects ``test_bench_*`` callables, mapping their fixture parameters
  (``benchmark``, ``experiment_bench``, ``tmp_path``) onto lightweight
  shims; functions needing unsupported fixtures are reported as skipped,
  never silently dropped;
* **timing** — :class:`BenchTimer` is a pytest-benchmark-compatible
  shim (``benchmark(fn)`` / ``benchmark.pedantic(...)``) doing
  calibration (inner iterations grown until a round is long enough to
  time), warmup rounds, then ``--repeats`` timed rounds recording wall
  *and* CPU seconds per iteration;
* **resources** — :class:`ResourceSampler` is a background thread
  sampling RSS (``/proc/self/status``, ``resource`` fallback) and CPU
  utilisation, wired into the run's :class:`~repro.obs.recorder.RunRecorder`
  as ``resource/*`` series, with per-bench peak-RSS windows;
* **artifact** — :func:`run_benchmarks` writes a
  ``BENCH_<timestamp>_<gitrev>.json`` (schema ``repro.bench/1``:
  per-bench wall/CPU stats with iteration quantiles and raw round
  samples, peak RSS, env fingerprint) plus a ``runs/bench-*/`` run dir
  (spans + resource series) that ``repro obs summarize`` understands.

The timed sections run with observability *disabled* — the numbers
measure the production fast path, not the instrumented one.  Diff two
artifacts with ``repro obs diff`` (:mod:`repro.obs.compare`).
"""

from __future__ import annotations

import contextlib
import glob
import importlib.util
import inspect
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.obs import runtime
from repro.obs.recorder import RunRecorder, git_revision
from repro.obs.trace import set_tracer

__all__ = [
    "SCHEMA",
    "BenchTimer",
    "BenchSpec",
    "ResourceSampler",
    "discover",
    "run_benchmarks",
    "summary_stats",
    "validate_bench_payload",
]

#: Schema tag written into every bench artifact; bump on breaking change.
SCHEMA = "repro.bench/1"

#: Fixture names the runner knows how to supply (everything else skips).
SUPPORTED_FIXTURES = ("benchmark", "experiment_bench", "tmp_path")

#: Raw per-round samples persisted per bench (stats cover all rounds).
MAX_PERSISTED_SAMPLES = 64


# -- resource sampling ---------------------------------------------------------


def read_rss_kb() -> float:
    """Resident set size in KiB (``/proc``; peak-RSS fallback elsewhere)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1])
    except OSError:
        pass
    import resource

    # ru_maxrss is the *peak*, and is bytes on macOS, KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform == "darwin" else float(peak)


class ResourceSampler:
    """Background thread sampling RSS/CPU every *interval* seconds.

    When a :class:`RunRecorder` is attached, each sample also lands in
    the run artifact as ``resource/rss_mb`` and ``resource/cpu_pct``
    series, so ``repro obs summarize`` shows the memory/CPU profile of
    a bench session next to its stage timings.
    """

    def __init__(self, *, interval: float = 0.05, recorder: RunRecorder | None = None):
        self.interval = interval
        self.recorder = recorder
        self.peak_rss_kb = 0.0
        self.samples = 0
        self._cpu_pct_sum = 0.0
        self._cpu_pct_n = 0
        self._window_peak_kb = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-bench-sampler", daemon=True
        )

    # One direct sample, updating peaks (called from the loop *and* at
    # window edges so even sub-interval benches get a reading).
    def sample_now(self) -> float:
        rss = read_rss_kb()
        with self._lock:
            self.samples += 1
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            self._window_peak_kb = max(self._window_peak_kb, rss)
            step = self.samples
        if self.recorder is not None:
            self.recorder.record("resource/rss_mb", step, rss / 1024.0)
        return rss

    def _loop(self) -> None:
        last_wall = time.perf_counter()
        last_cpu = time.process_time()
        while not self._stop.wait(self.interval):
            self.sample_now()
            wall, cpu = time.perf_counter(), time.process_time()
            pct = 100.0 * (cpu - last_cpu) / max(wall - last_wall, 1e-9)
            last_wall, last_cpu = wall, cpu
            with self._lock:
                self._cpu_pct_sum += pct
                self._cpu_pct_n += 1
                step = self.samples
            if self.recorder is not None:
                self.recorder.record("resource/cpu_pct", step, pct)

    def start(self) -> "ResourceSampler":
        self.sample_now()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def begin_window(self) -> None:
        """Reset the per-bench RSS window (takes an immediate sample)."""
        with self._lock:
            self._window_peak_kb = 0.0
        self.sample_now()

    def end_window(self) -> float:
        """Close the window; returns its peak RSS in KiB."""
        self.sample_now()
        with self._lock:
            return self._window_peak_kb

    @property
    def cpu_pct_mean(self) -> float:
        with self._lock:
            return self._cpu_pct_sum / self._cpu_pct_n if self._cpu_pct_n else 0.0


# -- timing --------------------------------------------------------------------


class BenchTimer:
    """Drop-in for the pytest-benchmark fixture, recording per-iteration cost.

    ``timer(fn, *args)`` calibrates an inner iteration count so one
    round is at least *min_round_s*, runs *warmup* throwaway rounds,
    then *repeats* timed rounds.  ``timer.pedantic(...)`` honours the
    caller's explicit ``rounds``/``iterations`` (the experiment benches
    use ``rounds=1`` — they are internally replicated Monte Carlo
    studies).  Samples are per-iteration wall/CPU seconds.
    """

    def __init__(
        self,
        *,
        repeats: int = 5,
        warmup: int = 1,
        min_round_s: float = 0.005,
        max_iterations: int = 1 << 16,
        profiler: Any | None = None,
    ):
        self.repeats = max(1, repeats)
        self.warmup = max(0, warmup)
        self.min_round_s = min_round_s
        self.max_iterations = max_iterations
        self.profiler = profiler
        self.wall_samples: list[float] = []
        self.cpu_samples: list[float] = []
        self.iterations = 1
        self.rounds = 0

    def _round(self, fn, args, kwargs, k: int):
        c0 = time.process_time()
        t0 = time.perf_counter()
        for _ in range(k):
            result = fn(*args, **kwargs)
        return time.perf_counter() - t0, time.process_time() - c0, result

    def _measure(self, fn, args, kwargs, *, rounds, warmup, iterations, calibrate):
        k = max(1, iterations)
        result = None
        if calibrate and self.min_round_s > 0:
            # Doubling calibration; the probe rounds double as warmup.
            while True:
                wall, _, result = self._round(fn, args, kwargs, k)
                if wall >= self.min_round_s or k >= self.max_iterations:
                    break
                k = min(k * 4, self.max_iterations)
        for _ in range(warmup):
            _, _, result = self._round(fn, args, kwargs, k)
        if self.profiler is not None:
            self.profiler.enable()
        try:
            for _ in range(rounds):
                wall, cpu, result = self._round(fn, args, kwargs, k)
                self.wall_samples.append(wall / k)
                self.cpu_samples.append(cpu / k)
        finally:
            if self.profiler is not None:
                self.profiler.disable()
        self.iterations = k
        self.rounds += rounds
        return result

    def __call__(self, fn: Callable, *args, **kwargs):
        return self._measure(
            fn, args, kwargs,
            rounds=self.repeats, warmup=self.warmup, iterations=1, calibrate=True,
        )

    def pedantic(
        self,
        target: Callable,
        args: Sequence = (),
        kwargs: dict | None = None,
        *,
        rounds: int = 1,
        iterations: int = 1,
        warmup_rounds: int = 0,
        setup: Callable | None = None,
    ):
        if setup is not None:
            setup()
        return self._measure(
            target, tuple(args), kwargs or {},
            rounds=max(1, rounds), warmup=warmup_rounds,
            iterations=iterations, calibrate=False,
        )


# -- discovery -----------------------------------------------------------------


@dataclass
class BenchSpec:
    """One discovered benchmark function (or a reason it cannot run).

    *skip_reason* marks benches the runner legitimately cannot drive
    (unsupported fixtures); *error* marks a broken bench module — an
    exception raised at import — which must surface as a failure, not
    a skip (a typo in a bench file would otherwise silently drop every
    bench in it from the perf trajectory).
    """

    bench_id: str  # "bench_primitives::test_bench_fact32_update"
    file: str  # "bench_primitives.py"
    name: str
    fn: Callable | None = None
    params: tuple[str, ...] = ()
    skip_reason: str | None = None
    error: str | None = None
    traceback: str | None = None


def _import_bench_module(path: str, module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = mod
    spec.loader.exec_module(mod)
    return mod


def discover(bench_dir: str = "benchmarks", pattern: str | None = None) -> list[BenchSpec]:
    """Collect ``test_bench_*`` callables from ``<bench_dir>/bench_*.py``.

    *pattern* is a substring filter, matched first against file stems
    (so ``--filter primitives`` imports only ``bench_primitives.py``)
    and, when no stem matches, against full ``file::function`` ids.
    """
    paths = sorted(glob.glob(os.path.join(bench_dir, "bench_*.py")))
    if not paths:
        raise FileNotFoundError(f"no bench_*.py found under {bench_dir!r}")
    stems = {p: os.path.splitext(os.path.basename(p))[0] for p in paths}
    if pattern is not None and any(pattern in s for s in stems.values()):
        paths = [p for p in paths if pattern in stems[p]]
        pattern = None  # already satisfied at file level
    specs: list[BenchSpec] = []
    # Bench modules do `from conftest import ...`; make the dir importable.
    sys.path.insert(0, os.path.abspath(bench_dir))
    try:
        for path in paths:
            fname = os.path.basename(path)
            stem = stems[path]
            try:
                mod = _import_bench_module(path, f"repro_bench_{stem}")
            except Exception as exc:
                import traceback as tb_mod

                specs.append(BenchSpec(
                    bench_id=f"{stem}", file=fname, name="<module>",
                    error=f"import error: {type(exc).__name__}: {exc}",
                    traceback=tb_mod.format_exc(),
                ))
                continue
            for name in sorted(vars(mod)):
                fn = getattr(mod, name)
                if not name.startswith("test_bench_") or not callable(fn):
                    continue
                bench_id = f"{stem}::{name}"
                if pattern is not None and pattern not in bench_id:
                    continue
                params = tuple(inspect.signature(fn).parameters)
                unsupported = [p for p in params if p not in SUPPORTED_FIXTURES]
                specs.append(BenchSpec(
                    bench_id=bench_id, file=fname, name=name, fn=fn, params=params,
                    skip_reason=(
                        f"unsupported fixtures: {', '.join(unsupported)}"
                        if unsupported else None
                    ),
                ))
    finally:
        sys.path.remove(os.path.abspath(bench_dir))
    return specs


def _experiment_bench_shim(timer: BenchTimer) -> Callable:
    """The ``experiment_bench`` fixture, driven by our timer."""

    def _run(experiment_id: str, seed: int = 0):
        from repro.experiments import run_experiment

        result = timer.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": "smoke", "seed": seed},
            rounds=1,
            iterations=1,
        )
        if "VIOLATED" in result.verdict or "FAILURE" in result.verdict:
            raise AssertionError(f"{experiment_id}: {result.verdict}")
        return result

    return _run


# -- statistics ----------------------------------------------------------------


def _quantile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = q * (len(sorted_vals) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = idx - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def summary_stats(samples: Sequence[float]) -> dict[str, float]:
    """mean/min/max/stdev/p50/p90 over per-iteration samples."""
    vals = sorted(float(v) for v in samples)
    if not vals:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "stdev": 0.0, "p50": 0.0, "p90": 0.0}
    return {
        "n": len(vals),
        "mean": statistics.fmean(vals),
        "min": vals[0],
        "max": vals[-1],
        "stdev": statistics.stdev(vals) if len(vals) > 1 else 0.0,
        "p50": _quantile(vals, 0.50),
        "p90": _quantile(vals, 0.90),
    }


# -- schema --------------------------------------------------------------------

_STAT_KEYS = ("n", "mean", "min", "max", "stdev", "p50", "p90")


def validate_bench_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless *payload* matches the documented schema."""
    problems: list[str] = []

    def need(obj, key, types, where):
        if not isinstance(obj, dict) or key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            return None
        if not isinstance(obj[key], types):
            problems.append(f"{where}.{key}: expected {types}, got {type(obj[key])}")
            return None
        return obj[key]

    if need(payload, "schema", str, "payload") != SCHEMA:
        problems.append(f"payload.schema: expected {SCHEMA!r}")
    need(payload, "created_at", str, "payload")
    need(payload, "git_rev", (str, type(None)), "payload")
    need(payload, "config", dict, "payload")
    env = need(payload, "env", dict, "payload")
    if env is not None:
        need(env, "python", str, "env")
        need(env, "platform", str, "env")
    need(payload, "resources", dict, "payload")
    benches = need(payload, "benches", list, "payload")
    for i, b in enumerate(benches or []):
        where = f"benches[{i}]"
        need(b, "id", str, where)
        status = need(b, "status", str, where)
        if status not in ("ok", "skipped", "error"):
            problems.append(f"{where}.status: bad value {status!r}")
        if status == "ok":
            for section in ("wall_s", "cpu_s"):
                stats = need(b, section, dict, where)
                if stats is not None:
                    for k in _STAT_KEYS:
                        need(stats, k, (int, float), f"{where}.{section}")
            need(b, "rounds", int, where)
            need(b, "iterations", int, where)
            need(b, "peak_rss_kb", (int, float), where)
    if problems:
        raise ValueError("invalid bench payload:\n  " + "\n  ".join(problems))


# -- runner --------------------------------------------------------------------


def _reset_obs_state() -> None:
    # Bench modules (bench_obs.py) flip global obs state and rely on a
    # pytest autouse fixture to restore it; do the equivalent here.
    runtime.disable()
    set_tracer(None)
    runtime.set_recorder(None)


@dataclass
class _ProgressLines:
    """Minimal start/finish/ETA lines to *stream* (stderr by default)."""

    total: int
    stream: Any = None
    enabled: bool = True
    durations: list[float] = field(default_factory=list)

    def emit(self, text: str) -> None:
        if self.enabled:
            print(text, file=self.stream or sys.stderr, flush=True)

    @contextlib.contextmanager
    def task(self, label: str):
        from repro.experiments.base import eta_seconds, format_duration

        i = len(self.durations) + 1
        self.emit(f"[{i}/{self.total}] {label} ...")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.durations.append(dt)
            remaining = self.total - len(self.durations)
            eta = eta_seconds(self.durations, remaining)
            tail = f", eta ~{format_duration(eta)}" if remaining else ""
            self.emit(
                f"[{i}/{self.total}] {label} done in {format_duration(dt)}{tail}"
            )


def run_benchmarks(
    *,
    bench_dir: str = "benchmarks",
    pattern: str | None = None,
    repeats: int = 5,
    warmup: int = 1,
    quick: bool = False,
    profile: bool = False,
    out_dir: str = "benchmarks/artifacts",
    run_dir: str | None = None,
    progress: bool = True,
    stream: Any = None,
) -> tuple[str, dict]:
    """Discover, time, and persist benchmarks; returns ``(json_path, payload)``.

    The artifact lands in *out_dir*, by default
    ``benchmarks/artifacts``, the directory ``repro bench run`` writes
    and ``obs trend``/``bench list`` read.  *quick* drops calibration
    and warmup (one iteration per round) for smoke/CI use.  *profile* wraps each bench's timed rounds in
    ``cProfile`` and drops a ``<bench>.pstats`` per bench into the run
    dir (timings are still recorded, but treat them as indicative —
    the profiler taxes every function call).
    """
    specs = discover(bench_dir, pattern)
    runnable = [s for s in specs if s.skip_reason is None and s.error is None]
    ts = time.strftime("%Y%m%d-%H%M%S")
    rev = git_revision()
    run_dir = run_dir or os.path.join("runs", f"bench-{ts}")
    min_round_s = 0.0 if quick else 0.005
    warmup = 0 if quick else warmup

    rec = RunRecorder(run_dir, meta={"kind": "bench", "filter": pattern})
    sampler = ResourceSampler(recorder=rec).start()
    lines = _ProgressLines(total=len(runnable), enabled=progress, stream=stream)
    epoch = time.perf_counter()
    records: list[dict] = []
    n_err = 0
    try:
        for spec in specs:
            if spec.error is not None:
                # A broken bench module is a failure of the perf suite,
                # not a skip: report it loudly and fail the run status.
                n_err += 1
                lines.emit(f"ERROR {spec.bench_id}: {spec.error}")
                if spec.traceback:
                    lines.emit(spec.traceback.rstrip())
                records.append({
                    "id": spec.bench_id, "file": spec.file, "name": spec.name,
                    "status": "error", "error": spec.error,
                    "traceback": spec.traceback,
                })
                continue
            if spec.skip_reason is not None:
                records.append({
                    "id": spec.bench_id, "file": spec.file, "name": spec.name,
                    "status": "skipped", "skip_reason": spec.skip_reason,
                })
                continue
            profiler = None
            if profile:
                import cProfile

                profiler = cProfile.Profile()
            timer = BenchTimer(
                repeats=repeats, warmup=warmup,
                min_round_s=min_round_s, profiler=profiler,
            )
            kwargs: dict[str, Any] = {}
            for p in spec.params:
                if p == "benchmark":
                    kwargs[p] = timer
                elif p == "experiment_bench":
                    kwargs[p] = _experiment_bench_shim(timer)
                elif p == "tmp_path":
                    kwargs[p] = Path(tempfile.mkdtemp(prefix="repro-bench-"))
            record: dict[str, Any] = {
                "id": spec.bench_id, "file": spec.file, "name": spec.name,
            }
            sampler.begin_window()
            t0 = time.perf_counter()
            try:
                with lines.task(spec.bench_id):
                    # Benches print result tables; keep stdout for our report.
                    with contextlib.redirect_stdout(io.StringIO()):
                        spec.fn(**kwargs)
                record["status"] = "ok"
            except Exception as exc:  # noqa: BLE001 - one bench must not kill the run
                n_err += 1
                record["status"] = "error"
                record["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                _reset_obs_state()
            dur = time.perf_counter() - t0
            peak_kb = sampler.end_window()
            if record["status"] == "ok":
                record.update({
                    "rounds": timer.rounds,
                    "iterations": timer.iterations,
                    "wall_s": {
                        **summary_stats(timer.wall_samples),
                        "samples": [
                            round(v, 9)
                            for v in timer.wall_samples[:MAX_PERSISTED_SAMPLES]
                        ],
                    },
                    "cpu_s": summary_stats(timer.cpu_samples),
                    "peak_rss_kb": peak_kb,
                })
            if profiler is not None:
                pstats_path = os.path.join(
                    run_dir, spec.bench_id.replace("::", "__") + ".pstats"
                )
                profiler.dump_stats(pstats_path)
                record["pstats"] = os.path.basename(pstats_path)
            rec.emit({
                "type": "span", "name": f"bench/{spec.bench_id}",
                "depth": 0, "parent": None,
                "t": round(t0 - epoch, 9), "dur_s": round(dur, 9),
            })
            records.append(record)
    finally:
        sampler.stop()

    payload = {
        "schema": SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": rev,
        "config": {
            "bench_dir": bench_dir, "filter": pattern, "repeats": repeats,
            "warmup": warmup, "quick": quick, "profile": profile,
        },
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "numpy": _numpy_version(),
        },
        "resources": {
            "peak_rss_kb": sampler.peak_rss_kb,
            "cpu_pct_mean": round(sampler.cpu_pct_mean, 3),
            "samples": sampler.samples,
        },
        "run_dir": run_dir,
        "benches": records,
    }
    validate_bench_payload(payload)
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"BENCH_{ts}_{(rev or 'unknown')[:10]}.json")
    with open(json_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    rec.set_meta(bench_json=json_path, benches=len(records), errors=n_err)
    rec.finish(status="ok" if n_err == 0 else "error")
    return json_path, payload


def _numpy_version() -> str | None:
    try:
        import numpy

        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        return None


def render_bench_payload(payload: dict) -> str:
    """One summary table over a bench artifact (the ``bench run`` stdout)."""
    from repro.utils.tables import Table

    t = Table(
        ["bench", "status", "rounds×iters", "wall mean", "p50", "p90", "peak rss"],
        title=f"bench artifact ({payload.get('git_rev') or 'no git rev'})",
    )
    for b in payload.get("benches", []):
        if b.get("status") != "ok":
            t.add_row([b["id"], b["status"], "-", "-", "-", "-", "-"])
            continue
        w = b["wall_s"]
        t.add_row([
            b["id"], "ok", f"{b['rounds']}×{b['iterations']}",
            _fmt_s(w["mean"]), _fmt_s(w["p50"]), _fmt_s(w["p90"]),
            f"{b['peak_rss_kb'] / 1024.0:.1f} MB",
        ])
    return t.render()


def _fmt_s(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
