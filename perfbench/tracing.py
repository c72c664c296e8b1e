"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry of each layer — and, for the
finer split of the vectorized engine, its kernel (``_advance``), Fact
3.2 updates, RBB step and RNG draws — with a timing shim before the
measured call.  Each shim appends one span (kind, start, end,
parent span, work items) to an in-memory list; nothing is written
until the repetition ends.  A span's self time is its duration minus
the durations of its direct children, so the self times of all spans
add up to the time the outermost spans cover, and ``other.self_s`` —
the traced ``run_s`` minus every layer's self time — closes the split.

Only calls made on the repetition's main thread are recorded.  Pool
workers are forked with the shims installed, but their spans die with
them; the pooled workload's worker-side numbers come from
``getrusage(RUSAGE_CHILDREN)`` and the run directory instead.
"""

from __future__ import annotations

import functools
import math
import resource
import threading
from time import perf_counter_ns

#: Span kind -> the per-layer metric its self time is reported under.
#: These metrics plus ``other.self_s`` add up to ``trace.run_s``.
SPLIT = {
    "vec.entry": "engine.vectorized.scan_s",
    "vec.kernel": "engine.vectorized.self_s",
    "vec.fact32": "engine.vectorized.fact32_s",
    "vec.rng": "engine.vectorized.rng_s",
    "vec.sync": "engine.vectorized.sync_step_s",
    "spec.removal": "engine.spec.removal_busy_s",
    "rules.insertion": "balls.rules.insertion_busy_s",
    "probes.observe": "obs.probes.busy_s",
    "recorder.open": "obs.recorder.open_s",
    "recorder.finish": "obs.recorder.finish_s",
    "ckpt.offer": "checkpoint.busy_s",
    "ckpt.save": "checkpoint.busy_s",
    "parallel.map": "utils.parallel.busy_s",
    "measure.recovery": "analysis.recovery_measure.self_s",
}


class Spans:
    """Append-only span list with a stack of open spans (main thread only)."""

    def __init__(self):
        self.rows: list[list] = []  # [kind, start_ns, end_ns, parent, items]
        #: Hooks the program no longer has: their layer is not measured.
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._main = threading.main_thread()

    def timed(self, kind: str, fn, items=None):
        """*fn* wrapped so each main-thread call records one span."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            rows, stack = self.rows, self._stack
            i = len(rows)
            rows.append([kind, perf_counter_ns(), 0,
                         stack[-1] if stack else -1,
                         items(*args, **kwargs) if items else 0])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                rows[i][2] = perf_counter_ns()
                stack.pop()

        return shim

    def self_times(self) -> list[int]:
        """Per-span self time in ns (duration minus direct children)."""
        child = [0] * len(self.rows)
        for _, t0, t1, parent, _ in self.rows:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.rows, child)]


class _TimedRNG:
    """A ``numpy.random.Generator`` stand-in whose ``random`` draws are spans."""

    def __init__(self, gen, random):
        self._gen = gen
        self.random = random

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _draws(size=None, *args, **kwargs) -> int:
    """Uniforms one ``Generator.random(size)`` call draws."""
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _patch(owner, name, spans, kind, items=None):
    """Wrap ``owner.name``.

    A name the program no longer has goes to ``spans.missing`` instead
    of failing the traced run; the report names it, so a layer that is
    not hooked does not read as one that is idle on the workload.
    """
    fn = getattr(owner, name, None)
    if fn is None:
        spans.missing.append(f"{owner.__name__}.{name}")
        return
    setattr(owner, name, spans.timed(kind, fn, items))


def _patch_hierarchy(base, name, spans, kind, items=None):
    """Wrap ``name`` on *base* and every subclass that defines its own.

    A class attribute set to None (``SchedulingRule`` marks a rule with
    no batch insertion law that way) is left alone.
    """
    owners, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if vars(cls).get(name) is not None:
            owners.append(cls)
    if not owners:
        spans.missing.append(f"{base.__name__}.{name}")
    for cls in owners:
        _patch(cls, name, spans, kind, items)


def install() -> tuple[Spans, dict]:
    """Wrap every layer entry; returns the span list and pool rusage."""
    import repro.analysis.recovery_measure as measure
    import repro.engine.vectorized as vec
    import repro.obs.recorder as recorder
    import repro.utils.parallel as parallel
    from repro.balls.rules import SchedulingRule
    from repro.checkpoint.manager import Checkpointer
    from repro.engine.spec import RemovalLaw
    from repro.obs.probes import ChainProbe, FleetProbe

    spans = Spans()
    P = vec.VectorizedProcess
    _patch(P, "recovery_times", spans, "vec.entry")
    _patch(P, "run_batched", spans, "vec.entry")
    _patch(P, "_advance", spans, "vec.kernel",
           lambda self, T, hist=None: T * self.replicas)
    _patch(vec, "_counts_desc", spans, "vec.fact32")
    _patch(P, "_decrement", spans, "vec.fact32")
    _patch(P, "_increment", spans, "vec.fact32")
    _patch(P, "_step_synchronous", spans, "vec.sync")

    init = P.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        gen = getattr(self, "_rng", None)
        if gen is not None:
            self._rng = _TimedRNG(
                gen, spans.timed("vec.rng", gen.random, _draws))
        elif "VectorizedProcess._rng" not in spans.missing:
            spans.missing.append("VectorizedProcess._rng")

    P.__init__ = traced_init

    for name in ("quantile_batch", "quantile_batch_into"):
        _patch_hierarchy(RemovalLaw, name, spans, "spec.removal")
    _patch_hierarchy(SchedulingRule, "insertion_quantile_batch", spans,
                     "rules.insertion", lambda self, n, u: len(u))
    _patch(FleetProbe, "observe", spans, "probes.observe")
    _patch(ChainProbe, "observe", spans, "probes.observe")
    _patch(Checkpointer, "maybe_save", spans, "ckpt.offer")
    _patch(Checkpointer, "save", spans, "ckpt.save")
    _patch(measure, "recovery_times_balls", spans, "measure.recovery")

    pool = {"parent_cpu_s": 0.0, "worker_cpu_s": 0.0, "processes": 0}

    def cpu(who):
        r = resource.getrusage(who)
        return r.ru_utime + r.ru_stime

    map_ = parallel.parallel_replica_map

    def timed_map(fn, items, **kwargs):
        self0 = cpu(resource.RUSAGE_SELF)
        kids0 = cpu(resource.RUSAGE_CHILDREN)
        try:
            return map_(fn, items, **kwargs)
        finally:
            pool["parent_cpu_s"] += cpu(resource.RUSAGE_SELF) - self0
            pool["worker_cpu_s"] += cpu(resource.RUSAGE_CHILDREN) - kids0
            pool["processes"] = max(pool["processes"],
                                    int(kwargs.get("processes") or 1))

    parallel.parallel_replica_map = spans.timed("parallel.map", timed_map)

    observe = recorder.observe_run

    class TimedObserve:
        """``observe_run`` with its enter and exit recorded as spans."""

        def __init__(self, *args, **kwargs):
            self._cm = observe(*args, **kwargs)
            self._enter = spans.timed("recorder.open", self._cm.__enter__)
            self._exit = spans.timed("recorder.finish", self._cm.__exit__)

        def __enter__(self):
            return self._enter()

        def __exit__(self, *exc):
            return self._exit(*exc)

    recorder.observe_run = TimedObserve
    return spans, pool


def layer_metrics(spans: Spans, pool: dict, run_s: float) -> dict:
    """The span-derived per-layer metrics of one traced repetition."""
    selfs = spans.self_times()
    out = {name: 0.0 for name in SPLIT.values()}
    for row, s in zip(spans.rows, selfs):
        out[SPLIT[row[0]]] += s / 1e9

    def layer(kind):
        return SPLIT.get(kind, kind).rsplit(".", 1)[0]

    def outer(prefix):
        """Spans of *prefix* kinds whose parent is in another layer."""
        return [r for r in spans.rows if r[0].startswith(prefix) and (
            r[3] < 0 or layer(spans.rows[r[3]][0]) != layer(r[0]))]

    def busy(prefix):
        return sum(r[2] - r[1] for r in outer(prefix)) / 1e9

    out["engine.vectorized.busy_s"] = busy("vec.entry")
    out["engine.vectorized.fleet_phases"] = sum(
        r[4] for r in spans.rows if r[0] == "vec.kernel")
    out["engine.vectorized.fact32_calls"] = sum(
        r[0] == "vec.fact32" for r in spans.rows)
    out["engine.vectorized.rng_draws"] = sum(
        r[4] for r in spans.rows if r[0] == "vec.rng")
    out["engine.spec.removal_calls"] = len(outer("spec.removal"))
    ins = [r for r in spans.rows if r[0] == "rules.insertion"]
    out["balls.rules.insertion_calls"] = len(ins)
    out["balls.rules.insertion_draws"] = sum(r[4] for r in ins)
    out["obs.probes.calls"] = sum(r[0] == "probes.observe" for r in spans.rows)
    out["checkpoint.offers"] = sum(r[0] == "ckpt.offer" for r in spans.rows)
    out["checkpoint.saves"] = sum(r[0] == "ckpt.save" for r in spans.rows)
    out["utils.parallel.busy_s"] = busy("parallel.map")
    out["utils.parallel.parent_cpu_s"] = pool["parent_cpu_s"]
    out["utils.parallel.worker_cpu_s"] = pool["worker_cpu_s"]
    wall = out["utils.parallel.busy_s"] * pool["processes"]
    out["utils.parallel.worker_utilization"] = (
        pool["worker_cpu_s"] / wall if wall > 0 else 0.0)
    out["other.self_s"] = run_s - sum(s for s in selfs) / 1e9
    out["trace.run_s"] = run_s
    out["trace.missing_hooks"] = len(spans.missing)
    return out
