"""``repro.obs`` — zero-dependency observability for the reproduction.

The paper's subject is *time* — recovery and mixing time — so the runs
themselves should be measurable.  This package provides, with no
third-party dependencies and a no-op fast path when disabled:

* **metrics** (:mod:`repro.obs.metrics`) — counters and gauges in a
  mergeable :class:`MetricsRegistry` (phase counts, RNG draws, Fact 3.2
  updates, worker merges);
* **tracing** (:mod:`repro.obs.trace`) — nested ``span("e01/...")``
  stage timings streamed as JSONL events;
* **run artifacts** (:mod:`repro.obs.recorder`) — ``runs/<id>/``
  directories holding ``events.jsonl`` (spans + per-checkpoint samples
  such as max load, TV distance, coalescence fraction, coupling
  distance) and ``meta.json`` (seed, scale, git rev, config, metrics);
* **reports** (:mod:`repro.obs.summarize`) — the
  ``python -m repro obs summarize <run-dir>`` timing / convergence view;
* **benchmarks** (:mod:`repro.obs.bench`) — the unified
  ``python -m repro bench run`` runner writing schema-versioned
  ``BENCH_*.json`` perf artifacts with RSS/CPU telemetry;
* **regression diffs** (:mod:`repro.obs.compare`) — ``repro obs diff``
  over two bench artifacts or run dirs, with bootstrap CIs and
  improved/regressed/unchanged verdicts;
* **perf trajectory** (:mod:`repro.obs.trend`) — ``repro obs trend``
  over every committed ``BENCH_*.json``, with a drift gate against the
  trailing window;
* **profiling** (:mod:`repro.obs.profile`) — opt-in ``--profile``
  cProfile capture attached to the run artifact;
* **per-step probes** (:mod:`repro.obs.probes`,
  :mod:`repro.obs.streamstats`, :mod:`repro.obs.timeseries`) — engine
  hooks at configurable decimation (``observe_run(probe_every=k)``)
  feeding streaming estimators and paper-envelope recovery monitors
  into a schema-versioned ``runs/<id>/timeseries.jsonl``;
* **live watch** (:mod:`repro.obs.watch`) — the
  ``python -m repro obs watch <run-dir>`` tail + sparkline terminal
  view over a probed run.

The bench/compare/trend/profile modules are imported lazily (by the
CLI and tests), not at package import, so the instrumentation facade
below stays cheap to import.

Instrumented hot paths guard every touch with :func:`enabled` — the
whole subsystem costs one boolean check per ``run()`` call when off
(see ``benchmarks/bench_obs.py`` for the measured overhead).  The
usual entry point is :func:`observe_run`::

    from repro import obs

    with obs.observe_run("runs/demo", meta={"seed": 0}) as rec:
        with obs.span("sweep"):
            proc.run(10_000)
        rec.record("max_load", proc.t, proc.max_load)
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
    scoped_registry,
)
from repro.obs.recorder import (
    RunArtifact,
    RunRecorder,
    gc_runs,
    git_revision,
    load_run,
    observe_run,
)
from repro.obs.runtime import (
    disable,
    enable,
    enabled,
    get_recorder,
    probe_interval,
    record_event,
    record_monitor,
    record_point,
    record_sample,
    set_probe_interval,
    set_recorder,
)
from repro.obs.summarize import render_artifact, summarize_run
from repro.obs.trace import Tracer, get_tracer, set_tracer, span

__all__ = [
    # switch + recorder hooks
    "enabled",
    "enable",
    "disable",
    "get_recorder",
    "set_recorder",
    "record_sample",
    "record_event",
    # per-step probes (see repro.obs.probes / repro.obs.timeseries)
    "probe_interval",
    "set_probe_interval",
    "record_point",
    "record_monitor",
    # metrics
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "default_registry",
    "scoped_registry",
    "metrics",
    # tracing
    "Tracer",
    "span",
    "set_tracer",
    "get_tracer",
    # run artifacts + reports
    "RunRecorder",
    "RunArtifact",
    "observe_run",
    "load_run",
    "git_revision",
    "gc_runs",
    "summarize_run",
    "render_artifact",
]

# Short alias used at instrumentation sites: ``obs.metrics().counter(...)``.
metrics = default_registry
