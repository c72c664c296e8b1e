"""Observability overhead benchmarks.

The contract of ``repro.obs`` is a no-op fast path: with observability
disabled, instrumented hot loops must stay within ~2% of their raw
cost (the guard is one boolean check per ``run()`` call, not per
phase).  These benches measure the three regimes side by side —
disabled, metrics-only, and a fully observed run (registry + tracer +
JSONL recorder) — plus the micro-costs of the individual primitives.

``test_disabled_overhead_ratio`` prints the measured disabled-path
ratio directly (the median of interleaved ``run(CHUNK)`` / raw
``step()`` loop pairs, :func:`conftest.paired_overhead_ratio`), which
is the number quoted in docs/PERFORMANCE.md.  The raw loop steps under
the same draw stream ``run()`` opens, so the ratio prices the guard,
not the draw path.
"""

import time

import numpy as np
import pytest
from conftest import paired_overhead_ratio

from repro import obs
from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule
from repro.balls.scenario_a import ScenarioAProcess
from repro.engine.spec import scenario_a_spec
from repro.engine.vectorized import VectorizedProcess
from repro.obs.metrics import scoped_registry
from repro.obs.trace import Tracer

N = 1024
CHUNK = 512
VEC_N = 256
VEC_R = 32
VEC_CHUNK = 256


def _make_proc(seed=0):
    return ScenarioAProcess(ABKURule(2), LoadVector.random(N, N, seed), seed=seed)


def _make_fleet(seed=0):
    spec = scenario_a_spec(ABKURule(2))
    return VectorizedProcess(
        spec, LoadVector.random(VEC_N, VEC_N, seed), VEC_R, seed=seed
    )


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    obs.set_probe_interval(0)
    yield
    obs.disable()
    obs.set_probe_interval(0)
    obs.set_tracer(None)
    obs.set_recorder(None)


def test_bench_run_disabled(benchmark):
    """The production fast path: obs off, one guard per run() call."""
    proc = _make_proc(0)
    benchmark(lambda: proc.run(CHUNK))


def test_bench_run_enabled_metrics(benchmark):
    """Obs on with counters only (no tracer, no recorder)."""
    proc = _make_proc(1)
    with scoped_registry():
        obs.enable()
        benchmark(lambda: proc.run(CHUNK))
        obs.disable()


def test_bench_run_observed(benchmark, tmp_path):
    """Obs on with the full artifact pipeline (spans -> JSONL recorder)."""
    proc = _make_proc(2)
    with obs.observe_run(str(tmp_path / "bench-run")):
        benchmark(lambda: proc.run(CHUNK))


def test_bench_counter_inc(benchmark):
    with scoped_registry() as reg:
        c = reg.counter("bench")
        benchmark(c.inc)


def test_bench_span_enabled(benchmark):
    tracer = Tracer()
    obs.set_tracer(tracer)

    def op():
        with obs.span("bench"):
            pass
        tracer.events.clear()

    benchmark(op)


def test_bench_span_disabled(benchmark):
    obs.set_tracer(None)

    def op():
        with obs.span("bench"):
            pass

    benchmark(op)


def test_bench_vectorized_probes_off(benchmark, tmp_path):
    """Observed vectorized run with probes off: the pre-probe regime."""
    proc = _make_fleet(0)
    with obs.observe_run(str(tmp_path / "bench-run")):
        benchmark(lambda: proc.run(VEC_CHUNK))


def test_bench_vectorized_probes_on(benchmark, tmp_path):
    """Observed vectorized run probed every 16 phases (fleet stats + JSONL)."""
    proc = _make_fleet(1)
    with obs.observe_run(str(tmp_path / "bench-run"), probe_every=16):
        benchmark(lambda: proc.run(VEC_CHUNK))


def test_bench_chain_probe_observe(benchmark):
    """Micro-cost of one ChainProbe sample (streaming stats, no recorder)."""
    from repro.obs.probes import ChainProbe

    probe = ChainProbe("bench/chain")
    loads = np.random.default_rng(0).integers(0, 8, size=N)
    benchmark(lambda: probe.observe(1, loads))


class _Sink:
    """Recorder double for bus benches: accepts and drops everything."""

    def record_point(self, series, step, stats, *, worker=None):
        pass

    def record_monitor(self, event, *, worker=None):
        pass

    def record_heartbeat(self, worker, payload):
        pass

    def record_bye(self, worker):
        pass


BUS_POINTS = 256


def test_bench_bus_throughput(benchmark):
    """Probe points/sec through the telemetry queue (ship + drain)."""
    import multiprocessing as mp

    from repro.obs.bus import BusSender, TelemetryBus

    bus = TelemetryBus(_Sink(), mp.get_context(), heartbeat_s=0.0).start()
    sender = BusSender(0, queue=bus.queue)

    def ship():
        target = bus.points_received + BUS_POINTS
        for i in range(BUS_POINTS):
            sender.record_point("bench/bus", i, {"value": 1.0})
        while bus.points_received < target:
            time.sleep(0.0002)

    try:
        benchmark(ship)
    finally:
        sender.bye()
        bus.finish({0})


def _bus_overhead_item(item, seed_seq):
    # Deterministic CPU-bound work (~0.4 ms): low-variance timing, so
    # the ratio below measures map overhead, not allocator noise.
    acc = 0
    for k in range(10_000):
        acc += k
    return acc + item


def test_disabled_overhead_ratio(capsys):
    """Measure run() (guarded) against a raw step() loop, obs disabled.

    Prints the ratio quoted in docs/PERFORMANCE.md; the assertion is a
    generous backstop against accidentally putting work on the
    disabled path (the guard itself is one boolean per run() call).
    Both sides draw from a run loop's stream: outside a loop ``step()``
    draws per call from the Generator, which would price the draw path.
    """
    proc = _make_proc(3)
    proc.run(CHUNK)  # warmup

    def raw():
        gen = proc._open_stream(CHUNK)
        try:
            step = proc.step
            for _ in range(CHUNK):
                step()
        finally:
            proc._close_stream(gen)

    def guarded():
        proc.run(CHUNK)

    ratio, t_raw, t_guarded = paired_overhead_ratio(raw, guarded)
    with capsys.disabled():
        print(
            f"\nobs disabled overhead: raw step loop {1e6 * t_raw / CHUNK:.2f} us/phase, "
            f"guarded run() {1e6 * t_guarded / CHUNK:.2f} us/phase, "
            f"ratio {ratio:.4f}"
        )
    assert ratio < 1.05, f"disabled-path overhead too high: {ratio:.3f}"


def test_bus_disabled_overhead_ratio(capsys):
    """parallel_replica_map with obs off vs a raw seeded loop.

    With no recorder installed the map must not build a bus, spawn
    telemetry threads, or capture registries — the whole fleet-bus
    machinery rides behind the same one-boolean guard as the rest of
    ``repro.obs``.  Gate: < 5% overhead over the bare loop.
    """
    from repro.utils.parallel import parallel_replica_map
    from repro.utils.rng import spawn_seeds

    items = list(range(32))

    def raw():
        seeds = spawn_seeds(0, len(items))
        return [_bus_overhead_item(i, s) for i, s in zip(items, seeds)]

    def mapped():
        return parallel_replica_map(
            _bus_overhead_item, items, seed=0, processes=1
        )

    assert raw() == mapped()  # warmup + equivalence
    ratio, t_raw, t_map = paired_overhead_ratio(raw, mapped)
    with capsys.disabled():
        print(
            f"\nbus disabled overhead: raw loop {1e3 * t_raw:.2f} ms, "
            f"parallel_replica_map {1e3 * t_map:.2f} ms, ratio {ratio:.4f}"
        )
    assert ratio < 1.05, f"disabled-bus overhead too high: {ratio:.3f}"


def test_probes_disabled_overhead_ratio(capsys):
    """Probes-off vectorized throughput vs the raw segment kernel.

    The probe branch in ``VectorizedProcess.run`` must stay zero-cost
    when ``probe_interval() == 0`` (the default): one integer read per
    ``run()`` call, nothing per phase.  The raw side calls ``_advance``
    over the segments ``run()`` cuts (two of 128 phases), so the ratio
    prices the guard, not the segment length.  This is the 5%
    acceptance gate for the probe subsystem.
    """
    proc = _make_fleet(3)
    proc.run(VEC_CHUNK)  # warmup

    def raw():
        proc._advance(VEC_CHUNK // 2)
        proc._advance(VEC_CHUNK // 2)

    def guarded():
        proc.run(VEC_CHUNK)

    ratio, t_raw, t_guarded = paired_overhead_ratio(raw, guarded)
    with capsys.disabled():
        print(
            f"\nprobes disabled overhead: raw _advance "
            f"{1e6 * t_raw / VEC_CHUNK:.2f} us/phase, guarded run() "
            f"{1e6 * t_guarded / VEC_CHUNK:.2f} us/phase, ratio {ratio:.4f}"
        )
    assert ratio < 1.05, f"probes-disabled overhead too high: {ratio:.3f}"
