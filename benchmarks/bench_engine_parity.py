"""Engine throughput parity: scalar vs vectorized per registered spec.

One phase of R replicas per engine, for every registered spec the
vectorized engine supports, plus the exact-kernel build at small n.
The vectorized stepper must keep its headroom over the scalar one — run
``python -m repro bench run --filter engine`` and diff against the
committed baseline with ``python -m repro obs diff``.
"""

from repro.balls.load_vector import LoadVector
from repro.engine import (
    ExactEngine,
    ScalarEngine,
    VectorizedEngine,
    registered_specs,
)

N = 256
R = 64

_SPECS = registered_specs()


def _start(spec, n=N, m=N):
    if spec.kind == "open" and spec.max_balls is not None:
        m = min(m, spec.max_balls)
    return LoadVector.random(m, n, 0)


def _bench_vectorized(benchmark, name):
    spec = _SPECS[name]
    bp = VectorizedEngine.make(spec, _start(spec), R, seed=1)
    benchmark(bp.step)


def _bench_scalar(benchmark, name):
    spec = _SPECS[name]
    procs = [ScalarEngine.make(spec, _start(spec), seed=k) for k in range(R)]

    def all_step():
        for p in procs:
            p.step()

    benchmark(all_step)


def test_bench_engine_vec_scenario_a(benchmark):
    _bench_vectorized(benchmark, "scenario_a")


def test_bench_engine_scalar_scenario_a(benchmark):
    _bench_scalar(benchmark, "scenario_a")


def test_bench_engine_vec_scenario_b(benchmark):
    _bench_vectorized(benchmark, "scenario_b")


def test_bench_engine_scalar_scenario_b(benchmark):
    _bench_scalar(benchmark, "scenario_b")


def test_bench_engine_vec_relocation(benchmark):
    _bench_vectorized(benchmark, "relocation")


def test_bench_engine_scalar_relocation(benchmark):
    _bench_scalar(benchmark, "relocation")


def test_bench_engine_vec_custom_pressure(benchmark):
    _bench_vectorized(benchmark, "custom_pressure")


def test_bench_engine_scalar_custom_pressure(benchmark):
    _bench_scalar(benchmark, "custom_pressure")


def test_bench_engine_vec_open_ball(benchmark):
    _bench_vectorized(benchmark, "open_ball")


def test_bench_engine_exact_kernel_scenario_a(benchmark):
    spec = _SPECS["scenario_a"]
    benchmark(lambda: ExactEngine.kernel(spec, 5, 5))
