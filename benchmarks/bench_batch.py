"""Batch-vs-scalar replica throughput.

The vectorized (R, n) batch engine should beat R scalar simulators on
replica-steps per second.  These benches time one full phase of 64
replicas each way, pinning the speedup that makes the paper-scale
experiment sweeps affordable.
"""

from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule
from repro.balls.scenario_a import ScenarioAProcess
from repro.engine import VectorizedEngine, scenario_a_spec

N = 256
R = 64


def test_bench_batch_phase_64_replicas(benchmark):
    bp = VectorizedEngine.make(
        scenario_a_spec(ABKURule(2)), LoadVector.random(N, N, 0), R, seed=1
    )
    benchmark(bp.step)


def test_bench_scalar_phase_64_replicas(benchmark):
    procs = [
        ScenarioAProcess(ABKURule(2), LoadVector.random(N, N, k), seed=k)
        for k in range(R)
    ]

    def all_step():
        for p in procs:
            p.step()

    benchmark(all_step)
