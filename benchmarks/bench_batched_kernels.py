"""The vectorized engine's batched multi-step kernels.

The paper-scale point: one (R, n) = (256, 10⁵) fleet — the n = 10⁵
Theorem 1 regime at campaign replica counts — advanced through
``run_batched`` (pre-drawn RNG slab, fused ⊕/⊖ edits, whole-fleet
binary searches, int32 layout), the one stepping path every ``step``,
``run`` and ``recovery_times`` call takes.  CI diffs its wall time
against the committed paper-scale ``BENCH_*.json``; the differential
fuzz suite pins the kernels bitwise to a row-by-row replay.

A moderate-scale step (n = 4096) rides along for CI's quick mode, plus
the batched ``recovery_times`` driver which is what campaigns actually
call.

``test_ball_removal_step_scales_sublinearly`` is a plain pytest gate,
not a bench: a scenario-A step at n = 16384 must cost under √16 = 4×
one at n = 1024 (same R), which a ball removal with an O(R·n) pass per
step cannot meet on any host.
"""

from conftest import paired_overhead_ratio

from repro.balls.load_vector import LoadVector
from repro.engine.registry import registered_specs
from repro.engine.vectorized import VectorizedProcess

N_PAPER = 100_000
N_MID = 4096
R = 256
STEPS = 8


def _fleet(n: int, *, seed: int = 7) -> VectorizedProcess:
    spec = registered_specs()["scenario_a"]
    return VectorizedProcess(spec, LoadVector.all_in_one(n, n), R, seed=seed)


def test_bench_paper_scale_step_batched(benchmark):
    bp = _fleet(N_PAPER)
    bp.run_batched(2, batch=2)  # past the first-step cold caches
    benchmark.pedantic(lambda: bp.run_batched(STEPS, batch=STEPS), rounds=3)


def test_bench_mid_scale_step_batched(benchmark):
    bp = _fleet(N_MID)
    bp.run_batched(2, batch=2)
    benchmark(lambda: bp.run_batched(STEPS, batch=STEPS))


def test_bench_mid_scale_recovery_batched(benchmark):
    from repro.obs.probes import recovery_target

    spec = registered_specs()["scenario_a"]
    target = recovery_target(N_MID, N_MID)

    def measure():
        bp = VectorizedProcess(
            spec, LoadVector.all_in_one(N_MID, N_MID), 32, seed=11
        )
        return bp.recovery_times(target, 2_000, batch=64)

    benchmark.pedantic(measure, rounds=2)


def test_ball_removal_step_scales_sublinearly(capsys):
    spec = registered_specs()["scenario_a"]
    small, big = (
        VectorizedProcess(spec, LoadVector.balanced(n, n), 64, seed=5)
        for n in (1024, 16384)
    )
    for bp in (small, big):
        bp.run_batched(64, batch=64)  # warmup
    ratio, t_small, t_big = paired_overhead_ratio(
        lambda: small.run_batched(64, batch=64),
        lambda: big.run_batched(64, batch=64),
    )
    with capsys.disabled():
        print(
            f"\n64 steps at R=64: n=1024 {1e3 * t_small:.2f} ms, "
            f"n=16384 {1e3 * t_big:.2f} ms, ratio {ratio:.2f}"
        )
    assert ratio < 4, f"step cost grew {ratio:.2f}x for 16x the bins"
