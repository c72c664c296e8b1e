"""Microbenchmarks of the hot-loop primitives.

Per the optimization workflow (profile before optimizing), these pin
the per-step costs that dominate every experiment: the Fact 3.2 update,
the Fenwick 𝒜(v) draw, one simulator phase of each process, and an
ABKU insertion draw.  Regressions here slow every table above.

``test_scalar_phase_independent_of_n`` is a plain pytest gate, not a
bench: 2,000 scalar phases at n = 2¹⁷ must cost under twice as much as
at n = 2¹⁰, which a phase with any O(n) pass (a negated copy of the
loads per Fact 3.2 search, a cumulative sum per relocation-run removal,
a load sum per open step) cannot meet on any host.  It runs for
scenario B, relocation and the uncapped open specs with bin and ball
removal.
"""

import numpy as np
import pytest
from conftest import paired_overhead_ratio

from repro.balls.load_vector import LoadVector, ominus_index, oplus_index
from repro.balls.rules import ABKURule
from repro.balls.scenario_a import ScenarioAProcess
from repro.balls.scenario_b import ScenarioBProcess
from repro.edgeorient.greedy import EdgeOrientationProcess
from repro.engine import ScalarEngine
from repro.engine.spec import open_spec, relocation_spec, scenario_b_spec
from repro.utils.fenwick import FenwickTree

N = 1024


def test_bench_fact32_update(benchmark):
    v = LoadVector.random(N, N, seed=0).loads

    def op():
        i = oplus_index(v, 37)
        v[i] += 1
        s = ominus_index(v, 37)
        v[s] -= 1

    benchmark(op)


def test_bench_fenwick_sample_update(benchmark):
    rng = np.random.default_rng(1)
    t = FenwickTree(LoadVector.random(N, N, seed=1).loads)

    def op():
        i = t.find(int(rng.integers(0, t.total)))
        t.add(i, -1)
        t.add(i, +1)

    benchmark(op)


def test_bench_abku2_select(benchmark):
    rule = ABKURule(2)
    v = LoadVector.random(N, N, seed=2).loads
    rng = np.random.default_rng(2)
    benchmark(lambda: rule.select(v, rng))


def test_bench_scenario_a_phase(benchmark):
    proc = ScenarioAProcess(ABKURule(2), LoadVector.random(N, N, 3), seed=3)
    benchmark(proc.step)


def test_bench_scenario_b_phase(benchmark):
    proc = ScenarioBProcess(ABKURule(2), LoadVector.random(N, N, 4), seed=4)
    benchmark(proc.step)


def test_bench_edge_orientation_step(benchmark):
    proc = EdgeOrientationProcess(N, seed=5)
    benchmark(proc.step)


#: Specs whose scalar phase must not grow with n (the open ones uncapped).
SCALAR_SPECS = {
    "scenario_b": lambda: scenario_b_spec(ABKURule(2)),
    "relocation": lambda: relocation_spec(ABKURule(2)),
    "open_bin": lambda: open_spec(ABKURule(2), removal="bin"),
    "open_ball": lambda: open_spec(ABKURule(2), removal="ball"),
}


@pytest.mark.parametrize("name", sorted(SCALAR_SPECS))
def test_scalar_phase_independent_of_n(name, capsys):
    small, big = (
        ScalarEngine.make(SCALAR_SPECS[name](), LoadVector.random(n, n, 6), seed=6)
        for n in (2**10, 2**17)
    )
    for proc in (small, big):
        proc.run(2000)  # warmup
    ratio, t_small, t_big = paired_overhead_ratio(
        lambda: small.run(2000), lambda: big.run(2000)
    )
    with capsys.disabled():
        print(
            f"\n2000 {name} phases: n=2^10 {1e3 * t_small:.2f} ms, "
            f"n=2^17 {1e3 * t_big:.2f} ms, ratio {ratio:.2f}"
        )
    assert ratio < 2, f"{name} phase cost grew {ratio:.2f}x for 128x the bins"
