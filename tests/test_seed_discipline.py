"""Seed discipline: every stochastic entry point is reproducible.

Two properties per entry point: identical seeds give identical results,
and different seeds give (almost surely) different results.  Gathered
in one parametrized file so a new stochastic API without the ``seed``
convention fails loudly here.
"""

import pytest

from repro.balls.custom_removal import CustomRemovalProcess, weight_power
from repro.balls.load_vector import LoadVector
from repro.balls.relocation import RelocationProcess
from repro.balls.rules import ABKURule
from repro.balls.scenario_a import ScenarioAProcess
from repro.balls.scenario_b import ScenarioBProcess
from repro.balls.static import static_allocate
from repro.coupling.grand import (
    coalescence_time_a,
    coalescence_time_b,
    coalescence_time_edge,
)
from repro.edgeorient.carpool import CarpoolSimulator
from repro.edgeorient.greedy import EdgeOrientationProcess
from repro.engine import ScalarEngine, VectorizedEngine, open_spec, scenario_a_spec

_RULE = ABKURule(2)


def _run_process(cls_factory):
    def runner(seed):
        proc = cls_factory(seed)
        proc.run(150)
        return proc

    return runner


_ENTRY_POINTS = {
    "scenario_a": (
        _run_process(lambda s: ScenarioAProcess(_RULE, LoadVector.all_in_one(20, 8), seed=s)),
        lambda p: p.state.as_tuple(),
    ),
    "scenario_b": (
        _run_process(lambda s: ScenarioBProcess(_RULE, LoadVector.all_in_one(20, 8), seed=s)),
        lambda p: p.state.as_tuple(),
    ),
    "open_system": (
        _run_process(lambda s: ScalarEngine.make(open_spec(_RULE), LoadVector.balanced(8, 8), seed=s)),
        lambda p: p.state.as_tuple(),
    ),
    "relocation": (
        _run_process(lambda s: RelocationProcess(_RULE, LoadVector.all_in_one(20, 8), seed=s)),
        lambda p: p.state.as_tuple(),
    ),
    "custom_removal": (
        _run_process(lambda s: CustomRemovalProcess(_RULE, weight_power(2.0), LoadVector.all_in_one(20, 8), seed=s)),
        lambda p: p.state.as_tuple(),
    ),
    "edge": (
        _run_process(lambda s: EdgeOrientationProcess(12, seed=s)),
        lambda p: p.state,
    ),
    "carpool": (
        _run_process(lambda s: CarpoolSimulator(8, 2, seed=s)),
        lambda p: tuple(p.debts),
    ),
    "batch_balls": (
        _run_process(lambda s: VectorizedEngine.make(scenario_a_spec(_RULE), LoadVector.balanced(16, 8), 3, seed=s)),
        lambda p: tuple(map(tuple, p.loads.tolist())),
    ),
    "static": (
        lambda seed: static_allocate(_RULE, 40, 10, seed=seed),
        lambda v: v.as_tuple(),
    ),
    "coalescence_a": (
        lambda seed: coalescence_time_a(
            _RULE, LoadVector.all_in_one(16, 16), LoadVector.balanced(16, 16), seed=seed
        ),
        lambda t: t,
    ),
    "coalescence_b": (
        lambda seed: coalescence_time_b(
            _RULE, LoadVector.all_in_one(12, 12), LoadVector.balanced(12, 12), seed=seed
        ),
        lambda t: t,
    ),
    "coalescence_edge": (
        lambda seed: coalescence_time_edge([4, 0, 0, 0, 0, 0, 0, -4], [0] * 8, seed=seed),
        lambda t: t,
    ),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_same_seed_same_result(name):
    runner, key = _ENTRY_POINTS[name]
    assert key(runner(12345)) == key(runner(12345))


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_different_seed_different_result(name):
    runner, key = _ENTRY_POINTS[name]
    # A single collision is possible in principle; try a few seeds.
    base = key(runner(0))
    assert any(key(runner(s)) != base for s in (1, 2, 3, 4, 5))
