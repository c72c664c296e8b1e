"""The scalar engine's O(1) phase: tail counts and one draw stream per loop.

``step()`` outside a loop draws from the Generator itself, one numpy call
per draw — the per-call path every seeded trajectory was recorded on.
Inside ``run``/``trajectory``/``run_until`` the same phase body (one
``_advance`` call per segment) draws from a
:class:`~repro.utils.rng.DrawStream`.  Each loop must leave the loads,
the mirrors and ``bit_generator.state`` exactly where the same phases
stepped one call at a time leave them, also when it ends early or
fails; the Fact 3.2 edits must keep the tail counts
g[ℓ] = #{j : v_j ≥ ℓ} equal to the loads' own; and the closed specs'
loops must match :func:`~repro.verify.differential.replay_scalar`, an
oracle that shares none of their code.
"""

import numpy as np
import pytest

from repro.balls.load_vector import LoadVector
from repro.balls.custom_removal import weight_power
from repro.balls.rules import (
    ABKURule,
    AdaptiveRule,
    RandomWalkRule,
    SchedulingRule,
    threshold_chi,
)
from repro.balls.scenario_b import ScenarioBProcess
from repro.engine.scalar import ScalarEngine
from repro.engine.spec import (
    custom_removal_spec,
    open_spec,
    relocation_spec,
    scenario_a_spec,
    scenario_b_spec,
)
from repro.engine.registry import registered_specs
from repro.engine.vectorized import VectorizedEngine
from repro.utils import rng as rng_mod
from repro.verify.differential import diff_scalar, replay_scalar

N = 12

SPECS = {
    "scenario_a": scenario_a_spec(ABKURule(2)),
    "scenario_b": scenario_b_spec(ABKURule(2)),
    "scenario_a_uniform": scenario_a_spec(ABKURule(1)),
    "scenario_b_adap": scenario_b_spec(
        AdaptiveRule(threshold_chi(1, 3, 2), name="adap")
    ),
    "scenario_a_walk": scenario_a_spec(RandomWalkRule.cycle(2)),
    "relocation_a": relocation_spec(ABKURule(2), scenario="a", p_relocate=0.5),
    "relocation_b": relocation_spec(ABKURule(2), scenario="b", p_relocate=0.5),
    "custom_pressure": custom_removal_spec(ABKURule(2), weight_power(2.0)),
    "open_ball": open_spec(ABKURule(2), removal="ball"),
    "open_bin": open_spec(ABKURule(2), removal="bin"),
    "open_bin_capped": open_spec(ABKURule(2), removal="bin", max_balls=20),
}


def _start(name):
    # Open specs start small and sparse so they grow past their
    # starting max load; closed ones start from the crash state.
    if name.startswith("open"):
        return LoadVector([2, 1] + [0] * (N - 2))
    return LoadVector.all_in_one(2 * N, N)


def _pair(name, seed, bits=np.random.PCG64):
    spec = SPECS[name]
    return [
        ScalarEngine.make(spec, _start(name), seed=np.random.Generator(bits(seed)))
        for _ in range(2)
    ]


def _same(a, b):
    # No loop leaves its stream behind: the Generator is back in place.
    assert type(a._rng) is type(b._rng) is not rng_mod.DrawStream
    assert np.array_equal(a.loads, b.loads)
    assert a.t == b.t
    # np.testing compares the array-valued states (MT19937's key) too.
    np.testing.assert_equal(a._rng.bit_generator.state, b._rng.bit_generator.state)
    assert getattr(a, "relocations", 0) == getattr(b, "relocations", 0)


def _tails(v):
    """g[ℓ] = #{j : v_j ≥ ℓ} for ℓ = 0 … max + 1, from scratch."""
    return [int((v >= level).sum()) for level in range(int(v[0]) + 2)]


def _first_hit(proc, level, max_steps):
    """``run_until(level, max_steps)``'s answer, stepping one call at a time."""
    if proc.max_load <= level:
        return 0
    for k in range(1, max_steps + 1):
        proc.step()
        if proc.max_load <= level:
            return k
    return -1


def _check_mirrors(proc):
    assert proc._vl == proc.loads.tolist()
    g = proc._g
    want = _tails(proc.loads)
    assert g[: len(want)] == want
    assert not any(g[len(want):])  # levels above the max load are empty


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("steps", [1, 7, 40, 300, 2500])
def test_run_matches_per_call_steps(name, steps):
    a, b = _pair(name, steps)
    a.run(steps)
    for _ in range(steps):
        b.step()
    _same(a, b)
    _check_mirrors(a)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_trajectory_and_run_until_match_per_call_steps(name):
    a, b = _pair(name, 5)
    traj = a.trajectory(600, every=3)
    want = [float(b.max_load)]
    for k in range(1, 601):
        b.step()
        if k % 3 == 0:
            want.append(float(b.max_load))
    assert traj.tolist() == want
    _same(a, b)
    # A loop that stops at its hit, then one that never hits.
    level = int(a.max_load) - 1
    assert a.run_until(level, 10_000) == _first_hit(b, level, 10_000)
    _same(a, b)
    assert a.run_until(-1, 900) == -1
    for _ in range(900):
        b.step()
    _same(a, b)
    _check_mirrors(a)


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "open_bin"])
def test_other_bit_generators_keep_the_per_call_path(name, bits):
    a, b = _pair(name, 3, bits)
    a.run(500)
    for _ in range(500):
        b.step()
    _same(a, b)


class _WideRule(ABKURule):
    """ABKU[2] that also draws one integer above 2³² per placement."""

    def select(self, v, seed=None):
        rng = rng_mod.as_generator(seed)
        rng.integers(0, 2**40)
        return super().select(v, rng)


class _SizedRule(ABKURule):
    """ABKU[d] through SchedulingRule's default explicit-source select."""

    select = SchedulingRule.select


class _ChoiceRule(ABKURule):
    """ABKU[2] that also draws through ``choice`` per placement."""

    def select(self, v, seed=None):
        rng = rng_mod.as_generator(seed)
        rng.choice(3)
        return super().select(v, rng)


@pytest.mark.parametrize("rule", [_WideRule(2), _SizedRule(2), _ChoiceRule(2)])
def test_draws_the_slab_does_not_serve_match_per_call(rule):
    spec = scenario_b_spec(rule)
    a, b = (
        ScalarEngine.make(spec, LoadVector.all_in_one(2 * N, N), seed=9)
        for _ in range(2)
    )
    a.run(400)
    for _ in range(400):
        b.step()
    _same(a, b)


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "open_bin"])
def test_state_dict_and_load_state_inside_a_loop(name):
    """A ``trajectory`` statistic that checkpoints mid-loop reads the
    per-call state, and one that restores a snapshot mid-loop replays
    from it."""
    a, b = _pair(name, 23)
    snaps = {}

    def checkpoint(v):
        if a.t % 50 == 0:
            snaps[a.t] = a.state_dict()
        return 0.0

    assert len(a.trajectory(400, stat=checkpoint)) == 401
    for k in range(401):
        if k:
            b.step()
        if k % 50 == 0:
            want = b.state_dict()
            assert np.array_equal(snaps[k]["loads"], want["loads"])
            assert snaps[k]["rng"] == want["rng"] and snaps[k]["t"] == k
    _same(a, b)
    restored = False

    def rewind(v):
        nonlocal restored
        if a.t == 450 and not restored:
            restored = True
            a.load_state(snaps[100])
        return 0.0

    a.trajectory(300, stat=rewind)  # phases 401 … 450, then 101 … 350
    assert restored and a.t == 350
    b.load_state(snaps[100])
    for _ in range(250):
        b.step()
    _same(a, b)
    _check_mirrors(a)


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "relocation_b", "open_ball"])
@pytest.mark.parametrize("k", [0, 3, 33, 500])
def test_failing_predicate_leaves_the_per_call_state(name, k):
    """A ``trajectory`` statistic that raises at phase k."""
    a, b = _pair(name, 17)
    calls = 0

    def predicate(v):
        nonlocal calls
        calls += 1
        if calls == k + 1:  # call 1 is the start state, call k + 1 phase k
            raise RuntimeError("predicate failed")
        return 0.0

    with pytest.raises(RuntimeError):
        a.trajectory(10 * k + 10, stat=predicate)
    for _ in range(k):
        b.step()
    _same(a, b)
    # The restored Generator carries on as the per-call one does.
    a.run(200)
    for _ in range(200):
        b.step()
    _same(a, b)


class _FailingRule(ABKURule):
    """ABKU[2] whose placement raises on its *k*-th call."""

    def __init__(self, k):
        super().__init__(2)
        self.k = k
        self.calls = 0

    def select(self, v, seed=None):
        self.calls += 1
        if self.calls == self.k:
            raise RuntimeError("rule failed")
        return super().select(v, seed)


@pytest.mark.parametrize("k", [5, 90, 1200])
def test_failing_phase_leaves_the_per_call_state(k):
    a, b = (
        ScenarioBProcess(_FailingRule(k), LoadVector.all_in_one(2 * N, N), seed=4)
        for _ in range(2)
    )
    with pytest.raises(RuntimeError):
        a.run(2 * k)
    with pytest.raises(RuntimeError):
        for _ in range(2 * k):
            b.step()
    # Both stopped after the failing phase's removal.
    _same(a, b)
    assert a.t == k - 1
    _check_mirrors(a)


def test_primitives_keep_tail_counts_at_every_edit():
    """⊕/⊖ straight on the primitives: a new max load at every edit from
    a fresh build, then random edits at every position."""
    for start in ([0] * N, [4] + [0] * (N - 1), [3, 3, 3] + [0] * (N - 3)):
        proc = ScalarEngine.make(SPECS["open_bin"], LoadVector(start), seed=0)
        for _ in range(6):
            assert proc._increment_at(0) == 0
            _check_mirrors(proc)
        proc.load_state(proc.state_dict())  # a fresh build, no slack in g
        for _ in range(3):
            assert proc._increment_at(0) == 0
            _check_mirrors(proc)
        edits = np.random.default_rng(sum(start))
        for _ in range(400):
            s = proc._g[1]
            if s and edits.random() < 0.5:
                i = int(edits.integers(0, s))
                want = int((proc.loads >= proc.loads[i]).sum()) - 1
                assert proc._decrement_at(i) == want
            else:
                i = int(edits.integers(0, N))
                want = int((proc.loads > proc.loads[i]).sum())
                assert proc._increment_at(i) == want
            _check_mirrors(proc)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tail_counts_follow_random_phase_sequences(name):
    proc = ScalarEngine.make(SPECS[name], _start(name), seed=21)
    start_max = peak = proc.max_load
    mix = np.random.default_rng(99)
    for _ in range(40):
        kind = int(mix.integers(0, 3))
        if kind == 0:
            proc.run(int(mix.integers(0, 120)))
        elif kind == 1:
            for _ in range(int(mix.integers(1, 10))):
                proc.step()
        else:
            proc.trajectory(int(mix.integers(0, 60)))
        _check_mirrors(proc)
        peak = max(peak, proc.max_load)
    if name in ("open_ball", "open_bin"):
        assert peak > start_max  # g grew past the start's levels


@pytest.mark.parametrize("name", sorted(SPECS))
def test_load_state_rebuilds_the_mirrors(name):
    a = ScalarEngine.make(SPECS[name], _start(name), seed=2)
    a.run(700)
    b = ScalarEngine.make(SPECS[name], _start(name), seed=0)
    b.load_state(a.state_dict())
    _check_mirrors(b)
    a.run(500)
    b.run(500)
    _same(a, b)
    _check_mirrors(b)


class _CountingGenerator(np.random.Generator):
    """A PCG64 Generator that counts its scalar ``random``/``integers`` calls."""

    calls = 0

    def random(self, *args, **kwargs):
        type(self).calls += 1
        return super().random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        type(self).calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "relocation_b", "open_bin"])
def test_long_loops_make_no_per_phase_generator_calls(name, monkeypatch):
    """A silent fallback to per-call draws fails here, not only in a benchmark."""
    monkeypatch.setattr(_CountingGenerator, "calls", 0)
    gen = _CountingGenerator(np.random.PCG64(5))
    proc = ScalarEngine.make(SPECS[name], LoadVector.balanced(4 * N, N), seed=gen)
    assert proc.run_until(-1, 10_000) == -1
    assert _CountingGenerator.calls == 0
    _check_mirrors(proc)
    # ... and the run still reproduces the per-call trajectory.
    twin = ScalarEngine.make(
        SPECS[name], LoadVector.balanced(4 * N, N), seed=np.random.default_rng(5)
    )
    for _ in range(10_000):
        twin.step()
    assert np.array_equal(proc.loads, twin.loads)
    assert proc._rng.bit_generator.state == twin._rng.bit_generator.state


def test_short_loops_open_no_slab(monkeypatch):
    """``sample_transitions`` runs a few phases per draw: no slab, no rewind."""

    def no_slab(self):
        raise AssertionError("a short loop opened a slab")

    monkeypatch.setattr(rng_mod.DrawStream, "_refill", no_slab)
    for name in ("scenario_a", "scenario_b", "open_bin"):
        for steps in (1, 3):
            got = ScalarEngine.sample_transitions(
                SPECS[name], LoadVector([3, 1, 0, 0]), 40, steps=steps, seed=8
            )
            twin = np.random.default_rng(8)
            want = []
            for _ in range(40):
                b = ScalarEngine.make(SPECS[name], LoadVector([3, 1, 0, 0]), seed=twin)
                for _ in range(steps):
                    b.step()
                want.append(tuple(b.loads.tolist()))
            assert got == want


# ---------------------------------------------------------------------------
# Against replay_scalar, the oracle that shares no code with the loop
# ---------------------------------------------------------------------------

_ORACLE_CASES = {
    "n1_ball": (scenario_a_spec(ABKURule(2)), LoadVector.all_in_one(3, 1)),
    "n1_bin": (scenario_b_spec(ABKURule(2)), LoadVector.all_in_one(3, 1)),
    "n2_ball": (scenario_a_spec(ABKURule(2)), LoadVector.all_in_one(5, 2)),
    "n2_bin_relocation": (
        relocation_spec(ABKURule(2), scenario="b", p_relocate=0.5),
        LoadVector.all_in_one(5, 2),
    ),
    "m1_ball": (scenario_a_spec(ABKURule(2)), LoadVector.all_in_one(1, 6)),
    "m1_bin": (scenario_b_spec(ABKURule(3)), LoadVector.all_in_one(1, 6)),
    "m_below_n_relocation": (
        relocation_spec(ABKURule(2), scenario="a", p_relocate=0.5),
        LoadVector.all_in_one(4, 11),
    ),
    "m_below_n_custom": (SPECS["custom_pressure"], LoadVector.all_in_one(4, 11)),
    "scenario_a_adap": (
        registered_specs()["scenario_a_adap"], LoadVector.all_in_one(2 * N, N)
    ),
    "scenario_b_adap": (SPECS["scenario_b_adap"], LoadVector.all_in_one(2 * N, N)),
    "walk": (SPECS["scenario_a_walk"], LoadVector.all_in_one(2 * N, N)),
    "uniform": (SPECS["scenario_a_uniform"], LoadVector.all_in_one(2 * N, N)),
    # Balanced starts: the max load climbs past the start's.
    "balanced_ball": (SPECS["scenario_a"], LoadVector.balanced(3 * N, N)),
    "balanced_bin": (SPECS["scenario_b"], LoadVector.balanced(3 * N, N)),
    "balanced_relocation": (SPECS["relocation_b"], LoadVector.balanced(3 * N, N)),
    # ABKURule subclasses whose own select must not be inlined.
    "wide_rule": (scenario_b_spec(_WideRule(2)), LoadVector.all_in_one(2 * N, N)),
    "sized_rule": (scenario_a_spec(_SizedRule(3)), LoadVector.all_in_one(2 * N, N)),
    "choice_rule": (
        relocation_spec(_ChoiceRule(2), scenario="b", p_relocate=0.5),
        LoadVector.all_in_one(2 * N, N),
    ),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
@pytest.mark.parametrize("steps, every", [(0, 0), (1, 0), (9, 3), (400, 0), (400, 7)])
def test_run_loops_match_the_one_row_replay(name, steps, every):
    spec, start = _ORACLE_CASES[name]
    assert diff_scalar(spec, start, 31, steps, every) is None


@pytest.mark.parametrize("name", ["n1_bin", "m1_ball", "scenario_a_adap", "wide_rule"])
def test_run_until_at_the_start_and_at_zero_steps(name):
    """A start already at the target returns 0 and neither draws nor
    steps; max_steps = 0 from above the target returns -1 the same way."""
    spec, start = _ORACLE_CASES[name]
    untouched = replay_scalar(spec, start, 5, 0)
    for target, max_steps, want in (
        (start.max_load, 500, 0),
        (start.max_load + 3, 0, 0),
        (start.max_load - 1, 0, -1),
        (-1, 0, -1),
    ):
        proc = ScalarEngine.make(spec, start, seed=5)
        assert proc.run_until(target, max_steps) == want
        assert proc.t == 0
        assert proc.loads.tolist() == untouched["V"][0].tolist()
        assert proc._rng.bit_generator.state == untouched["rng"]
        _check_mirrors(proc)


def test_a_target_below_zero_never_hits():
    spec, start = _ORACLE_CASES["n1_bin"]
    proc = ScalarEngine.make(spec, start, seed=2)
    assert proc.run_until(-1, 300) == -1 and proc.t == 300
    assert proc.run_until(np.int64(-4), 20) == -1 and proc.t == 320


_BAD_COUNTS = [(-1, ValueError), (-5, ValueError), (2.5, TypeError), (True, TypeError)]


@pytest.mark.parametrize("name", ["scenario_a", "relocation_b", "open_bin"])
@pytest.mark.parametrize("bad, error", _BAD_COUNTS)
def test_drivers_reject_bad_step_counts(name, bad, error):
    proc = ScalarEngine.make(SPECS[name], _start(name), seed=0)
    for call in (
        lambda: proc.run(bad),
        lambda: proc.trajectory(bad),
        lambda: proc.run_until(0, bad),
    ):
        with pytest.raises(error):
            call()
    with pytest.raises(ValueError if bad in (-1, -5) else TypeError):
        proc.trajectory(10, every=bad)
    assert proc.t == 0  # nothing ran


def test_run_until_rejects_a_predicate():
    proc = ScalarEngine.make(SPECS["scenario_b"], _start("scenario_b"), seed=0)
    with pytest.raises(TypeError):
        proc.run_until(lambda v: v[0] <= 3, 100)
    with pytest.raises(TypeError):
        proc.run_until(2.0, 100)


@pytest.mark.parametrize("bad, error", _BAD_COUNTS)
def test_recovery_times_rejects_bad_step_counts(bad, error):
    fleet = VectorizedEngine.make(
        SPECS["scenario_a"], LoadVector.all_in_one(2 * N, N), 3, seed=0
    )
    with pytest.raises(error):
        fleet.recovery_times(4, bad)
