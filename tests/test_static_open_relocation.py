"""Tests for the static baseline, open systems and relocation processes."""

import hashlib

import numpy as np
import pytest

from repro.balls.load_vector import LoadVector
from repro.balls.open_system import coupled_open_coalescence
from repro.balls.relocation import RelocationProcess
from repro.balls.rules import ABKURule, UniformRule
from repro.balls.static import (
    predicted_static_max_load,
    static_allocate,
    static_max_load,
    static_max_load_samples,
)
from repro.engine import ScalarEngine
from repro.engine.registry import registered_specs
from repro.engine.spec import open_spec


class TestStatic:
    def test_mass_and_normalization(self, abku2):
        v = static_allocate(abku2, 100, 20, seed=0)
        assert v.m == 100 and v.is_normalized()

    def test_deterministic(self, abku2):
        assert static_allocate(abku2, 50, 10, seed=1) == static_allocate(
            abku2, 50, 10, seed=1
        )

    def test_two_choices_beats_one(self):
        n = 3000
        d1 = static_max_load(ABKURule(1), n, n, seed=2)
        d2 = static_max_load(ABKURule(2), n, n, seed=2)
        assert d2 < d1

    def test_d2_max_load_small(self):
        # ln ln n / ln 2 + O(1): should be <= 5 at n = 4096 w.h.p.
        assert static_max_load(ABKURule(2), 4096, 4096, seed=3) <= 5

    def test_samples_shape(self, abku2):
        s = static_max_load_samples(abku2, 64, 64, replicas=7, seed=4)
        assert s.shape == (7,) and (s >= 1).all()

    def test_nonabku_rule_path(self, adaptive_rule):
        v = static_allocate(adaptive_rule, 40, 10, seed=5)
        assert v.m == 40

    def test_prediction_values(self):
        assert predicted_static_max_load(1, 1024) == pytest.approx(
            np.log(1024) / np.log(np.log(1024))
        )
        assert predicted_static_max_load(2, 1024) == pytest.approx(
            np.log(np.log(1024)) / np.log(2)
        )

    def test_prediction_heavy_case_offset(self):
        light = predicted_static_max_load(2, 100)
        heavy = predicted_static_max_load(2, 100, m=300)
        assert heavy == pytest.approx(light + 2.0)

    def test_prediction_small_n_rejected(self):
        with pytest.raises(ValueError):
            predicted_static_max_load(2, 2)


def _open(rule, state, *, removal="ball", max_balls=None, seed=None):
    """The §7 open process on the scalar engine."""
    spec = open_spec(rule, removal=removal, max_balls=max_balls)
    return ScalarEngine.make(spec, state, seed=seed)


class TestOpenSystem:
    def test_ball_count_varies(self, abku2):
        p = _open(abku2, LoadVector.balanced(10, 5), seed=0)
        counts = set()
        for _ in range(200):
            p.step()
            counts.add(p.m)
        assert len(counts) > 1

    def test_empty_removal_is_noop(self, abku2):
        p = _open(abku2, LoadVector.empty(4), seed=1)
        p._remove(0.5)
        assert p.m == 0

    def test_max_balls_cap(self, abku2):
        p = _open(abku2, LoadVector.empty(4), max_balls=3, seed=2)
        p.run(500)
        assert p.m <= 3

    def test_invalid_removal_kind(self, abku2):
        with pytest.raises(ValueError, match="removal"):
            _open(abku2, LoadVector.empty(2), removal="nope")

    def test_bin_removal_mode(self, abku2):
        p = _open(abku2, LoadVector.balanced(8, 4), removal="bin", seed=3)
        p.run(300)
        assert p.m >= 0

    def test_determinism(self, abku2):
        a = _open(abku2, LoadVector.empty(5), seed=9).run(200)
        b = _open(abku2, LoadVector.empty(5), seed=9).run(200)
        assert a.state == b.state

    def test_repr(self, abku2):
        text = repr(_open(abku2, LoadVector.empty(3), removal="bin"))
        assert "OpenSpecProcess" in text and "'open_bin'" in text

    @pytest.mark.parametrize("max_balls", [None, 24])
    @pytest.mark.parametrize("removal", ["ball", "bin"])
    def test_probed_snapshot_restores_onto_other_seed(
        self, abku2, tmp_path, removal, max_balls
    ):
        """A mid-run snapshot continues bitwise on a differently seeded copy.

        The chain probe's recovery envelope is pinned to the ball count
        at probe creation; the restored copy must keep it, not re-derive
        it from the ball count the run has drifted to.
        """
        from repro import obs
        from repro.obs.probes import recovery_target

        spec = open_spec(abku2, removal=removal, max_balls=max_balls)
        with obs.observe_run(str(tmp_path / "r"), probe_every=5):
            ref = ScalarEngine.make(spec, LoadVector.all_in_one(18, 6), seed=3)
            ref.run(0)  # builds the probe at m = 18
            pinned = ref._get_probe().monitors[0].threshold
            assert pinned == recovery_target(6, 18)
            ref.run(300)
            saved = ref.state_dict()
            assert "probe" in saved
            restored = ScalarEngine.make(spec, LoadVector.empty(6), seed=99)
            restored.load_state(saved)
            assert recovery_target(6, restored.m) != pinned  # m has drifted
            ref.run(200)
            restored.run(200)
        assert np.array_equal(restored.loads, ref.loads)
        assert restored.loads.dtype == ref.loads.dtype
        assert restored._rng.bit_generator.state == ref._rng.bit_generator.state
        assert restored.t == ref.t == 500
        for proc in (ref, restored):
            assert proc._get_probe().monitors[0].threshold == pinned
        assert restored._get_probe().state_dict() == ref._get_probe().state_dict()

    def test_coupled_coalescence_zero_for_equal(self, abku2):
        t = coupled_open_coalescence(
            abku2, LoadVector.balanced(4, 4), LoadVector.balanced(4, 4), seed=0
        )
        assert t == 0

    def test_coupled_coalescence_converges(self, abku2):
        t = coupled_open_coalescence(
            abku2, LoadVector.empty(6), LoadVector.all_in_one(6, 6),
            max_steps=500_000, seed=1,
        )
        assert 0 < t

    def test_coupled_coalescence_bin_removal(self, abku2):
        t = coupled_open_coalescence(
            abku2, LoadVector.empty(4), LoadVector.all_in_one(4, 4),
            removal="bin", max_steps=500_000, seed=2,
        )
        assert 0 < t


class TestRelocation:
    def test_p_zero_matches_base_counts(self, abku2):
        p = RelocationProcess(
            abku2, LoadVector.all_in_one(10, 5), p_relocate=0.0, seed=0
        )
        p.run(500)
        assert p.relocations == 0
        assert p.m == 10

    def test_mass_conserved_with_relocation(self, abku2):
        p = RelocationProcess(
            abku2, LoadVector.all_in_one(20, 5), p_relocate=1.0, seed=1
        )
        p.run(500)
        assert p.m == 20

    def test_relocations_happen(self, abku2):
        p = RelocationProcess(
            abku2, LoadVector.all_in_one(40, 8), p_relocate=1.0, seed=2
        )
        p.run(50)
        assert p.relocations > 0

    def test_relocation_speeds_recovery(self, abku2):
        m = n = 48
        base = RelocationProcess(
            abku2, LoadVector.all_in_one(m, n), p_relocate=0.0, seed=3
        )
        fast = RelocationProcess(
            abku2, LoadVector.all_in_one(m, n), p_relocate=1.0, seed=3
        )
        t_base = base.run_until(4, 10**6)
        t_fast = fast.run_until(4, 10**6)
        assert 0 < t_fast < t_base

    def test_scenario_b_mode(self, abku2):
        p = RelocationProcess(
            abku2, LoadVector.balanced(12, 4), scenario="b", seed=4
        )
        p.run(200)
        assert p.m == 12

    def test_invalid_scenario(self, abku2):
        with pytest.raises(ValueError, match="scenario"):
            RelocationProcess(abku2, LoadVector.balanced(4, 2), scenario="x")

    def test_invalid_probability(self, abku2):
        with pytest.raises(ValueError):
            RelocationProcess(
                abku2, LoadVector.balanced(4, 2), p_relocate=1.5
            )

    def test_states_stay_normalized(self, uniform_rule):
        p = RelocationProcess(
            uniform_rule, LoadVector.all_in_one(15, 5), p_relocate=0.7, seed=5
        )
        for _ in range(200):
            p.step()
            assert (np.diff(p.loads) <= 0).all()


#: Scalar specs on the relocation and open fast paths, with their starts
#: (balls, bins).  The open walks from 8 balls reach the empty state
#: (seed 1); the capped spec (max_balls = 6) meets both it and the cap.
PINNED_STARTS = {
    "relocation": (lambda: registered_specs()["relocation"], (96, 64)),
    "open_bin": (lambda: open_spec(ABKURule(2), removal="bin"), (8, 64)),
    "open_ball": (lambda: open_spec(ABKURule(2), removal="ball"), (8, 64)),
    "open_ball_capped": (lambda: registered_specs()["open_ball"], (4, 64)),
}

#: (sha256 prefix of the int64 loads, PCG64 state, balls, relocations)
#: after run(3000), recorded from the generic O(n) removal quantile and
#: per-step load sums that these fast paths replace.
PINNED_3000 = {
    ("relocation", 1): (
        "41f60fc805039a42", 170965502537204389399439730404599180354, 96, 836),
    ("relocation", 2): (
        "731d493fbfd76d2e", 321641549508010506551477429451852187658, 96, 840),
    ("open_bin", 1): (
        "b1fdec57e306a6e1", 175084388982452912916983098630365125422, 48, 0),
    ("open_bin", 2): (
        "657707227aaa607c", 139799836335589006052883846178330796860, 48, 0),
    ("open_ball", 1): (
        "9a86f49f7c60297e", 175084388982452912916983098630365125422, 48, 0),
    ("open_ball", 2): (
        "ce087eda35165222", 139799836335589006052883846178330796860, 48, 0),
    ("open_ball_capped", 1): (
        "d839a3521723b8a5", 91655280461933770137689620227937448886, 1, 0),
    ("open_ball_capped", 2): (
        "a4f43331ac4a6844", 218578811725372046682153136475270834888, 6, 0),
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_3000))
def test_scalar_fast_paths_keep_trajectories(name, seed):
    """Loads and RNG position after 3000 steps are the generic path's.

    Run straight through, and resumed halfway from a snapshot onto a
    process of another seed, whose mirrors are rebuilt from the loads.
    """
    make, (m, n) = PINNED_STARTS[name]
    start = LoadVector.random(m, n, 7)
    straight = ScalarEngine.make(make(), start, seed=seed).run(3000)
    half = ScalarEngine.make(make(), start, seed=seed).run(1500)
    resumed = ScalarEngine.make(make(), start, seed=seed + 100)
    resumed.load_state(half.state_dict())
    resumed.run(1500)
    for p in (straight, resumed):
        digest = hashlib.sha256(p.loads.astype(np.int64).tobytes()).hexdigest()
        got = (
            digest[:16],
            p._rng.bit_generator.state["state"]["state"],
            p.m,
            getattr(p, "relocations", 0),
        )
        assert got == PINNED_3000[name, seed]
