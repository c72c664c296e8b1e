"""Tests for seeded RNG stream management."""

import numpy as np
import pytest

from repro.utils import rng as rng_mod
from repro.utils.rng import as_generator, entropy_of, spawn_generators, spawn_seeds


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(7).random(5)
        b = as_generator(7).random(5)
        assert np.array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(3)
        a = as_generator(ss).random(3)
        b = as_generator(np.random.SeedSequence(3)).random(3)
        assert np.array_equal(a, b)


class TestSpawn:
    def test_spawn_count(self):
        assert len(spawn_generators(0, 5)) == 5
        assert len(spawn_seeds(0, 0)) == 0

    def test_streams_differ(self):
        gens = spawn_generators(0, 3)
        draws = [g.random(4).tolist() for g in gens]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_generators(9, 4)]
        b = [g.random() for g in spawn_generators(9, 4)]
        assert a == b

    def test_spawn_from_generator_deterministic(self):
        a = [g.random() for g in spawn_generators(np.random.default_rng(1), 3)]
        b = [g.random() for g in spawn_generators(np.random.default_rng(1), 3)]
        assert a == b

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestEntropy:
    def test_int(self):
        assert entropy_of(5) == 5

    def test_none(self):
        assert entropy_of(None) is None

    def test_seed_sequence(self):
        assert entropy_of(np.random.SeedSequence(11)) == 11


class TestDrawStream:
    """A DrawStream against a twin Generator's per-call draws."""

    BOUNDS = (1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32)

    @staticmethod
    def _twins(seed, has_uint32):
        gen = np.random.Generator(np.random.PCG64(seed))
        twin = np.random.Generator(np.random.PCG64(seed))
        if has_uint32:  # leave a buffered half-word in both
            assert int(gen.integers(0, 7)) == int(twin.integers(0, 7))
        assert gen.bit_generator.state["has_uint32"] == has_uint32
        return gen, twin

    def _replay(self, stream, twin, ops):
        for op in ops:
            if op is None:
                assert stream.random() == twin.random()
            else:
                got = stream.integers(0, op)
                assert type(got) is int
                assert got == int(twin.integers(0, op))

    def _ops(self, rs, count):
        ops = []
        for _ in range(count):
            pick = int(rs.integers(0, 9))
            if pick < 2:
                ops.append(None)  # random()
            elif pick < 8:
                ops.append(self.BOUNDS[pick - 2])
            else:
                ops.append(int(rs.integers(1, 2**32 + 1)))
        return ops

    def test_random_interleavings_match_values_and_state(self):
        rs = np.random.default_rng(2024)
        for trial in range(120):
            gen, twin = self._twins(trial, trial % 2)
            stream = rng_mod.DrawStream(gen)
            self._replay(stream, twin, self._ops(rs, int(rs.integers(0, 700))))
            stream.close()
            assert gen.bit_generator.state == twin.bit_generator.state

    def test_slab_boundary_after_a_buffered_half_word(self):
        """Runs that end exactly as a slab is used up: with a half-word
        held, and right after a draw that used the held half-word."""
        rs = np.random.default_rng(7)
        ends = {"held": 0, "used": 0}
        for trial in range(300):
            gen, twin = self._twins(100 + trial, trial % 2)
            stream = rng_mod.DrawStream(gen)
            want = "held" if trial % 2 else "used"
            for op in self._ops(rs, 1000):
                held = stream._open and stream._has32
                self._replay(stream, twin, [op])
                if stream._open and stream._i == stream._k:
                    if want == "held" and stream._has32:
                        break
                    if want == "used" and held and not stream._has32:
                        break
            else:
                want = None
            stream.close()
            assert gen.bit_generator.state == twin.bit_generator.state
            if want:
                ends[want] += 1
        assert min(ends.values()) >= 20  # both ends exercised, not just possible

    def test_close_is_idempotent_and_stream_reopens(self):
        rs = np.random.default_rng(3)
        gen, twin = self._twins(5, 0)
        stream = rng_mod.DrawStream(gen)
        for _ in range(3):
            self._replay(stream, twin, self._ops(rs, 300))
            stream.close()
            stream.close()
            assert gen.bit_generator.state == twin.bit_generator.state

    def test_sized_and_wide_draws_go_through_the_generator(self):
        """``integers(0, n, size=k)`` (SchedulingRule.select's default path)
        and bounds above 2³² match the Generator's own draws."""
        rs = np.random.default_rng(11)
        gen, twin = self._twins(9, 0)
        stream = rng_mod.DrawStream(gen)
        for _ in range(6):
            self._replay(stream, twin, self._ops(rs, 100))
            assert np.array_equal(
                stream.integers(0, 10, size=5), twin.integers(0, 10, size=5)
            )
            assert stream.integers(0, 2**40) == twin.integers(0, 2**40)
            assert stream.integers(3, 9) == twin.integers(3, 9)
            assert stream.integers(6) == twin.integers(6)
            assert np.array_equal(stream.random(4), twin.random(4))
        stream.close()
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_other_generator_members_go_to_the_generator(self):
        """``choice``, ``multinomial``, ``normal``, ``permutation`` and
        ``bit_generator`` between served draws: the Generator's own
        numbers and state, the slab closed first and reopened after."""
        rs = np.random.default_rng(13)
        for trial in range(40):
            gen, twin = self._twins(200 + trial, trial % 2)
            stream = rng_mod.DrawStream(gen)
            for _ in range(6):
                self._replay(stream, twin, self._ops(rs, int(rs.integers(0, 150))))
                assert stream.choice(7) == twin.choice(7)
                assert np.array_equal(
                    stream.multinomial(5, [0.3, 0.7]), twin.multinomial(5, [0.3, 0.7])
                )
                assert stream.normal() == twin.normal()
                assert np.array_equal(stream.permutation(6), twin.permutation(6))
                assert stream.bit_generator.state == twin.bit_generator.state
            stream.close()
            assert gen.bit_generator.state == twin.bit_generator.state
        with pytest.raises(AttributeError):
            stream.no_such_member
        with pytest.raises(AttributeError):
            stream._no_such_slot

    def test_draw_stream_only_wraps_pcg64(self, monkeypatch):
        pcg = np.random.default_rng(0)
        stream = rng_mod.draw_stream(pcg)
        assert isinstance(stream, rng_mod.DrawStream)
        assert rng_mod.draw_stream(stream) is stream  # an open loop nests
        assert as_generator(stream) is stream
        for bits in (np.random.MT19937, np.random.Philox, np.random.SFC64):
            gen = np.random.Generator(bits(0))
            assert rng_mod.draw_stream(gen) is gen
        assert rng_mod._stream_agrees()
        monkeypatch.setattr(rng_mod, "_stream_agrees", lambda: False)
        assert rng_mod.draw_stream(pcg) is pcg
