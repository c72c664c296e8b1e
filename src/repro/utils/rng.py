"""Reproducible random number generation.

Every stochastic entry point in the library accepts ``seed`` — either an
integer, ``None``, or an existing :class:`numpy.random.Generator` — and
normalizes it through :func:`as_generator`.  Experiments that fan out over
independent replicas derive per-replica streams with
:func:`spawn_generators`, which uses :class:`numpy.random.SeedSequence`
spawning so streams are statistically independent regardless of how many
workers consume them (the standard idiom for parallel Monte Carlo).

A simulator's run loop draws through :func:`draw_stream`: for a PCG64
Generator, a :class:`DrawStream` that serves ``random()`` and
``integers(0, s)`` from bulk ``random_raw`` slabs — the same numbers,
and on :meth:`DrawStream.close` the same generator state, as the
per-call draws, for a fraction of a numpy scalar call's cost.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

__all__ = [
    "SeedLike",
    "DrawStream",
    "as_generator",
    "draw_stream",
    "spawn_generators",
    "spawn_seeds",
]

_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1
#: 2⁻⁵³: PCG64's next_double is (raw >> 11) · 2⁻⁵³.
_TO_DOUBLE = 1.0 / 9007199254740992.0
_F64 = np.float64
_I64 = np.int64
#: Raw outputs in a stream's first slab; each refill doubles the slab
#: up to _SLAB_MAX, so a short loop rewinds little on close.
_SLAB_MIN = 64
_SLAB_MAX = 4096


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (fresh OS entropy), an ``int``, a ``SeedSequence``,
    or an existing ``Generator`` (returned unchanged, so callers can
    thread one generator through a pipeline without reseeding).  A
    run loop's :class:`DrawStream` is returned unchanged too, so a
    scheduling rule handed one draws from the loop's stream.
    """
    if isinstance(seed, (np.random.Generator, DrawStream)):
        return seed
    return np.random.default_rng(seed)


class DrawStream:
    """A PCG64 Generator's ``random()`` and ``integers(0, s)``, from slabs.

    Reproduces numpy's per-call draws from bulk ``random_raw`` output:
    ``random()`` is PCG64's 53-bit next_double, and ``integers(0, s)``
    (s ≤ 2³²) is numpy's 32-bit Lemire rejection over next_uint32,
    including PCG64's half-word buffer (``has_uint32``/``uinteger``:
    one raw output serves two 32-bit draws, low half first) and
    ``s == 1`` drawing nothing.

    Every other call goes to the Generator itself, the slab closed
    first: other shapes of those two (``size``, ``dtype``, ``endpoint``,
    a bound above 2³²) and every other Generator member (``choice``,
    ``multinomial``, ``bit_generator``, ...).  So the stream never draws
    numbers the Generator would not, and the next served draw opens a
    fresh slab.

    :meth:`close` rewinds the raw outputs the slab drew but no call
    used (``bit_generator.advance(-k)``) and restores the half-word
    buffer, leaving ``bit_generator.state`` exactly where the per-call
    draws leave it.  Between :func:`draw_stream` and :meth:`close` the
    Generator must not be drawn from directly.
    """

    __slots__ = ("_gen", "_bg", "_open", "_raw", "_i", "_k", "_size", "_has32", "_u32")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._bg = gen.bit_generator
        self._open = False
        self._raw: list[int] = []
        self._i = self._k = self._has32 = self._u32 = 0
        self._size = _SLAB_MIN

    def __getattr__(self, name):
        # Reached only for names the stream does not define.  Private
        # names stay here: an unset slot (a copy built without __init__)
        # would otherwise recurse through close().
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._generator(), name)

    def random(self, size=None, dtype=_F64, out=None):
        """``Generator.random()``: one double in [0, 1)."""
        if size is not None or dtype is not _F64 or out is not None:
            return self._generator().random(size, dtype, out)
        i = self._i
        if i == self._k:
            i = self._refill()
        self._i = i + 1
        return (self._raw[i] >> 11) * _TO_DOUBLE

    def integers(self, low, high=None, size=None, dtype=_I64, endpoint=False):
        """``Generator.integers(0, s)``: one int in [0, s), as numpy draws it."""
        if high is None:
            low, high = 0, low
        if (
            type(high) is int and 0 < high <= _TWO32 and type(low) is int
            and low == 0 and size is None and dtype is _I64 and endpoint is False
        ):
            if high == 1:
                return 0  # numpy draws nothing for a one-value range
            if not self._open:
                self._start()
            if self._has32:
                self._has32 = 0
                x = self._u32
            else:
                x = self._split()
            # Lemire: x·s, redrawn while its low word is below 2³² mod s
            # (s = 2³² never redraws and gives x, numpy's next_uint32).
            m = x * high
            if (m & _MASK32) < high:
                m = self._reject(m, high)
            return m >> 32
        return self._generator().integers(low, high, size, dtype, endpoint)

    def close(self) -> None:
        """Return the Generator to where the per-call draws would leave it."""
        if not self._open:
            return
        self._open = False
        bg = self._bg
        unused = self._k - self._i
        if unused:
            bg.advance(-unused)  # also zeroes the half-word buffer
        state = bg.state
        state["has_uint32"], state["uinteger"] = self._has32, self._u32
        bg.state = state
        self._raw = []
        self._i = self._k = 0

    # -- internals -------------------------------------------------------

    def _start(self) -> None:
        """Open the slab: take over the Generator's half-word buffer."""
        state = self._bg.state
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]
        self._size = _SLAB_MIN
        self._open = True

    def _generator(self) -> np.random.Generator:
        """The Generator, the slab closed: for draws the slab does not serve."""
        self.close()
        return self._gen

    def _refill(self) -> int:
        """Draw the next slab, opening the stream first if it is closed."""
        if not self._open:
            self._start()
        k = self._size
        self._raw = self._bg.random_raw(k).tolist()
        self._k = k
        if k < _SLAB_MAX:
            self._size = 2 * k
        return 0

    def _split(self) -> int:
        """next_uint32 on an empty buffer: low half now, high half buffered."""
        i = self._i
        if i == self._k:
            i = self._refill()
        self._i = i + 1
        r = self._raw[i]
        self._has32 = 1
        self._u32 = r >> 32
        return r & _MASK32

    def _reject(self, m: int, s: int) -> int:
        """Lemire's rejection loop: redraw while the low word is below 2³² mod s."""
        threshold = (_TWO32 - s) % s
        while (m & _MASK32) < threshold:
            if self._has32:
                self._has32 = 0
                x = self._u32
            else:
                x = self._split()
            m = x * s
        return m


@functools.cache
def _stream_agrees() -> bool:
    """Whether :class:`DrawStream` matches this numpy's draws (checked once).

    A twin-seeded Generator against a stream, over every bound class;
    an interface this numpy lacks counts as a disagreement.
    """
    try:
        return _self_check()
    except (AttributeError, KeyError, TypeError, ValueError):
        return False


def _self_check() -> bool:
    gen = np.random.Generator(np.random.PCG64(0x5EED))
    twin = np.random.Generator(np.random.PCG64(0x5EED))
    stream = DrawStream(gen)
    bounds = (1, 2, 3, 5, 1000, 2**31 + 1, 2**32 - 1, 2**32)
    same = True
    for k in range(96):
        if k % 3 == 2:
            same = same and stream.random() == twin.random()
        else:
            s = bounds[k % len(bounds)]
            same = same and stream.integers(0, s) == twin.integers(0, s)
    stream.close()
    return same and gen.bit_generator.state == twin.bit_generator.state


def draw_stream(gen):
    """What one run loop of *gen* draws from.

    A :class:`DrawStream` when *gen* is a PCG64 ``Generator`` and the
    stream matches the installed numpy; otherwise *gen* itself (other
    bit generators, or a stream already open).  The caller closes a
    returned stream when its loop ends, however it ends.
    """
    if (
        isinstance(gen, np.random.Generator)
        and type(gen.bit_generator) is np.random.PCG64
        and _stream_agrees()
    ):
        return DrawStream(gen)
    return gen


def spawn_seeds(seed: SeedLike, n: int) -> Sequence[np.random.SeedSequence]:
    """Spawn *n* independent :class:`~numpy.random.SeedSequence` children.

    If *seed* is a ``Generator`` we derive a root sequence from it by
    drawing entropy, keeping determinism when the caller passed a seeded
    generator.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(n)


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Return *n* independent generators derived from *seed*.

    The streams are independent in the ``SeedSequence`` sense: each child
    is safe to hand to a separate process or replica.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]


def entropy_of(seed: SeedLike) -> Optional[int]:
    """Best-effort extraction of the root entropy of *seed* (for logging)."""
    if isinstance(seed, np.random.SeedSequence):
        ent = seed.entropy
        return int(ent) if isinstance(ent, int) else None
    if isinstance(seed, int):
        return seed
    return None
