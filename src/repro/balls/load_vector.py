"""Normalized load vectors and the ⊕ / ⊖ operations of §3.1.

A state of an allocation process is a *normalized* load vector: a
non-increasing vector of non-negative integers ``v[0] >= v[1] >= ...``
whose i-th entry is the load of the i-th fullest bin (the identity of
bins is irrelevant — §3.3).  The paper's two primitive operations are

* ``v ⊕ e_i`` — add a ball to (normalized) bin *i*, then re-normalize;
* ``v ⊖ e_i`` — remove a ball from bin *i*, then re-normalize.

Fact 3.2 says both can be done without sorting: adding a ball at *i*
increments position ``j = min{t : v_t = v_i}`` (the first bin of the run
of equal loads), removing decrements ``s = max{t : v_t = v_i}`` (the last
bin of the run).  In a descending array those are counts: ``j = #{t :
v_t > v_i}`` and ``s = #{t : v_t ≥ v_i} − 1``.  :func:`count_above` and
:func:`count_at_least` answer them with one O(log n) binary search on the
live array, copying nothing of size n; :func:`oplus_index` /
:func:`ominus_index` and :attr:`LoadVector.num_nonempty` go through them.
Their users are the row-by-row replay oracle
(:func:`repro.verify.differential.replay_rows`), static allocation and
the grand coupling.  The scalar simulators read the same counts off the
tail counts g[ℓ] = #{t : v_t ≥ ℓ} they keep beside the loads
(:class:`repro.balls.process.DynamicAllocationProcess`), O(1) per edit.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_load_vector, check_positive_int

__all__ = [
    "LoadVector",
    "count_above",
    "count_at_least",
    "oplus_index",
    "ominus_index",
    "oplus",
    "ominus",
    "l1_distance",
    "delta_distance",
]


# ---------------------------------------------------------------------------
# Module-level primitives on raw descending integer arrays (hot path)
# ---------------------------------------------------------------------------

def count_above(v: np.ndarray, x: int) -> int:
    """#{j : v[j] > x} for an integer *x* in the descending array *v*, in O(log n).

    The needle is cast to ``v.dtype``: a wider one would make numpy
    copy the whole haystack to the wider type (see :func:`_count_desc`).
    """
    return _count_desc(v, v.dtype.type(x), "right")


def count_at_least(v: np.ndarray, x: int) -> int:
    """#{j : v[j] ≥ x} for an integer *x* in the descending array *v*, in O(log n).

    The needle is cast as in :func:`count_above`.
    """
    return _count_desc(v, v.dtype.type(x), "left")


def _count_desc(v: np.ndarray, x: np.generic, side: str) -> int:
    """``n − #{v ≤ x}`` (*side* ``'right'``) or ``n − #{v < x}`` (``'left'``).

    ``v[::-1]`` is an ascending view that numpy searches in place; *x*
    must already have ``v.dtype``.
    """
    return v.shape[0] - int(v[::-1].searchsorted(x, side))


def oplus_index(v: np.ndarray, i: int) -> int:
    """Index actually incremented by ``v ⊕ e_i`` (Fact 3.2: min of run)."""
    # count_above(v, v[i]) without the cast: v[i] already has v's dtype.
    return _count_desc(v, v[i], "right")


def ominus_index(v: np.ndarray, i: int) -> int:
    """Index actually decremented by ``v ⊖ e_i`` (Fact 3.2: max of run)."""
    # count_at_least(v, v[i]) − 1, without the cast.
    return _count_desc(v, v[i], "left") - 1


def oplus(v: np.ndarray, i: int) -> np.ndarray:
    """Return a new array ``v ⊕ e_i`` (adds a ball at normalized bin *i*)."""
    out = v.copy()
    out[oplus_index(v, i)] += 1
    return out


def ominus(v: np.ndarray, i: int) -> np.ndarray:
    """Return a new array ``v ⊖ e_i`` (removes a ball at normalized bin *i*).

    Raises ``ValueError`` if bin *i* is empty.
    """
    if v[i] <= 0:
        raise ValueError(f"cannot remove a ball from empty bin {i}")
    out = v.copy()
    out[ominus_index(v, i)] -= 1
    return out


def l1_distance(v: np.ndarray, u: np.ndarray) -> int:
    """||v - u||_1 for two equal-length integer arrays."""
    return int(np.abs(v.astype(np.int64) - u.astype(np.int64)).sum())


def delta_distance(v: np.ndarray, u: np.ndarray) -> int:
    """Paper metric Δ(v, u) = ½ ||v - u||_1 = Σ_i max{v_i - u_i, 0}.

    An integer whenever ``sum(v) == sum(u)`` (both in Ω_m); we validate
    that and return the exact integer value.
    """
    d = l1_distance(v, u)
    if d % 2 != 0:
        raise ValueError(
            "Δ is only defined for vectors with equal total load "
            f"(got totals {int(v.sum())} and {int(u.sum())})"
        )
    return d // 2


# ---------------------------------------------------------------------------
# LoadVector: the public, validated wrapper
# ---------------------------------------------------------------------------

class LoadVector:
    """A normalized load vector in Ω_m (non-increasing, sum = m).

    The class is *mutable* — the simulators mutate states in place — but
    every mutation preserves normalization by construction (Fact 3.2).
    Use :meth:`copy` before handing a vector to code that mutates it.
    """

    __slots__ = ("_v",)

    def __init__(self, loads: Union[Iterable[int], np.ndarray], *, normalize: bool = True):
        arr = check_load_vector(np.asarray(list(loads) if not isinstance(loads, np.ndarray) else loads))
        if normalize:
            arr = np.sort(arr)[::-1].copy()
        elif (np.diff(arr) > 0).any():
            raise ValueError("loads are not normalized; pass normalize=True")
        self._v = arr.astype(np.int64)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "LoadVector":
        """The all-zero state 0 ∈ Ω_0 on *n* bins."""
        n = check_positive_int("n", n)
        return cls(np.zeros(n, dtype=np.int64), normalize=False)

    @classmethod
    def all_in_one(cls, m: int, n: int) -> "LoadVector":
        """The worst-case 'crash' state: all *m* balls in a single bin."""
        n = check_positive_int("n", n)
        v = np.zeros(n, dtype=np.int64)
        v[0] = int(m)
        return cls(v, normalize=False)

    @classmethod
    def balanced(cls, m: int, n: int) -> "LoadVector":
        """The most-balanced state: loads differ by at most one."""
        n = check_positive_int("n", n)
        q, r = divmod(int(m), n)
        v = np.full(n, q, dtype=np.int64)
        v[:r] += 1
        return cls(v, normalize=False)

    @classmethod
    def random(cls, m: int, n: int, seed: SeedLike = None) -> "LoadVector":
        """A uniform-throw state: *m* balls each into a uniform bin."""
        rng = as_generator(seed)
        counts = np.bincount(rng.integers(0, n, size=int(m)), minlength=n)
        return cls(counts.astype(np.int64))

    # -- basic protocol ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of bins."""
        return int(self._v.shape[0])

    @property
    def m(self) -> int:
        """Total number of balls (||v||_1)."""
        return int(self._v.sum())

    @property
    def loads(self) -> np.ndarray:
        """The underlying descending int64 array (a live view — don't mutate)."""
        return self._v

    def as_tuple(self) -> tuple[int, ...]:
        """Hashable representation, used as exact-chain state key."""
        return tuple(int(x) for x in self._v)

    def copy(self) -> "LoadVector":
        """Deep copy."""
        out = LoadVector.__new__(LoadVector)
        out._v = self._v.copy()
        return out

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        return int(self._v[i])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LoadVector):
            return self._v.shape == other._v.shape and bool((self._v == other._v).all())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"LoadVector({list(map(int, self._v))})"

    # -- derived quantities --------------------------------------------------

    @property
    def max_load(self) -> int:
        """Load of the fullest bin (v_1)."""
        return int(self._v[0])

    @property
    def min_load(self) -> int:
        """Load of the emptiest bin (v_n)."""
        return int(self._v[-1])

    @property
    def num_nonempty(self) -> int:
        """s = max{i : v_i > 0}, the count of nonempty bins (0 if empty)."""
        return count_above(self._v, 0)

    def is_normalized(self) -> bool:
        """True iff non-increasing (always holds by construction)."""
        return not (np.diff(self._v) > 0).any()

    # -- paper operations ----------------------------------------------------

    def add(self, i: int) -> int:
        """In-place ``v ⊕ e_i``; returns the index actually incremented."""
        j = oplus_index(self._v, i)
        self._v[j] += 1
        return j

    def remove(self, i: int) -> int:
        """In-place ``v ⊖ e_i``; returns the index actually decremented."""
        if self._v[i] <= 0:
            raise ValueError(f"cannot remove a ball from empty bin {i}")
        s = ominus_index(self._v, i)
        self._v[s] -= 1
        return s

    def oplus(self, i: int) -> "LoadVector":
        """Pure ``v ⊕ e_i`` returning a new vector."""
        out = self.copy()
        out.add(i)
        return out

    def ominus(self, i: int) -> "LoadVector":
        """Pure ``v ⊖ e_i`` returning a new vector."""
        out = self.copy()
        out.remove(i)
        return out

    def delta(self, other: "LoadVector") -> int:
        """Δ(v, u) = ½||v − u||_1 (the path-coupling metric of §4–5)."""
        if self.n != other.n:
            raise ValueError("vectors must have the same number of bins")
        return delta_distance(self._v, other._v)
