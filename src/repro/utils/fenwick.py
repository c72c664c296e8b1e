"""Fenwick (binary indexed) tree for O(log n) weighted sampling.

The scenario-A removal step draws a bin with probability proportional to
its load (distribution 𝒜(v), Definition 3.2 of the paper).  Recomputing a
cumulative sum each step would make every transition O(n); the Fenwick
tree keeps prefix sums under point updates in O(log n), which is what
makes the large-n simulators in :mod:`repro.balls` fast.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["FenwickTree"]


class FenwickTree:
    """Prefix-sum tree over ``n`` non-negative integer weights.

    Supports point update, prefix sum, and inverse-CDF search (``find``),
    each in O(log n); :meth:`add` keeps the total, so reading it (and
    ``find``'s range check) is O(1).  Weights are read in as int64; the
    tree is a Python list of ints, since each step of a walk reads one
    entry and a list read costs a fraction of a numpy scalar read.
    """

    __slots__ = ("_n", "_tree", "_total")

    def __init__(self, weights: Iterable[int] | Sequence[int] | np.ndarray):
        w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.int64)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        self._n = n = int(w.shape[0])
        # Linear-time construction: tree[i] accumulates its child ranges.
        tree = [0] + w.tolist()
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self._tree = tree
        self._total = int(w.sum())

    def __len__(self) -> int:
        return self._n

    @property
    def total(self) -> int:
        """Sum of all weights."""
        return self._total

    def add(self, index: int, delta: int) -> None:
        """Add *delta* to the weight at zero-based *index*."""
        if not 0 <= index < self._n:
            raise IndexError(f"index {index} out of range [0, {self._n})")
        self._total += delta
        i = index + 1
        tree = self._tree
        n = self._n
        while i <= n:
            tree[i] += delta
            i += i & -i

    def prefix_sum(self, count: int) -> int:
        """Sum of the first *count* weights (indices ``0..count-1``)."""
        if not 0 <= count <= self._n:
            raise IndexError(f"count {count} out of range [0, {self._n}]")
        s = 0
        i = count
        tree = self._tree
        while i > 0:
            s += tree[i]
            i -= i & -i
        return int(s)

    def get(self, index: int) -> int:
        """Return the weight at zero-based *index*."""
        return self.prefix_sum(index + 1) - self.prefix_sum(index)

    def find(self, target: int) -> int:
        """Return the smallest zero-based index ``i`` with prefix_sum(i+1) > target.

        Equivalently: with ``target`` drawn uniformly from
        ``[0, total)``, returns an index distributed proportionally to
        the weights.  Raises if *target* is out of range.
        """
        if target < 0 or target >= self._total:
            raise ValueError(f"target {target} out of range [0, {self._total})")
        idx = 0
        bitmask = 1 << (self._n.bit_length())
        tree = self._tree
        n = self._n
        remaining = target
        while bitmask > 0:
            nxt = idx + bitmask
            if nxt <= n and tree[nxt] <= remaining:
                idx = nxt
                remaining -= tree[nxt]
            bitmask >>= 1
        return idx  # zero-based: idx positions have cumulative <= target

    def sample(self, rng: np.random.Generator) -> int:
        """Draw an index with probability proportional to its weight."""
        total = self.total
        if total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        return self.find(int(rng.integers(0, total)))

    def to_array(self) -> np.ndarray:
        """Materialize the current weights as an int64 array."""
        out = np.empty(self._n, dtype=np.int64)
        prev = 0
        for i in range(self._n):
            cur = self.prefix_sum(i + 1)
            out[i] = cur - prev
            prev = cur
        return out
