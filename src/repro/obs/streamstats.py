"""Single-pass streaming estimators for per-step chain telemetry.

The probe layer (:mod:`repro.obs.probes`) observes a trajectory at
decimated steps and must summarize it *online*: a mixing-time campaign
at paper scale produces far more samples than we want to hold, and the
``repro obs watch`` view needs current estimates at any moment.  Three
classic constant-memory estimators cover what the recovery analysis
reads off a trajectory:

* :class:`Welford` — numerically stable running mean/variance
  (Welford 1962; the batched update uses the Chan et al. parallel
  merge, so whole fleets fold in per observation);
* :class:`P2Quantile` — the P² marker-based quantile estimator of
  Jain & Chlamtac (1985): five markers track an arbitrary quantile
  with O(1) memory and no resorting;
* :class:`ExpHistogram` — exponential (power-of-two) load buckets,
  the natural resolution for max-load statistics whose interesting
  scale is logarithmic (Θ(log n / log log n) bands).

All are validated against exact NumPy computations in
``tests/test_streamstats.py`` and are deterministic functions of the
observation sequence — a requirement for byte-identical
``timeseries.jsonl`` artifacts under a fixed seed.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Welford", "P2Quantile", "ExpHistogram", "Extrema"]


class Welford:
    """Running mean/variance via Welford's algorithm (merge-capable)."""

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, x: float) -> None:
        """Fold one observation in."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    def update_many(self, xs: Iterable[float]) -> None:
        """Fold a batch in (Chan et al. pairwise merge, one pass)."""
        arr = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs,
                         dtype=np.float64)
        k = int(arr.size)
        if k == 0:
            return
        b_mean = float(arr.mean())
        b_m2 = float(((arr - b_mean) ** 2).sum())
        if self.n == 0:
            self.n, self.mean, self._m2 = k, b_mean, b_m2
            return
        n = self.n + k
        delta = b_mean - self.mean
        self._m2 += b_m2 + delta * delta * self.n * k / n
        self.mean += delta * k / n
        self.n = n

    @property
    def variance(self) -> float:
        """Population variance (ddof=0); 0.0 before any observation."""
        return self._m2 / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def snapshot(self) -> dict:
        """JSON-friendly state for a timeseries point."""
        return {"n": self.n, "mean": self.mean, "std": self.std}

    def state_dict(self) -> dict:
        """Full internal state for checkpoint/resume (lossless)."""
        return {"n": self.n, "mean": self.mean, "m2": self._m2}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        self.n = int(state["n"])
        self.mean = float(state["mean"])
        self._m2 = float(state["m2"])


class P2Quantile:
    """The P² streaming quantile estimator (Jain & Chlamtac 1985).

    Five markers track the running *q*-quantile with O(1) memory: the
    extreme markers pin min/max, the middle one estimates the quantile,
    and marker heights are adjusted by a piecewise-parabolic (P²)
    interpolation whenever their positions drift off the desired ones.
    Exact for the first five observations; afterwards an estimate whose
    error vanishes as the sample grows (validated against
    ``np.quantile`` in the tests).
    """

    __slots__ = ("q", "_heights", "_pos", "_want", "_inc", "n")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.n = 0
        self._heights: list[float] = []
        # Marker positions (1-based, as in the paper), desired
        # positions, and their per-observation increments.
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._want = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def update(self, x: float) -> None:
        """Fold one observation in."""
        x = float(x)
        self.n += 1
        h = self._heights
        if self.n <= 5:
            h.append(x)
            h.sort()
            return
        pos = self._pos
        # Locate the cell k containing x and bump extreme markers.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._want[i] += self._inc[i]
        # Adjust interior markers whose position is off by >= 1.
        for i in (1, 2, 3):
            d = self._want[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                cand = self._parabolic(i, step)
                if h[i - 1] < cand < h[i + 1]:
                    h[i] = cand
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])

    def update_many(self, xs: Iterable[float]) -> None:
        """Fold a batch in (sequentially; P² has no exact merge)."""
        for x in xs:
            self.update(x)

    def state_dict(self) -> dict:
        """Full marker state for checkpoint/resume (lossless)."""
        return {
            "q": self.q,
            "n": self.n,
            "heights": list(self._heights),
            "pos": list(self._pos),
            "want": list(self._want),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        if float(state["q"]) != self.q:
            raise ValueError(
                f"P2Quantile state is for q={state['q']}, estimator has q={self.q}"
            )
        self.n = int(state["n"])
        self._heights = [float(x) for x in state["heights"]]
        self._pos = [float(x) for x in state["pos"]]
        self._want = [float(x) for x in state["want"]]

    @property
    def value(self) -> float:
        """Current quantile estimate (exact while n <= 5)."""
        h = self._heights
        if not h:
            return 0.0
        if self.n <= 5:
            # Exact small-sample quantile (linear interpolation).
            idx = self.q * (len(h) - 1)
            lo = int(idx)
            hi = min(lo + 1, len(h) - 1)
            return h[lo] + (idx - lo) * (h[hi] - h[lo])
        return h[2]


class ExpHistogram:
    """Exponential (power-of-two) bucket histogram for nonnegative loads.

    Bucket 0 counts zeros; bucket j >= 1 counts values in
    [2^(j-1), 2^j).  Max-load phenomena live on a logarithmic scale
    (Θ(log n / log log n) typical bands, O(log n) recovery envelopes),
    so 64 buckets cover any int64 load; :meth:`update` is exact below
    2^53, far above any load a run reaches.
    """

    __slots__ = ("counts",)

    #: int64 values need at most 1 + 63 buckets.
    NBUCKETS = 64

    def __init__(self) -> None:
        self.counts = np.zeros(self.NBUCKETS, dtype=np.int64)

    @staticmethod
    def bucket_of(value: int) -> int:
        """The bucket index of one nonnegative value."""
        v = int(value)
        if v < 0:
            raise ValueError(f"loads must be nonnegative, got {v}")
        return v.bit_length()

    def update(self, values: Sequence[int] | np.ndarray) -> None:
        """Fold an array of nonnegative integer loads in."""
        arr = np.asarray(values)
        if arr.size == 0:
            return
        if arr.min() < 0:
            raise ValueError("loads must be nonnegative")
        # bit_length is frexp's exponent (v = m·2^j, ½ ≤ m < 1; 0 ↦ 0),
        # exact while the float64 conversion is, i.e. below 2^53.
        _, j = np.frexp(arr)
        self.counts += np.bincount(j, minlength=self.NBUCKETS)

    @property
    def total(self) -> int:
        """Total observations folded in."""
        return int(self.counts.sum())

    def nonzero(self) -> dict[int, int]:
        """Sparse ``{bucket: count}`` view (what gets persisted)."""
        (idx,) = np.nonzero(self.counts)
        return {int(i): int(self.counts[i]) for i in idx}

    @staticmethod
    def bucket_bounds(j: int) -> tuple[int, int]:
        """Inclusive value range [lo, hi] of bucket *j*."""
        if j == 0:
            return (0, 0)
        return (1 << (j - 1), (1 << j) - 1)

    def state_dict(self) -> dict:
        """Sparse bucket counts for checkpoint/resume (lossless)."""
        return {"counts": {str(k): c for k, c in self.nonzero().items()}}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        self.counts = np.zeros(self.NBUCKETS, dtype=np.int64)
        for k, c in state["counts"].items():
            self.counts[int(k)] = int(c)


class Extrema:
    """Running min/max/last tracker (the cheap part of every series)."""

    __slots__ = ("n", "min", "max", "last")

    def __init__(self) -> None:
        self.n = 0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0

    def update(self, x: float) -> None:
        x = float(x)
        self.n += 1
        self.last = x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def snapshot(self) -> dict:
        if self.n == 0:
            return {"n": 0}
        return {"n": self.n, "min": self.min, "max": self.max, "last": self.last}

    def state_dict(self) -> dict:
        """Full state for checkpoint/resume (infinities encoded as None)."""
        return {
            "n": self.n,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
            "last": self.last,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        self.n = int(state["n"])
        self.min = math.inf if state["min"] is None else float(state["min"])
        self.max = -math.inf if state["max"] is None else float(state["max"])
        self.last = float(state["last"])
