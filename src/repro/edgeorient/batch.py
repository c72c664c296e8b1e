"""Vectorized multi-replica edge orientation simulator.

The (R, n) analogue of
:class:`~repro.engine.vectorized.VectorizedProcess` for the greedy edge
orientation chain: R independent replicas kept as rows of
descending discrepancies, advanced together with whole-array NumPy
passes.  The greedy move on ranks (φ, ψ), φ < ψ, with values
a = row[φ] ≥ b = row[ψ] is the multiset update −{a, b} + {a−1, b+1},
which splits into three vectorizable cases (see
:func:`repro.coupling.grand._rank_move` for the scalar derivation):

* a = b     → +1 at the first index of a's run, −1 at its last;
* a = b + 1 → no-op (the multiset is unchanged);
* a > b + 1 → −1 at the last index of a's run, +1 at the first of b's.

Run boundaries vectorize through counting comparisons:
first(x) = #{entries > x}, last(x) = #{entries ≥ x} − 1, per row.

Used by E8-style unfairness sweeps at large n, where R Python-level
simulators would dominate the wall clock.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["BatchEdgeProcess"]


class BatchEdgeProcess:
    """R replicas of the greedy (optionally lazy) edge orientation chain."""

    def __init__(
        self,
        start,
        replicas: int,
        *,
        lazy: bool = False,
        seed: SeedLike = None,
    ):
        d = np.sort(np.asarray(list(start), dtype=np.int64))[::-1]
        if d.ndim != 1 or d.shape[0] < 2:
            raise ValueError("state must be a vector of >= 2 discrepancies")
        if int(d.sum()) != 0:
            raise ValueError(f"discrepancies must sum to 0, got {int(d.sum())}")
        replicas = check_positive_int("replicas", replicas)
        self._D = np.tile(d, (replicas, 1))
        self._R = replicas
        self._n = int(d.shape[0])
        self._rows = np.arange(replicas)
        self.lazy = bool(lazy)
        self._rng = as_generator(seed)
        self._t = 0

    @property
    def replicas(self) -> int:
        """Number of replicas R."""
        return self._R

    @property
    def n(self) -> int:
        """Vertices per replica."""
        return self._n

    @property
    def t(self) -> int:
        """Arrivals processed."""
        return self._t

    @property
    def discrepancies(self) -> np.ndarray:
        """The live (R, n) descending discrepancy matrix (read-only use)."""
        return self._D

    def unfairness(self) -> np.ndarray:
        """Per-replica max |discrepancy| (descending rows: ends suffice)."""
        return np.maximum(self._D[:, 0], -self._D[:, -1])

    def step(self) -> None:
        """One arrival in every replica."""
        rng = self._rng
        D = self._D
        R, n = self._R, self._n
        rows = self._rows
        if self.lazy:
            active = rng.random(R) < 0.5
        else:
            active = np.ones(R, dtype=bool)
        phi = rng.integers(0, n, size=R)
        psi = rng.integers(0, n - 1, size=R)
        psi += psi >= phi
        lo_rank = np.minimum(phi, psi)
        hi_rank = np.maximum(phi, psi)
        a = D[rows, lo_rank]  # larger (or equal) discrepancy
        b = D[rows, hi_rank]
        equal = active & (a == b)
        skip = a == b + 1  # multiset no-op
        general = active & ~equal & ~skip

        if equal.any():
            vals = a[equal]
            sub = D[equal]
            lo = (sub > vals[:, None]).sum(axis=1)
            hi = (sub >= vals[:, None]).sum(axis=1) - 1
            r_idx = rows[equal]
            D[r_idx, lo] += 1
            D[r_idx, hi] -= 1
        if general.any():
            va = a[general]
            vb = b[general]
            sub = D[general]
            hi_a = (sub >= va[:, None]).sum(axis=1) - 1
            lo_b = (sub > vb[:, None]).sum(axis=1)
            r_idx = rows[general]
            D[r_idx, hi_a] -= 1
            D[r_idx, lo_b] += 1
        self._t += 1

    def _obs_account(self, steps: int) -> None:
        """Bulk-count *steps* fleet arrivals (only called when obs is enabled)."""
        reg = obs.metrics()
        reg.counter("edge_batch.steps").inc(steps)
        reg.counter("edge_batch.replica_arrivals").inc(steps * self._R)

    def run(self, steps: int) -> "BatchEdgeProcess":
        """Advance all replicas by *steps* arrivals; returns self."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        if not obs.enabled():
            for _ in range(steps):
                self.step()
            return self
        with obs.span("edge_batch/run", steps=steps, replicas=self._R):
            for _ in range(steps):
                self.step()
        self._obs_account(steps)
        return self

    def mean_unfairness(self, steps: int, *, burn_in: int = 0, every: int = 1) -> float:
        """Pooled time-average unfairness across replicas.

        Under observability the fleet-mean unfairness is recorded at
        each sampled point (series ``edge_batch/unfairness``).
        """
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.run(burn_in)
        observing = obs.enabled()
        total = 0.0
        count = 0
        for k in range(1, steps + 1):
            self.step()
            if k % every == 0:
                mean = float(self.unfairness().mean())
                total += mean
                count += 1
                if observing:
                    obs.record_sample("edge_batch/unfairness", self._t, mean)
        if observing:
            self._obs_account(steps)
        if count == 0:
            raise ValueError("steps too small for the chosen every")
        return total / count

    def __repr__(self) -> str:
        return (
            f"BatchEdgeProcess(R={self._R}, n={self._n}, lazy={self.lazy}, "
            f"t={self._t})"
        )
