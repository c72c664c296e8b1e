"""Scheduling rules: Uniform, ABKU[d] and ADAP(χ) (§2 of the paper).

A *scheduling rule* decides, given the current normalized load vector v,
into which (normalized) bin index the next ball goes.  The paper
formalizes rules as *random functions* 𝒟 = (RS, ℝS, D̄, 𝒟): a source
space RS, a random source generator ℝS, and a deterministic map
D̄ : Ω × RS → [n] (§3.2).  For all rules in the paper the source is the
i.u.r. sequence b = (b₁, b₂, …) of bin indices, and the permutation
Φ_D of Definition 3.4 is the identity (Lemma 3.4), which we inherit here.

Rules implemented:

* :class:`UniformRule` — classical single-choice (d = 1);
* :class:`ABKURule` — Azar–Broder–Karlin–Upfal: pick d bins i.u.r. with
  replacement, place in the least full.  In normalized coordinates
  (descending loads) the least full of the sampled bins is the one with
  the *largest index*, so ``D̄(v, b) = max{b₁, …, b_d}`` and the exact
  insertion law has the closed form
  ``Pr[index = i] = ((i+1)/n)^d − (i/n)^d`` (0-based), independent of v;
* :class:`AdaptiveRule` — Czumaj–Stemann ADAP(χ) for a nondecreasing
  positive integer sequence χ = (χ₀, χ₁, …): keep sampling bins; after M
  samples let p be the least-full sampled bin (largest index) with load
  ℓ; stop as soon as χ_ℓ ≤ M.  ABKU[d] is exactly ADAP(χ ≡ d).

All three are right-oriented (Lemma 3.4) — checked exhaustively by
:func:`repro.balls.right_oriented.check_right_oriented` in the tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence, Union

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "SchedulingRule",
    "UniformRule",
    "ABKURule",
    "AdaptiveRule",
    "RandomWalkRule",
    "make_rule",
    "constant_chi",
    "geometric_chi",
    "threshold_chi",
    "linear_chi",
]

ChiLike = Union[Callable[[int], int], Sequence[int]]


# ---------------------------------------------------------------------------
# χ schedules for ADAP(χ)
# ---------------------------------------------------------------------------

def constant_chi(d: int) -> Callable[[int], int]:
    """χ_ℓ ≡ d: the schedule making ADAP(χ) coincide with ABKU[d]."""
    d = check_positive_int("d", d)
    return lambda load: d


def threshold_chi(low: int, high: int, cutoff: int) -> Callable[[int], int]:
    """χ_ℓ = low below *cutoff*, high at or above — a two-level adaptive rule.

    Models 'sample harder only when the candidate bin is already loaded'.
    Requires 1 <= low <= high so χ stays nondecreasing.
    """
    low = check_positive_int("low", low)
    high = check_positive_int("high", high)
    if low > high:
        raise ValueError(f"threshold_chi needs low <= high, got {low} > {high}")
    return lambda load: low if load < cutoff else high


def linear_chi(slope: int = 1, offset: int = 1) -> Callable[[int], int]:
    """χ_ℓ = slope·ℓ + offset — sampling effort grows with candidate load."""
    slope = check_positive_int("slope", slope) if slope != 0 else 0
    offset = check_positive_int("offset", offset)
    return lambda load: slope * load + offset


def geometric_chi(base: int = 2, cap: int = 64) -> Callable[[int], int]:
    """χ_ℓ = min(base^ℓ, cap) — sampling effort doubles with each load level.

    The capped growth keeps source lengths bounded (ADAP terminates by
    χ at the max load); base ≥ 2 and cap ≥ 1 required.
    """
    base = check_positive_int("base", base)
    if base < 2:
        raise ValueError(f"geometric_chi needs base >= 2, got {base}")
    cap = check_positive_int("cap", cap)
    return lambda load: min(base ** load, cap)


def _as_chi(chi: ChiLike) -> Callable[[int], int]:
    if callable(chi):
        return chi
    seq = [int(x) for x in chi]
    if not seq:
        raise ValueError("chi sequence must be non-empty")
    last = seq[-1]

    def lookup(load: int) -> int:
        return seq[load] if load < len(seq) else last

    return lookup


# ---------------------------------------------------------------------------
# Rule base class
# ---------------------------------------------------------------------------

class SchedulingRule(ABC):
    """Abstract scheduling rule, reifying the paper's quadruple (RS, ℝS, D̄, 𝒟).

    A *source* ``rs`` is an int64 array of i.u.r. bin indices (a prefix
    of the infinite sequence b).  ``select_from_source`` is the
    deterministic D̄; ``select`` is the fast sampler 𝒟; ``phi`` is the
    permutation Φ_D of Definition 3.4 (identity for all paper rules).
    """

    name: str = "rule"

    #: Vectorized inverse-transform insertion hook.  Rules whose
    #: insertion index is a single load-independent inverse-CDF draw
    #: (ABKU[d]) override this with a ``(n, u) -> indices`` method; the
    #: ``None`` default marks rules that need sequential sampling
    #: (ADAP(χ)) and keeps them off the vectorized engine — see
    #: :meth:`repro.engine.vectorized.VectorizedEngine.supports`.
    insertion_quantile_batch: Callable[[int, np.ndarray], np.ndarray] | None = None

    def insertion_quantile_batch_into(
        self, n: int, u: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``insertion_quantile_batch(n, u)`` written into *out*; returns *out*.

        For the RBB step's per-step scatter, whose draw is fleet-sized:
        implementations may use *u* as float work (its values are lost)
        and must write exactly the indices of
        :meth:`insertion_quantile_batch` — the differential harness pins
        the kernel bitwise to a row-by-row replay through that method.
        The base class falls back to the allocating path.
        """
        out[...] = self.insertion_quantile_batch(n, u)
        return out

    @abstractmethod
    def source_length(self, v: np.ndarray) -> int:
        """Number of source samples sufficient to evaluate D̄(v, ·)."""

    @abstractmethod
    def select_from_source(self, v: np.ndarray, rs: np.ndarray) -> int:
        """Deterministic D̄(v, rs): the normalized insertion index."""

    @abstractmethod
    def insertion_distribution(self, v: np.ndarray) -> np.ndarray:
        """Exact pmf over normalized indices 0..n-1 of the insertion index."""

    def draw_source(
        self, n: int, seed: SeedLike = None, length: int | None = None
    ) -> np.ndarray:
        """Draw a source prefix: *length* i.u.r. bin indices in [0, n)."""
        rng = as_generator(seed)
        if length is None:
            raise ValueError("length is required when no state is given")
        return rng.integers(0, n, size=int(length))

    def phi(self, rs: np.ndarray) -> np.ndarray:
        """Φ_D(rs) from Definition 3.4 — identity for all paper rules."""
        return rs

    def select(self, v: np.ndarray, seed: SeedLike = None) -> int:
        """Sample the insertion index 𝒟(v) (default: via an explicit source)."""
        rng = as_generator(seed)
        rs = self.draw_source(v.shape[0], rng, length=self.source_length(v))
        return self.select_from_source(v, rs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Concrete rules
# ---------------------------------------------------------------------------

class ABKURule(SchedulingRule):
    """ABKU[d]: place the ball in the least full of d i.u.r. bins."""

    def __init__(self, d: int):
        self.d = check_positive_int("d", d)
        self.name = f"abku[{self.d}]"

    def source_length(self, v: np.ndarray) -> int:
        return self.d

    def select_from_source(self, v: np.ndarray, rs: np.ndarray) -> int:
        if rs.shape[0] < self.d:
            raise ValueError(
                f"source too short for ABKU[{self.d}]: {rs.shape[0]} < {self.d}"
            )
        # Normalized coordinates: least-full sampled bin = largest index.
        return int(rs[: self.d].max())

    def insertion_distribution(self, v: np.ndarray) -> np.ndarray:
        n = v.shape[0]
        i = np.arange(1, n + 1, dtype=np.float64)
        cdf = (i / n) ** self.d
        pmf = np.empty(n, dtype=np.float64)
        pmf[0] = cdf[0]
        pmf[1:] = np.diff(cdf)
        return pmf

    def select(self, v: np.ndarray, seed: SeedLike = None) -> int:
        # Inverse-transform shortcut: max of d uniforms on [n] equals
        # floor(n·U^{1/d}) in distribution (one draw instead of d).
        rng = as_generator(seed)
        n = v.shape[0]
        j = int(n * float(rng.random()) ** (1.0 / self.d))
        return min(j, n - 1)

    def insertion_quantile_batch(self, n: int, u: np.ndarray) -> np.ndarray:
        """Vectorized inverse-transform insertion: ⌊n·u^{1/d}⌋, clipped.

        Load-independent — the property that makes ABKU[d] specs
        eligible for the vectorized engine.
        """
        return np.minimum((n * u ** (1.0 / self.d)).astype(np.int64), n - 1)

    def insertion_quantile_batch_into(
        self, n: int, u: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        # In place, the same integers bit for bit: ``u **= 1/d`` takes
        # the operator's fast paths (sqrt for d = 2) exactly as
        # ``u ** (1/d)`` does, the product commutes, and the unsafe cast
        # truncates as ``astype`` does.
        u **= 1.0 / self.d
        u *= n
        np.copyto(out, u, casting="unsafe")
        return np.minimum(out, n - 1, out=out)

    def __repr__(self) -> str:
        return f"ABKURule(d={self.d})"


class UniformRule(ABKURule):
    """Classical single-choice allocation (ABKU[1])."""

    def __init__(self) -> None:
        super().__init__(1)
        self.name = "uniform"

    def __repr__(self) -> str:
        return "UniformRule()"


class AdaptiveRule(SchedulingRule):
    """ADAP(χ) of Czumaj & Stemann (§2).

    ``chi`` maps a load ℓ to the sample budget χ_ℓ (a nondecreasing
    sequence of positive integers; validated lazily on the loads seen).
    The rule samples bins one at a time; after M samples, with p the
    least-full sampled bin (largest normalized index) of load ℓ = v_p,
    it stops and places the ball in p as soon as χ_ℓ ≤ M.
    """

    def __init__(self, chi: ChiLike, *, name: str | None = None):
        self._chi_raw = chi
        self.chi = _as_chi(chi)
        self.name = name or "adap"

    def _chi_at(self, load: int) -> int:
        x = int(self.chi(int(load)))
        if x < 1:
            raise ValueError(f"chi({load}) = {x}; χ must be positive")
        return x

    def source_length(self, v: np.ndarray) -> int:
        # The candidate index p only increases and v is descending, so
        # the threshold χ_{v_p} only shrinks over time; the process
        # stops no later than step χ_{v_0} (the threshold at max load).
        return self._chi_at(int(v[0]))

    def select_from_source(self, v: np.ndarray, rs: np.ndarray) -> int:
        p = -1
        for t in range(rs.shape[0]):
            b = int(rs[t])
            if b > p:
                p = b
            if self._chi_at(int(v[p])) <= t + 1:
                return p
        raise ValueError(
            f"source of length {rs.shape[0]} exhausted before ADAP stopped "
            f"(needs up to {self.source_length(v)})"
        )

    def select(self, v: np.ndarray, seed: SeedLike = None) -> int:
        rng = as_generator(seed)
        n = v.shape[0]
        p = -1
        t = 0
        while True:
            t += 1
            b = int(rng.integers(0, n))
            if b > p:
                p = b
            if self._chi_at(int(v[p])) <= t:
                return p

    def insertion_distribution(self, v: np.ndarray) -> np.ndarray:
        """Exact insertion pmf by dynamic programming over (step, max index).

        The running state after t samples is the current max index p.
        The max-of-uniforms update sends mass Q(p)·(p+1)/n to p and
        Σ_{p'<p} Q(p')·(1/n) to p; mass at p exits to the output as soon
        as χ_{v_p} ≤ t.
        """
        n = v.shape[0]
        out = np.zeros(n, dtype=np.float64)
        running = np.zeros(n, dtype=np.float64)  # mass by current max index
        thresholds = np.array([self._chi_at(int(v[i])) for i in range(n)])
        t = 0
        # First sample: uniform.
        t = 1
        running[:] = 1.0 / n
        stopped = thresholds <= t
        out[stopped] += running[stopped]
        running[stopped] = 0.0
        max_t = int(thresholds.max())
        while running.sum() > 0 and t < max_t:
            t += 1
            csum = np.concatenate(([0.0], np.cumsum(running)[:-1]))
            idx = np.arange(1, n + 1, dtype=np.float64)
            running = running * (idx / n) + csum / n
            stopped = thresholds <= t
            out[stopped] += running[stopped]
            running[stopped] = 0.0
        if running.sum() > 1e-12:
            raise RuntimeError("ADAP insertion DP failed to terminate")
        return out

    def __repr__(self) -> str:
        return f"AdaptiveRule(name={self.name!r})"


class RandomWalkRule(SchedulingRule):
    """Frieze–Petti random-walk allocation: capacitated bins on a graph.

    A ball arrives at an i.u.r. bin; if that bin already holds
    ``capacity`` balls, the ball performs a simple random walk on the
    graph (uniform neighbor per hop) until it reaches a bin below
    capacity, where it settles.  When *no* bin is free the ball settles
    at its arrival bin (saturated fallback), so placement always
    terminates and ball conservation holds.

    The graph lives over *normalized* positions (load-ranked vertices),
    which keeps the rule inside the paper's D̄ : Ω × RS → [n] formalism
    — the same vertex-set convention the :mod:`repro.edgeorient` module
    uses, so one ``networkx`` graph can drive both an edge-orientation
    metric and this rule (see :meth:`from_graph`).  Because the
    insertion law depends on the loads (through the free set), the rule
    is sequential-only: ``insertion_quantile_batch`` stays ``None`` and
    the vectorized engine rejects it; the scalar and exact engines run
    it — the exact path via :meth:`insertion_distribution`, which
    solves the walk's absorption distribution as a linear system.

    *graph* is either a mapping ``vertex -> neighbors`` pinning the
    vertex count, or a callable ``n -> mapping`` building the graph
    lazily per state size (what registered specs need, since they run
    at many n); :meth:`cycle` is the lazy ring builder.
    """

    def __init__(
        self,
        graph: Union[dict, Callable[[int], dict]],
        capacity: int,
        *,
        name: str | None = None,
    ):
        self.capacity = check_positive_int("capacity", capacity)
        if callable(graph):
            self._builder = graph
        else:
            fixed = self._check_adjacency(graph)
            self._builder = lambda n: fixed
        self._adj_cache: dict[int, dict[int, tuple[int, ...]]] = {}
        self.name = name or f"walk[cap={self.capacity}]"

    @staticmethod
    def _check_adjacency(graph: dict) -> dict[int, tuple[int, ...]]:
        adj = {int(i): tuple(int(j) for j in nbrs) for i, nbrs in graph.items()}
        n = len(adj)
        if sorted(adj) != list(range(n)):
            raise ValueError("graph vertices must be exactly 0..n-1")
        for i, nbrs in adj.items():
            if not nbrs:
                raise ValueError(f"vertex {i} has no neighbors")
            for j in nbrs:
                if not 0 <= j < n or j == i:
                    raise ValueError(f"bad edge {i}->{j}")
                if i not in adj[j]:
                    raise ValueError(f"graph must be undirected: {i}->{j}")
        # Connectivity: a walk from any full bin must be able to reach
        # any free bin.
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != n:
            raise ValueError("graph must be connected")
        return adj

    @classmethod
    def cycle(cls, capacity: int, *, name: str | None = None) -> "RandomWalkRule":
        """Lazy ring C_n: works at whatever n the state has (n ≥ 3)."""

        def ring(n: int) -> dict[int, tuple[int, ...]]:
            if n < 3:
                raise ValueError(f"cycle walk needs n >= 3, got {n}")
            return {i: ((i - 1) % n, (i + 1) % n) for i in range(n)}

        return cls(ring, capacity, name=name or f"walk[C_n,cap={capacity}]")

    @classmethod
    def from_graph(cls, graph, capacity: int, *, name: str | None = None) -> "RandomWalkRule":
        """Build from a ``networkx``-style graph (nodes must be 0..n-1)."""
        adjacency = {i: tuple(graph.neighbors(i)) for i in graph.nodes}
        return cls(adjacency, capacity, name=name)

    def _adj(self, n: int) -> dict[int, tuple[int, ...]]:
        adj = self._adj_cache.get(n)
        if adj is None:
            adj = self._check_adjacency(self._builder(n))
            if len(adj) != n:
                raise ValueError(
                    f"rule {self.name!r} has a {len(adj)}-vertex graph; state has n={n}"
                )
            self._adj_cache[n] = adj
        return adj

    def source_length(self, v: np.ndarray) -> int:
        # One arrival draw plus a generous walk budget: the cover time
        # of a connected n-vertex graph is O(n^3) worst case, and the
        # ring (the common choice here) covers in Θ(n²); exhausting the
        # budget raises in select_from_source, as for ADAP.
        n = int(v.shape[0])
        return 1 + 16 * n * n

    def select_from_source(self, v: np.ndarray, rs: np.ndarray) -> int:
        n = int(v.shape[0])
        adj = self._adj(n)
        j = int(rs[0]) % n
        if not (v < self.capacity).any():
            return j
        for t in range(1, rs.shape[0]):
            if v[j] < self.capacity:
                return j
            nbrs = adj[j]
            j = nbrs[int(rs[t]) % len(nbrs)]
        if v[j] < self.capacity:
            return j
        raise ValueError(
            f"source of length {rs.shape[0]} exhausted before the walk settled"
        )

    def select(self, v: np.ndarray, seed: SeedLike = None) -> int:
        rng = as_generator(seed)
        n = int(v.shape[0])
        adj = self._adj(n)
        j = int(rng.integers(0, n))
        if not (v < self.capacity).any():
            return j
        hops = 0
        limit = self.source_length(v)
        while v[j] >= self.capacity:
            nbrs = adj[j]
            j = nbrs[int(rng.integers(0, len(nbrs)))]
            hops += 1
            if hops > limit:
                raise RuntimeError(
                    f"walk did not settle within {limit} hops (n={n})"
                )
        return j

    def insertion_distribution(self, v: np.ndarray) -> np.ndarray:
        """Exact settling pmf: uniform arrival + walk absorption.

        With F the free set (load < capacity), the walk restricted to
        the full bins is a substochastic matrix T and the one-hop
        full→free mass a matrix B; starting uniform, the settled
        distribution is  π_F + 1_full/n · (I − T)⁻¹ B  (expected-visits
        form).  (I − T) is invertible because the graph is connected
        and F is non-empty; with F empty the ball stays at arrival, so
        the law is uniform.
        """
        n = int(v.shape[0])
        adj = self._adj(n)
        free = np.asarray(v) < self.capacity
        out = np.full(n, 1.0 / n, dtype=np.float64)
        if free.all() or not free.any():
            return out
        full_idx = np.nonzero(~free)[0]
        free_idx = np.nonzero(free)[0]
        pos_full = {int(i): k for k, i in enumerate(full_idx)}
        pos_free = {int(i): k for k, i in enumerate(free_idx)}
        k = full_idx.size
        T = np.zeros((k, k), dtype=np.float64)
        B = np.zeros((k, free_idx.size), dtype=np.float64)
        for i in full_idx:
            row = pos_full[int(i)]
            nbrs = adj[int(i)]
            w = 1.0 / len(nbrs)
            for j in nbrs:
                if free[j]:
                    B[row, pos_free[int(j)]] += w
                else:
                    T[row, pos_full[int(j)]] += w
        visits = np.linalg.solve(np.eye(k) - T.T, np.full(k, 1.0 / n))
        result = np.zeros(n, dtype=np.float64)
        result[free_idx] = out[free_idx] + visits @ B
        return result

    def __repr__(self) -> str:
        return f"RandomWalkRule(name={self.name!r}, capacity={self.capacity})"


def make_rule(kind: str, **kwargs) -> SchedulingRule:
    """Factory: ``make_rule('abku', d=2)``, ``make_rule('uniform')``,
    ``make_rule('adap', chi=...)``, ``make_rule('walk', capacity=2)``."""
    kind = kind.lower()
    if kind == "uniform":
        return UniformRule()
    if kind == "abku":
        return ABKURule(kwargs.pop("d", 2))
    if kind == "adap":
        if "chi" not in kwargs:
            raise ValueError("make_rule('adap') requires chi=...")
        return AdaptiveRule(kwargs.pop("chi"), name=kwargs.pop("name", None))
    if kind == "walk":
        capacity = kwargs.pop("capacity", 2)
        graph = kwargs.pop("graph", None)
        name = kwargs.pop("name", None)
        if graph is None:
            return RandomWalkRule.cycle(capacity, name=name)
        return RandomWalkRule(graph, capacity, name=name)
    raise ValueError(f"unknown rule kind {kind!r}")
