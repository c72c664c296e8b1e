"""The path-coupling metric Δ of Definitions 6.1–6.3, computed exactly.

The §6 analysis equips the reachable space Ψ (in the class-vector
representation) with a bespoke integer metric:

* y ∈ Ḡ(x)  (Definition 6.1):  x = y ± (e_λ − 2e_{λ+1} + e_{λ+2})
  — distance-1 pairs;
* y ∈ S̄_k(x) (Definition 6.2): x = y ± (e_λ − e_{λ+1} − e_{λ+k} +
  e_{λ+k+1}) with the k classes strictly between λ and λ+k+1 empty in
  the *larger* vector — distance-k pairs;
* Δ(x, y)  (Definition 6.3): the induced shortest-path distance, with
  Ḡ hops costing 1 and a single terminal S̄_k hop costing k.

Γ = Ḡ ∪ ⋃_k S̄_k is the set of pairs the §6 coupling is defined on.
This module enumerates Γ and computes Δ exactly (Dijkstra on the
weighted pair graph) for small n, which is what lets the tests
machine-verify Claim 6.1 (Δ is a metric) and Lemmas 6.2–6.3 (the
coupling contracts on Γ).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.edgeorient.state import (
    discrepancies_to_xvector,
    enumerate_reachable_states,
    num_classes,
)

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["EdgeOrientationMetric"]

XVec = tuple[int, ...]


def _apply(x: XVec, deltas: dict[int, int]) -> XVec | None:
    """Apply class-count deltas (0-based positions); None if any count < 0."""
    lst = list(x)
    for pos, dv in deltas.items():
        if pos < 0 or pos >= len(lst):
            return None
        lst[pos] += dv
        if lst[pos] < 0:
            return None
    return tuple(lst)


class EdgeOrientationMetric:
    """Exact Δ on the reachable space Ψ for a fixed vertex count n.

    Intended for small n (|Ψ| grows quickly); everything is precomputed
    at construction: Ψ in both representations, the Ḡ adjacency, the
    S̄_k pair list, and all-pairs Δ.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("edge orientation needs n >= 2")
        self.n = n
        self.k_classes = num_classes(n)
        disc_states = enumerate_reachable_states(n)
        self.states: list[XVec] = [
            discrepancies_to_xvector(s, n) for s in disc_states
        ]
        self.disc_states = disc_states
        self._index = {x: i for i, x in enumerate(self.states)}
        self._in_psi = set(self.states)
        self._g_edges = self._build_g_edges()
        self._s_pairs = self._build_s_pairs()
        self._dist = self._all_pairs_delta()

    # -- Γ construction -------------------------------------------------------

    def g_neighbors(self, x: XVec) -> list[XVec]:
        """Ḡ(x): distance-1 neighbors per Definition 6.1 (both signs)."""
        out = []
        k = self.k_classes
        for lam in range(0, k - 2):  # 0-based λ, pattern spans λ, λ+1, λ+2
            for sign in (+1, -1):
                # x = y + sign·(e_λ − 2e_{λ+1} + e_{λ+2})  ⇒  y = x − sign·(…)
                y = _apply(x, {lam: -sign, lam + 1: 2 * sign, lam + 2: -sign})
                if y is not None and y in self._in_psi and y != x:
                    out.append(y)
        return out

    def s_pairs_of(self, x: XVec) -> list[tuple[XVec, int]]:
        """All (y, k) with y ∈ S̄_k(x), k ≥ 1 (Definition 6.2, both signs)."""
        out = []
        kc = self.k_classes
        for k in range(1, kc - 1):
            for lam in range(0, kc - k - 1):  # pattern spans λ … λ+k+1
                # Forward: x = y + e_λ − e_{λ+1} − e_{λ+k} + e_{λ+k+1},
                # zeros in x between λ and λ+k+1 exclusive.
                if all(x[i] == 0 for i in range(lam + 1, lam + k + 1)):
                    y = _apply(
                        x, {lam: -1, lam + 1: +1, lam + k: +1, lam + k + 1: -1}
                    )
                    if y is not None and y in self._in_psi and y != x:
                        out.append((y, k))
                # Backward: x = y − e_λ + e_{λ+1} + e_{λ+k} − e_{λ+k+1},
                # zeros in y between λ and λ+k+1 exclusive.
                y = _apply(x, {lam: +1, lam + 1: -1, lam + k: -1, lam + k + 1: +1})
                if (
                    y is not None
                    and y in self._in_psi
                    and y != x
                    and all(y[i] == 0 for i in range(lam + 1, lam + k + 1))
                ):
                    out.append((y, k))
        return out

    def _build_g_edges(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.states)
        for x in self.states:
            for y in self.g_neighbors(x):
                g.add_edge(x, y)
        return g

    def _build_s_pairs(self) -> dict[tuple[XVec, XVec], int]:
        pairs: dict[tuple[XVec, XVec], int] = {}
        for x in self.states:
            for y, k in self.s_pairs_of(x):
                key = (x, y)
                if key not in pairs or pairs[key] > k:
                    pairs[key] = k
        return pairs

    # -- Δ computation ---------------------------------------------------------

    def _all_pairs_delta(self) -> dict[tuple[XVec, XVec], float]:
        """Definition 6.3 distance for all pairs.

        Δ is the shortest-path closure of the Γ weights: Ḡ hops cost 1,
        S̄_k hops cost k, hops compose freely.  (A literal last-hop-only
        reading of the recursion in Definition 6.3 fails the triangle
        inequality at n = 6, so Claim 6.1 forces the closure reading;
        the two coincide on Γ pairs — asserted by
        :meth:`check_gamma_distances` in the tests.)
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.states)
        for x, y in self._g_edges.edges():
            g.add_edge(x, y, weight=1)
        for (x, y), k in self._s_pairs.items():
            if g.has_edge(x, y):
                g[x][y]["weight"] = min(g[x][y]["weight"], k)
            else:
                g.add_edge(x, y, weight=k)
        dist = dict(nx.all_pairs_dijkstra_path_length(g, weight="weight"))
        out: dict[tuple[XVec, XVec], float] = {}
        inf = float("inf")
        for x in self.states:
            dx = dist.get(x, {})
            for y in self.states:
                out[(x, y)] = float(dx.get(y, inf))
        return out

    def check_gamma_distances(self) -> None:
        """Assert every Γ pair's closure distance equals its nominal weight.

        This is what makes the closure metric interchangeable with the
        paper's Γ weights in the Path Coupling Lemma (additive path
        decompositions use the nominal weights).
        """
        for x, y, k in self.gamma_pairs():
            d = self._dist[(x, y)]
            if d != k:
                raise AssertionError(
                    f"Γ pair ({x}, {y}) has closure distance {d} != nominal {k}"
                )

    def delta(self, x: XVec, y: XVec) -> float:
        """Δ(x, y); ``inf`` if y is unreachable from x through Γ."""
        if x not in self._in_psi or y not in self._in_psi:
            raise KeyError("state not in the reachable space Ψ")
        return self._dist[(x, y)]

    def gamma_pairs(self) -> Iterator[tuple[XVec, XVec, int]]:
        """All ordered pairs in Γ with their nominal distance.

        Ḡ pairs come with distance 1; S̄_k pairs with distance k.  The
        §6 coupling (and Lemmas 6.2/6.3) quantifies over exactly these.
        """
        seen: set[tuple[XVec, XVec]] = set()
        for x in self.states:
            for y in self.g_neighbors(x):
                if (x, y) not in seen:
                    seen.add((x, y))
                    yield x, y, 1
        for (x, y), k in self._s_pairs.items():
            if (x, y) not in seen:
                seen.add((x, y))
                yield x, y, k

    # -- diagnostics -----------------------------------------------------------

    def max_distance(self) -> float:
        """D = max Δ over Ψ × Ψ (the paper notes it is O(n²))."""
        return max(self._dist.values())

    def check_metric(self) -> None:
        """Machine-check of Claim 6.1: Δ is a finite metric on Ψ × Ψ.

        Raises ``AssertionError`` with a counterexample on failure.
        """
        states = self.states
        d = self._dist
        for x in states:
            assert d[(x, x)] == 0.0, f"Δ({x},{x}) != 0"
            for y in states:
                if x != y:
                    assert d[(x, y)] > 0, f"Δ({x},{y}) = 0 for x != y"
                assert d[(x, y)] < float("inf"), f"Δ({x},{y}) infinite"
                assert d[(x, y)] == d[(y, x)], f"asymmetry at ({x},{y})"
        for x in states:
            for y in states:
                for z in states:
                    if d[(x, z)] > d[(x, y)] + d[(y, z)] + 1e-9:
                        raise AssertionError(
                            f"triangle inequality fails: Δ({x},{z}) > "
                            f"Δ({x},{y}) + Δ({y},{z})"
                        )
