"""Ergodicity checks: irreducibility and aperiodicity.

The Path Coupling Lemma applies to ergodic chains; the paper introduces
the lazy bit b into the edge-orientation chain *specifically* to ensure
ergodicity (Remark 1).  These graph-theoretic checks (via networkx on
the support digraph) let the tests machine-verify that hypothesis for
every exact kernel we build.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

import numpy as np

from repro.markov.chain import FiniteMarkovChain

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["support_digraph", "is_irreducible", "period", "is_aperiodic", "is_ergodic"]


def support_digraph(chain: FiniteMarkovChain, *, tol: float = 0.0) -> nx.DiGraph:
    """Digraph with an edge i→j whenever P[i, j] > tol."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(chain.size))
    rows, cols = np.nonzero(chain.P > tol)
    g.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return g


def is_irreducible(chain: FiniteMarkovChain) -> bool:
    """True iff the support digraph is strongly connected."""
    import networkx as nx

    return nx.is_strongly_connected(support_digraph(chain))


def period(chain: FiniteMarkovChain) -> int:
    """The period of an irreducible chain: gcd of all cycle lengths.

    Computed by the standard BFS level trick: the gcd of
    (level(u) + 1 − level(v)) over all edges u→v within one strongly
    connected exploration.
    """
    import networkx as nx

    g = support_digraph(chain)
    if not nx.is_strongly_connected(g):
        raise ValueError("period is only defined for irreducible chains")
    levels = {0: 0}
    queue = [0]
    g_period = 0
    while queue:
        u = queue.pop()
        for v in g.successors(u):
            if v not in levels:
                levels[v] = levels[u] + 1
                queue.append(v)
            else:
                g_period = gcd(g_period, levels[u] + 1 - levels[v])
    return abs(g_period) if g_period != 0 else 0


def is_aperiodic(chain: FiniteMarkovChain) -> bool:
    """True iff the (irreducible) chain has period 1."""
    return period(chain) == 1


def is_ergodic(chain: FiniteMarkovChain) -> bool:
    """Irreducible and aperiodic — the Path Coupling Lemma hypothesis."""
    import networkx as nx

    g = support_digraph(chain)
    if not nx.is_strongly_connected(g):
        return False
    return nx.is_aperiodic(g)
