"""The edge orientation problem of Ajtai et al. (§2, §6 of the paper).

Undirected edges over n vertices arrive one by one (i.u.r. pairs); each
must be oriented on arrival.  The *greedy protocol* orients each new
edge from the endpoint with smaller (outdegree − indegree) to the one
with larger.  *Unfairness* is max_v |outdeg(v) − indeg(v)|; Ajtai et al.
showed the greedy protocol keeps the expected unfairness at Θ(log log n)
in the limit, and the paper bounds its recovery time by O(n² ln² n)
(Theorem 2), improving Ajtai et al.'s O(n⁵).

Modules:

* :mod:`repro.edgeorient.state` — discrepancy vectors, the x-vector
  class representation of §6, and the reachable state space Ψ;
* :mod:`repro.edgeorient.greedy` — the greedy protocol simulator and
  the lazy Markov chain of §6 (Remark 1: the bit b makes it ergodic at
  the cost of a ~2× slowdown);
* :mod:`repro.edgeorient.chain` — the exact lazy-chain kernel on Ψ for
  small n;
* :mod:`repro.edgeorient.metric` — the path-coupling metric Δ of
  Definitions 6.1–6.3, computed exactly as a weighted shortest path;
* :mod:`repro.edgeorient.carpool` — the Fagin–Williams carpool problem
  and the Ajtai et al. fairness reduction (§1.1).
"""

from repro.edgeorient.carpool import CarpoolSimulator
from repro.edgeorient.chain import edge_orientation_kernel
from repro.edgeorient.greedy import EdgeOrientationProcess
from repro.edgeorient.metric import EdgeOrientationMetric
from repro.edgeorient.state import (
    class_of_discrepancy,
    discrepancies_to_xvector,
    discrepancy_of_class,
    enumerate_reachable_states,
    xvector_to_discrepancies,
    zero_state,
)

__all__ = [
    "CarpoolSimulator",
    "EdgeOrientationMetric",
    "EdgeOrientationProcess",
    "class_of_discrepancy",
    "discrepancies_to_xvector",
    "discrepancy_of_class",
    "edge_orientation_kernel",
    "enumerate_reachable_states",
    "xvector_to_discrepancies",
    "zero_state",
]
