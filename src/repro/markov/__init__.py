"""Finite Markov chain substrate (§3 of the paper).

The paper models every allocation process as an ergodic Markov chain on
the space Ω_m of normalized load vectors and studies its mixing time
τ(ε) = min{T : ∀t ≥ T, max_x ||L(M_t | M_0 = x) − π||_TV ≤ ε}.  For
small (n, m) we can do all of this *exactly*:

* :mod:`repro.markov.chain` — the :class:`FiniteMarkovChain` container;
* :mod:`repro.markov.exact` — exact transition kernels of I_A / I_B with
  any scheduling rule, and of the bounded open system;
* :mod:`repro.markov.stationary` — stationary distribution solvers;
* :mod:`repro.markov.mixing` — exact total-variation decay d(t) and the
  exact mixing time τ(ε), the ground truth that experiment E9 compares
  against the path-coupling bounds;
* :mod:`repro.markov.spectral` — eigenvalue gap and relaxation time;
* :mod:`repro.markov.ergodicity` — irreducibility/aperiodicity checks
  (the ergodicity hypothesis of the Path Coupling Lemma).
"""

from repro.markov.chain import FiniteMarkovChain
from repro.markov.exact import (
    open_bounded_kernel,
    scenario_a_kernel,
    scenario_b_kernel,
)
from repro.markov.ergodicity import is_aperiodic, is_irreducible
from repro.markov.mixing import (
    exact_mixing_time,
    tv_decay,
    tv_distance,
)
from repro.markov.cftp import cftp_sample, cftp_samples
from repro.markov.conductance import cheeger_bounds, conductance
from repro.markov.hitting import expected_hitting_times, max_load_target_set
from repro.markov.product import build_coupled_chain_a, build_coupled_chain_b
from repro.markov.lower_bounds import reachability_lower_bound, relaxation_lower_bound
from repro.markov.spectral import relaxation_time, spectral_gap
from repro.markov.stationary import stationary_distribution

__all__ = [
    "FiniteMarkovChain",
    "build_coupled_chain_a",
    "build_coupled_chain_b",
    "cftp_sample",
    "cftp_samples",
    "cheeger_bounds",
    "conductance",
    "expected_hitting_times",
    "reachability_lower_bound",
    "relaxation_lower_bound",
    "max_load_target_set",
    "exact_mixing_time",
    "is_aperiodic",
    "is_irreducible",
    "open_bounded_kernel",
    "relaxation_time",
    "scenario_a_kernel",
    "scenario_b_kernel",
    "spectral_gap",
    "stationary_distribution",
    "tv_decay",
    "tv_distance",
]
