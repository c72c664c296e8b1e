"""Measurement harness: the statistics layer behind the experiments.

* :mod:`repro.analysis.stats` — quantiles, bootstrap confidence
  intervals, "w.h.p." empirical verdicts, and the hypothesis tests
  (chi-square GOF, two-sample KS, Holm–Bonferroni) behind the
  :mod:`repro.verify` acceptance battery;
* :mod:`repro.analysis.scaling` — least-squares fits of measured times
  against candidate shapes (m·ln m, n·m², n²·ln²n, …) and power-law
  exponent estimation;
* :mod:`repro.analysis.maxload` — stationary max-load estimation and
  empirical tail profiles (the quantities the fluid substrate
  predicts);
* :mod:`repro.analysis.recovery_measure` — recovery-from-crash times:
  steps until the max load (or unfairness) re-enters the typical band;
* :mod:`repro.analysis.coalescence` — replica sweeps of the grand
  coupling coalescence times across sizes.
"""

from repro.analysis.coalescence import CoalescenceSweep, sweep_coalescence
from repro.analysis.diagnose import ChainDiagnostics, diagnose
from repro.analysis.maxload import empirical_tail, stationary_max_load
from repro.analysis.recovery_measure import recovery_times_balls
from repro.analysis.scaling import fit_power_law, fit_shape, shape_ratio_table
from repro.analysis.stats import (
    bootstrap_ci,
    chi_square_gof,
    holm_bonferroni,
    ks_two_sample,
    summarize,
)

__all__ = [
    "ChainDiagnostics",
    "CoalescenceSweep",
    "diagnose",
    "bootstrap_ci",
    "chi_square_gof",
    "holm_bonferroni",
    "ks_two_sample",
    "empirical_tail",
    "fit_power_law",
    "fit_shape",
    "recovery_times_balls",
    "shape_ratio_table",
    "stationary_max_load",
    "summarize",
    "sweep_coalescence",
]
