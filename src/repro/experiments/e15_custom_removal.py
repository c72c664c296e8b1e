"""E15 — §7 generalized removal distributions.

The conclusion's first remark: the coupling technique applies to
processes that remove balls "according to other probability
distributions".  We sweep the power-law removal family
w(ℓ) = ℓ^γ — γ = 1 *is* scenario A, γ > 1 biases removal toward full
bins — plus the scenario-B indicator law, and measure (a) coalescence
under the shared-randomness coupling, (b) exact mixing on a small
instance, and (c) crash-recovery time.  Expected: the weight functions
recovering A and B reproduce those scenarios *exactly* (kernel
equality), and increasing γ monotonically speeds crash recovery
(removal pressure cooperates with the placement rule).
"""

from __future__ import annotations

import numpy as np

from repro.balls.custom_removal import (
    CustomRemovalProcess,
    coalescence_time_custom,
    custom_removal_kernel,
    weight_power,
    weight_scenario_a,
    weight_scenario_b,
)
from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule
from repro.experiments.base import ExperimentResult, check_scale, main_for
from repro.markov import exact_mixing_time, scenario_a_kernel, scenario_b_kernel
from repro.utils.rng import spawn_generators
from repro.utils.tables import Table

EXPERIMENT_ID = "E15"
TITLE = "Generalized removal laws (section 7): w(l) = l^gamma family"

_PRESETS = {
    "smoke": dict(n=32, replicas=10, gammas=(0.5, 1.0, 2.0, 4.0), kernel_nm=(3, 4)),
    "paper": dict(n=128, replicas=30, gammas=(0.5, 1.0, 2.0, 4.0, 8.0), kernel_nm=(4, 5)),
}


def run(scale: str = "smoke", seed: int = 0) -> ExperimentResult:
    """Run E15 at the given scale preset."""
    p = _PRESETS[check_scale(scale)]
    rule = ABKURule(2)
    n = m = p["n"]
    kn, km = p["kernel_nm"]

    # (a) exact reduction to scenarios A and B.
    ka = scenario_a_kernel(rule, kn, km)
    ka_custom = custom_removal_kernel(rule, weight_scenario_a, kn, km)
    gap_a = float(np.abs(ka.P - ka_custom.P).max())
    kb = scenario_b_kernel(rule, kn, km)
    kb_custom = custom_removal_kernel(rule, weight_scenario_b, kn, km)
    gap_b = float(np.abs(kb.P - kb_custom.P).max())

    t = Table(
        ["removal law", "median coalescence", "exact tau(1/4) (small)",
         "median crash recovery"],
        title=f"power-family removal at n=m={n} (small kernels at n={kn}, m={km})",
    )
    data: dict = {"kernel_gap_a": gap_a, "kernel_gap_b": gap_b}
    recov_by_gamma = []
    for gi, gamma in enumerate(p["gammas"]):
        w = weight_power(gamma)
        times = [
            coalescence_time_custom(
                rule, w, LoadVector.all_in_one(m, n), LoadVector.balanced(m, n),
                seed=seed + 37 * gi + r,
            )
            for r in range(p["replicas"])
        ]
        tau = exact_mixing_time(custom_removal_kernel(rule, w, kn, km), 0.25)
        recov = []
        for rng in spawn_generators(seed + 1000 + gi, p["replicas"]):
            proc = CustomRemovalProcess(rule, w, LoadVector.all_in_one(m, n), seed=rng)
            hit = proc.run_until(4, 10_000_000)
            if hit < 0:
                raise RuntimeError(f"recovery cap hit at gamma={gamma}")
            recov.append(hit)
        med_rec = float(np.median(recov))
        recov_by_gamma.append(med_rec)
        t.add_row([f"w(l)=l^{gamma}", float(np.median(times)), tau, med_rec])
        data[f"gamma={gamma}"] = {
            "median_coalescence": float(np.median(times)),
            "tau_small": tau,
            "median_recovery": med_rec,
        }
    data["recovery_monotone"] = all(
        b <= a * 1.15 for a, b in zip(recov_by_gamma, recov_by_gamma[1:])
    )
    verdict = (
        f"w(l)=l reproduces scenario A exactly (kernel gap {gap_a:.1e}) and "
        f"the indicator law reproduces scenario B (gap {gap_b:.1e}); "
        + ("crash recovery speeds up monotonically with gamma "
           "(removal pressure cooperates with the placement rule)"
           if data["recovery_monotone"]
           else "recovery is NOT monotone in gamma (unexpected)")
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        scale=scale,
        verdict=verdict,
        tables=[t],
        data=data,
    )


if __name__ == "__main__":
    main_for(run)
