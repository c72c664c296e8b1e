#!/usr/bin/env python
"""ADAP(χ) design space: sampling cost vs balance vs recovery.

Theorem 1 says every right-oriented rule recovers in ⌈m ln(m/ε)⌉ steps
— the *rate* is free, so a system designer chooses χ purely on the
trade-off between sampling cost (probes per placement) and balance
(stationary max load).  This example sweeps that design space for
n = m = 256:

* ABKU[1] (no choice), ABKU[2], ABKU[4];
* a threshold rule: probe once, escalate to 3 probes only if the
  candidate already holds ≥ 2 jobs (cheap when the system is healthy);
* a linear rule χ_ℓ = ℓ + 1 (effort grows with observed load).

For each: mean probes per placement, stationary max load, and measured
crash recovery — all under the single Theorem 1 budget.
"""

import numpy as np

from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule, AdaptiveRule, linear_chi, threshold_chi
from repro.balls.scenario_a import ScenarioAProcess
from repro.coupling.recovery import theorem1_bound
from repro.utils.tables import Table

N = M = 256
SEED = 17


def mean_probes(rule, v, trials=4000, seed=0):
    """Empirical probes per placement (source draws consumed)."""
    rng = np.random.default_rng(seed)
    if isinstance(rule, ABKURule):
        return float(rule.d)
    total = 0
    n = v.shape[0]
    for _ in range(trials):
        p = -1
        t = 0
        while True:
            t += 1
            b = int(rng.integers(0, n))
            if b > p:
                p = b
            if rule.chi(int(v[p])) <= t:
                break
        total += t
    return total / trials


def main() -> None:
    rules = [
        ("ABKU[1] (no choice)", ABKURule(1)),
        ("ABKU[2]", ABKURule(2)),
        ("ABKU[4]", ABKURule(4)),
        ("threshold 1->3 @2", AdaptiveRule(threshold_chi(1, 3, 2), name="thr")),
        ("linear l+1", AdaptiveRule(linear_chi(1, 1), name="lin")),
    ]
    budget = theorem1_bound(M)
    t = Table(
        ["rule", "probes/placement", "stationary max load",
         f"crash recovery (steps, budget {budget})"],
        title=f"ADAP design space at n = m = {N}",
    )
    for name, rule in rules:
        # Stationary state + probe cost.
        proc = ScenarioAProcess(rule, LoadVector.random(M, N, SEED), seed=SEED)
        proc.run(20 * M)
        probes = mean_probes(rule, proc.loads, seed=SEED)
        stat_load = proc.max_load
        # Crash recovery.
        crash = ScenarioAProcess(rule, LoadVector.all_in_one(M, N), seed=SEED + 1)
        steps = crash.run_until(stat_load + 1, budget * 4)
        t.add_row([name, probes, stat_load, steps])
    print(t.render())
    print()
    print(f"Theorem 1 budget tau(1/4) = {budget} covers every rule: the")
    print("recovery rate is rule-independent; only cost and balance differ.")


if __name__ == "__main__":
    main()
