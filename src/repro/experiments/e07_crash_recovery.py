"""E7 — §1.1 Dynamic Resource Allocation: recovery from a crash.

The application headline: with n jobs on n servers, after an arbitrary
crash the max load returns to the typical band within O(n ln n) steps
when jobs terminate at random (scenario A) and O(n² ln n) when servers
finish jobs at random (scenario B).  We start from the all-in-one-bin
crash, define "recovered" as max load ≤ (stationary 95%-quantile + 1),
and measure the hitting time across a size sweep.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.maxload import typical_max_load_target
from repro.analysis.recovery_measure import recovery_times_balls
from repro.analysis.scaling import fit_power_law
from repro.balls.load_vector import LoadVector
from repro.balls.rules import ABKURule
from repro.balls.scenario_a import ScenarioAProcess
from repro.balls.scenario_b import ScenarioBProcess
from repro.engine.spec import scenario_a_spec, scenario_b_spec
from repro.experiments.base import ExperimentResult, check_scale, main_for, select_engine
from repro.utils.tables import Table

EXPERIMENT_ID = "E7"
TITLE = "Crash recovery of n jobs on n servers (scenario A vs B)"

# Scenario B needs O(n² ln n) steps, so only scenario A's paper sweep
# reaches n = 16384 (sizes are appended, so each keeps its seed + k).
_PRESETS = {
    "smoke": dict(sizes=dict(a=(16, 32, 64), b=(16, 32, 64)), replicas=10),
    "paper": dict(
        sizes=dict(a=(32, 64, 128, 256, 1024, 4096, 16384), b=(32, 64, 128, 256)),
        replicas=30,
    ),
}


def run(scale: str = "smoke", seed: int = 0) -> ExperimentResult:
    """Run E7 at the given scale preset."""
    p = _PRESETS[check_scale(scale)]
    rule = ABKURule(2)
    tables = []
    data: dict = {}
    for scenario, spec_builder, make, shape, shape_name in (
        ("a", scenario_a_spec,
         lambda n: (lambda rng: ScenarioAProcess(rule, LoadVector.random(n, n, rng), seed=rng)),
         lambda n: n * np.log(n), "n ln n"),
        ("b", scenario_b_spec,
         lambda n: (lambda rng: ScenarioBProcess(rule, LoadVector.random(n, n, rng), seed=rng)),
         lambda n: n * n * np.log(n), "n^2 ln n"),
    ):
        # Engine by scale: smoke keeps the scalar reference path, paper
        # sweeps move to the vectorized (R, n) stepper.
        engine = select_engine(spec_builder(rule), scale, replicas=p["replicas"])
        t = Table(
            ["n=m", "target load", "median T", "q95 T", shape_name,
             f"median/({shape_name})"],
            title=f"scenario {scenario.upper()}: crash-recovery hitting times",
        )
        # The vectorized engine advances 128 phases per kernel call; the
        # hitting times do not depend on the batch.
        batch = 128 if engine.name == "vectorized" else 1
        sizes = p["sizes"][scenario]
        medians = []
        for k, n in enumerate(sizes):
            target = typical_max_load_target(
                make(n),
                burn_in=10 * n,
                samples=20,
                spacing=n,
                replicas=2,
                seed=seed + k,
            )
            times = recovery_times_balls(
                rule, n, n, target,
                scenario=scenario,
                replicas=p["replicas"],
                engine=engine.name,
                seed=seed + 100 + k,
                batch=batch,
            ).astype(np.float64)
            if (times < 0).any():
                raise RuntimeError(f"recovery cap hit at n={n}")
            med = float(np.median(times))
            medians.append(med)
            sh = float(shape(n))
            t.add_row([n, target, med, float(np.quantile(times, 0.95)), sh, med / sh])
        tables.append(t)
        fit = fit_power_law(list(sizes), medians)
        data[f"scenario_{scenario}"] = {
            "sizes": list(sizes),
            "medians": medians,
            "exponent": fit.exponent,
        }
    ea = data["scenario_a"]["exponent"]
    eb = data["scenario_b"]["exponent"]
    verdict = (
        f"recovery exponents: scenario A {ea:.2f} (theory 1 + log factors, "
        f"bound O(n ln n)), scenario B {eb:.2f} (bound O(n^2 ln n)); "
        "A recovers dramatically faster, matching the paper's application claim"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        scale=scale,
        verdict=verdict,
        tables=tables,
        data=data,
    )


if __name__ == "__main__":
    main_for(run)
