"""Benchmark harness configuration.

Each experiment bench runs its driver once under pytest-benchmark
(rounds=1 — the experiments are internally replicated Monte Carlo
studies, so re-running them inside the timer would only re-measure the
same seeds) and prints the paper-style result table, which is what
EXPERIMENTS.md records.

The same ``test_bench_*`` functions are also executed by the unified
runner (``python -m repro bench run``, :mod:`repro.obs.bench`), which
supplies a pytest-benchmark-compatible timer and writes the
schema-versioned ``BENCH_*.json`` perf artifacts — keep fixture usage
within the set that runner supports (``benchmark``,
``experiment_bench``, ``tmp_path``) for any bench that should land on
the perf trajectory.

Setting ``REPRO_BENCH_PROFILE=<dir>`` wraps each experiment bench in
:func:`repro.obs.profile.profiled`, dropping one ``.pstats`` per
experiment into that directory and printing the top self-time table.

:func:`paired_overhead_ratio` is the one estimator behind every
``< 1.05`` overhead gate.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest


#: Interleaved (raw, guarded) pairs per overhead gate.  On a shared
#: 2-vCPU VM one pair's ratio spreads over 3-12% (interquartile range),
#: and timing each side longer (3.5 ms to 450 ms measured) barely
#: narrows it, so the median is made steady by the number of pairs: at
#: 15 a gate read up to 1.18 with nothing changed.
OVERHEAD_PAIRS = 151


def paired_overhead_ratio(raw, guarded):
    """Median of per-pair ``guarded / raw`` wall-time ratios.

    Each pair times both callables back to back, alternating which
    goes first, so host-speed drift between pairs cancels inside each
    ratio and neither side always runs on the warmer cache.  Returns
    ``(ratio, t_raw, t_guarded)``, the last two the per-side median
    times in seconds, for the gate's printout.
    """
    t_raw: list[float] = []
    t_guarded: list[float] = []
    ratios = []
    for i in range(OVERHEAD_PAIRS):
        sides = [(raw, t_raw), (guarded, t_guarded)]
        for fn, out in sides if i % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        ratios.append(t_guarded[-1] / t_raw[-1])
    return (
        statistics.median(ratios),
        statistics.median(t_raw),
        statistics.median(t_guarded),
    )


def run_experiment_bench(benchmark, experiment_id: str, seed: int = 0):
    """Run one experiment at smoke scale under the benchmark timer."""
    from repro.experiments import run_experiment

    profile_dir = os.environ.get("REPRO_BENCH_PROFILE")
    if profile_dir:
        from repro.obs.profile import profiled

        pstats_path = os.path.join(profile_dir, f"{experiment_id.lower()}.pstats")
        with profiled(pstats_path, emit=False) as prof:
            result = benchmark.pedantic(
                run_experiment,
                args=(experiment_id,),
                kwargs=dict(scale="smoke", seed=seed),
                rounds=1,
                iterations=1,
            )
        print()
        print(prof.summary.render())
    else:
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs=dict(scale="smoke", seed=seed),
            rounds=1,
            iterations=1,
        )
    print()
    print(result.render())
    assert "VIOLATED" not in result.verdict
    assert "FAILURE" not in result.verdict
    return result


@pytest.fixture
def experiment_bench(benchmark):
    """Fixture form of :func:`run_experiment_bench`."""

    def _run(experiment_id: str, seed: int = 0):
        return run_experiment_bench(benchmark, experiment_id, seed)

    return _run
