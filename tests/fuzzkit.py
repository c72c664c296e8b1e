"""Differential-fuzz harness glue: seed grids, shrinking, repro lines.

The pytest-facing wrapper around :mod:`repro.verify.differential`.
That module owns the sampled configuration space and the four
differential checks (``batched`` against the row-by-row replay,
``replay``, ``artifact`` and ``ks``); this one owns how a *failure*
surfaces in a test run:

* :func:`assert_passes` runs one check and, when it fails, first
  greedily shrinks the configuration to the smallest one that still
  fails, then raises an :class:`AssertionError` whose message ends
  with a one-line replayable command::

      PYTHONPATH=src python -m repro fuzz --config '{…}' --check batched

  Paste that line in a shell and the exact shrunk failure re-runs —
  no pytest, no hypothesis database, no local state.

* :func:`grid` is the deterministic seed-grid generator
  (pure function of ``(budget, seed)``) shared by the tests here,
  ``tests/test_engine_parity.py``'s pinned-config sweep, and the CI
  ``fuzz-smoke`` job — all three draw from the same space, so a CI
  failure replays locally verbatim.

* :func:`config_strategy` exposes the same space as a hypothesis
  strategy for property-style tests (hypothesis shrinks the draw,
  :func:`assert_passes` then shrinks the config — both minimizers
  agree because the checks are deterministic per config).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.verify.differential import (
    CHECKS,
    DiffConfig,
    run_check,
    sample_configs,
    shrink_config,
    vectorizable_spec_names,
)

__all__ = [
    "grid",
    "config_strategy",
    "assert_passes",
    "pinned_config",
]


def grid(budget: int, seed: int = 0) -> list[DiffConfig]:
    """The deterministic seed grid (same space as ``repro fuzz``)."""
    return sample_configs(budget, seed)


def pinned_config(spec: str, **overrides) -> DiffConfig:
    """A fixed, representative config for *spec* (per-spec pinned sweeps)."""
    base = dict(
        spec=spec,
        n=12,
        m=12,
        replicas=6,
        steps=57,
        batch=13,
        probe_every=5,
        save_every=7,
        seed=20_260_809,
    )
    base.update(overrides)
    return DiffConfig(**base)


def config_strategy(
    *,
    max_steps: int = 120,
    specs: list[str] | None = None,
) -> st.SearchStrategy[DiffConfig]:
    """Hypothesis strategy over the differential configuration space."""
    names = specs if specs is not None else vectorizable_spec_names()
    return st.builds(
        DiffConfig,
        spec=st.sampled_from(names),
        n=st.integers(1, 20),
        m=st.integers(1, 40),
        replicas=st.integers(2, 10),
        steps=st.integers(1, max_steps),
        batch=st.integers(2, 64),
        probe_every=st.sampled_from([0, 1, 2, 3, 5, 7, 11]),
        save_every=st.sampled_from([0, 1, 2, 5, 9]),
        seed=st.integers(0, 2**31 - 1),
    )


def assert_passes(cfg: DiffConfig, check: str, *, shrink: bool = True) -> None:
    """Run *check* on *cfg*; on failure, shrink and raise with a repro line."""
    why = run_check(cfg, check)
    if why is None:
        return
    if shrink:
        cfg = shrink_config(cfg, check)
        why = run_check(cfg, check) or why
    raise AssertionError(
        f"differential check {check!r} failed: {why}\n"
        f"  replay: {cfg.cli(check)}"
    )


def assert_grid_passes(budget: int, seed: int = 0, *, check: str = "all") -> None:
    """Run a whole seed grid, failing with a repro line on first divergence."""
    from repro.verify.differential import run_grid

    failures = run_grid(grid(budget, seed), check=check)
    if failures:
        cfg, name, why = failures[0]
        cfg = shrink_config(cfg, name)
        raise AssertionError(
            f"{len(failures)} differential failure(s); first ({name}): {why}\n"
            f"  replay: {cfg.cli(name)}"
        )


# Re-exported so test modules need only import fuzzkit.
ALL_CHECKS = tuple(sorted(CHECKS))
