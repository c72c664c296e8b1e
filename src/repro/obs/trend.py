"""The perf trajectory: ``repro obs trend [metric]``.

Reads every committed ``BENCH_*.json`` under ``benchmarks/artifacts/``
(where ``repro bench run`` writes them) and renders the per-commit
trajectory as ASCII sparkline + table (``--json`` for machines), plus
trajectory-wide drift detection: ``--fail-on-regression`` compares the
*head* artifact not against a single predecessor but against the
pooled samples of the trailing window, reusing ``obs diff``'s
bootstrap-CI machinery (:func:`repro.obs.compare.bootstrap_delta_ci`).
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.obs.compare import _verdict, bootstrap_delta_ci, load_metrics
from repro.utils.ascii_plot import sparkline
from repro.utils.tables import Table

__all__ = [
    "DEFAULT_BENCH_DIRS",
    "bench_trajectory",
    "TrendResult",
    "compute_trend",
    "render_trend",
    "trend_to_json",
]

#: Where ``BENCH_*.json`` trajectory points live (``repro bench run``
#: writes there by default).
DEFAULT_BENCH_DIRS = ("benchmarks/artifacts",)


@dataclass
class TrajectoryPoint:
    """One bench artifact on the trajectory, with its flattened metrics."""

    path: str
    created_at: str
    git_rev: str | None
    metrics: dict[str, list[float]] = field(default_factory=dict)


def bench_trajectory(
    bench_dirs: tuple[str, ...] | list[str] = DEFAULT_BENCH_DIRS,
) -> list[TrajectoryPoint]:
    """Every readable bench artifact, oldest first (by ``created_at``).

    Files that do not parse, or that are not ``repro.bench`` artifacts,
    are skipped.
    """
    points: list[TrajectoryPoint] = []
    for d in bench_dirs:
        for path in sorted(glob.glob(os.path.join(d, "BENCH_*.json"))):
            try:
                metrics = load_metrics(path)
                with open(path) as f:
                    payload = json.load(f)
            except (ValueError, OSError):
                continue
            points.append(TrajectoryPoint(
                path=os.path.normpath(path),
                created_at=payload.get("created_at", ""),
                git_rev=payload.get("git_rev"),
                metrics=metrics,
            ))
    points.sort(key=lambda p: p.created_at)
    return points


@dataclass
class MetricTrend:
    """One metric's trajectory across artifacts, head vs trailing window."""

    name: str
    means: list[float]  # per-artifact mean, oldest first (NaN = absent)
    head_mean: float
    trail_mean: float
    delta: float
    pct: float | None
    ci: tuple[float, float] | None
    verdict: str
    n_head: int
    n_trail: int


@dataclass
class TrendResult:
    """The full trajectory view (see :func:`compute_trend`)."""

    points: list[TrajectoryPoint]
    metric: str | None
    trends: list[MetricTrend] = field(default_factory=list)
    window: int = 3
    threshold: float = 0.05

    @property
    def has_regression(self) -> bool:
        return any(t.verdict == "regressed" for t in self.trends)


def compute_trend(
    *,
    metric: str | None = None,
    bench_dirs: tuple[str, ...] | list[str] = DEFAULT_BENCH_DIRS,
    window: int = 3,
    threshold: float = 0.05,
    n_boot: int = 2000,
    seed: int = 0,
) -> TrendResult:
    """Assemble the trajectory and the head-vs-trailing-window drift.

    For each metric present in the head (newest) artifact, the trailing
    window pools the samples of up to *window* immediately preceding
    artifacts that carry the metric; drift is then the same bootstrap
    mean-delta CI + threshold verdict as ``obs diff`` — but against the
    pooled window, so one noisy predecessor cannot mask (or fake) a
    trajectory-wide regression.
    """
    points = bench_trajectory(bench_dirs)
    result = TrendResult(
        points=points, metric=metric, window=window, threshold=threshold
    )
    if not points:
        return result
    head = points[-1]
    names = sorted(head.metrics) if metric is None else [metric]
    for name in names:
        head_samples = head.metrics.get(name, [])
        trail_samples: list[float] = []
        contributing = 0
        for p in reversed(points[:-1]):
            if contributing >= window:
                break
            if name in p.metrics:
                trail_samples.extend(p.metrics[name])
                contributing += 1
        means = [
            float(np.mean(p.metrics[name])) if name in p.metrics else float("nan")
            for p in points
        ]
        if not head_samples or not trail_samples:
            # Not a drift candidate (new metric, or metric only in
            # history); still render its trajectory when asked by name.
            if metric is not None or head_samples:
                result.trends.append(MetricTrend(
                    name=name, means=means,
                    head_mean=float(np.mean(head_samples)) if head_samples else float("nan"),
                    trail_mean=float(np.mean(trail_samples)) if trail_samples else float("nan"),
                    delta=float("nan"), pct=None, ci=None, verdict="new",
                    n_head=len(head_samples), n_trail=len(trail_samples),
                ))
            continue
        head_mean = float(np.mean(head_samples))
        trail_mean = float(np.mean(trail_samples))
        delta = head_mean - trail_mean
        pct = delta / trail_mean if trail_mean != 0.0 else None
        ci = bootstrap_delta_ci(
            trail_samples, head_samples, n_boot=n_boot, seed=seed
        )
        verdict, _ = _verdict(delta, pct, ci, threshold)
        result.trends.append(MetricTrend(
            name=name, means=means, head_mean=head_mean, trail_mean=trail_mean,
            delta=delta, pct=pct, ci=ci, verdict=verdict,
            n_head=len(head_samples), n_trail=len(trail_samples),
        ))
    return result


def render_trend(result: TrendResult) -> str:
    """The trajectory table: one artifact per column tick, spark + verdict."""
    if not result.points:
        return "(no bench artifacts found — run 'repro bench run' first)"
    parts: list[str] = []
    t = Table(
        ["#", "artifact", "created", "git rev"],
        title=f"perf trajectory ({len(result.points)} artifacts, oldest first)",
    )
    for i, p in enumerate(result.points):
        t.add_row([i, os.path.basename(p.path), p.created_at[:19],
                   (p.git_rev or "?")[:10]])
    parts.append(t.render())
    shown = result.trends
    if result.metric is None:
        # Whole-trajectory mode: only metrics with >= 2 artifacts of
        # history render (a spark of one point says nothing).
        shown = [
            tr for tr in shown
            if sum(1 for m in tr.means if m == m) >= 2
        ]
    if not shown:
        parts.append(
            "(no metric appears in two or more artifacts"
            + (f"; metric {result.metric!r} not found" if result.metric else "")
            + ")"
        )
        return "\n\n".join(parts)
    t = Table(
        ["metric", "trajectory", "head", "trail mean", "delta %", "verdict"],
        title=(
            f"head vs trailing window of {result.window} "
            f"(threshold {100 * result.threshold:.0f}%, lower is better)"
        ),
    )
    for tr in shown:
        finite = [m for m in tr.means if m == m]
        spark = sparkline(finite) if finite else ""
        pct = f"{100 * tr.pct:+.1f}%" if tr.pct is not None else "n/a"
        mark = {"improved": "improved ✓", "regressed": "REGRESSED ✗",
                "new": "new"}.get(tr.verdict, "unchanged")
        head = f"{tr.head_mean:.4g}" if tr.head_mean == tr.head_mean else "-"
        trail = f"{tr.trail_mean:.4g}" if tr.trail_mean == tr.trail_mean else "-"
        t.add_row([tr.name, spark, head, trail, pct, mark])
    parts.append(t.render())
    counts = {"improved": 0, "regressed": 0, "unchanged": 0, "new": 0}
    for tr in shown:
        counts[tr.verdict] = counts.get(tr.verdict, 0) + 1
    parts.append(
        f"{len(shown)} metric(s): {counts['improved']} improved, "
        f"{counts['regressed']} regressed, {counts['unchanged']} unchanged, "
        f"{counts['new']} without history"
    )
    return "\n\n".join(parts)


def trend_to_json(result: TrendResult) -> dict:
    """Machine-readable trajectory (the ``--json`` output)."""
    return {
        "schema": "repro.trend/1",
        "window": result.window,
        "threshold": result.threshold,
        "has_regression": result.has_regression,
        "artifacts": [
            {"path": p.path, "created_at": p.created_at, "git_rev": p.git_rev}
            for p in result.points
        ],
        "metrics": [
            {
                "name": tr.name,
                "means": [None if m != m else m for m in tr.means],
                "head_mean": None if tr.head_mean != tr.head_mean else tr.head_mean,
                "trail_mean": (
                    None if tr.trail_mean != tr.trail_mean else tr.trail_mean
                ),
                "delta": None if tr.delta != tr.delta else tr.delta,
                "pct": tr.pct,
                "ci95": list(tr.ci) if tr.ci else None,
                "verdict": tr.verdict,
                "n_head": tr.n_head,
                "n_trail": tr.n_trail,
            }
            for tr in result.trends
        ],
    }
