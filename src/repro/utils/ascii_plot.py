"""Dependency-free ASCII sparklines.

The CLI and examples run in terminals without plotting stacks; a
sparkline column (`▁▂▃▅▇`) is enough to *see* a recovery trajectory or
a TV-decay curve next to its numbers.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["sparkline"]

_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, lo: float | None = None, hi: float | None = None) -> str:
    """Render values as a unicode sparkline string.

    Constant series render as all-low ticks; NaNs are rejected.
    ``lo``/``hi`` pin the scale (useful to share one scale across rows).
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if any(v != v for v in vals):
        raise ValueError("sparkline values must not contain NaN")
    vmin = min(vals) if lo is None else float(lo)
    vmax = max(vals) if hi is None else float(hi)
    if vmax <= vmin:
        return _TICKS[0] * len(vals)
    span = vmax - vmin
    out = []
    for v in vals:
        frac = (v - vmin) / span
        idx = min(int(frac * len(_TICKS)), len(_TICKS) - 1)
        out.append(_TICKS[idx])
    return "".join(out)
