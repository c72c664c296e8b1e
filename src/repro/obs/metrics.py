"""Zero-dependency metrics: counters and gauges.

The experiments run millions of Markov phases; a
:class:`MetricsRegistry` gives them cheap named instruments (phase
counts, RNG draws, Fact 3.2 update costs, state-space sizes) that
aggregate in memory and serialize to a plain dict.  Three design
rules keep the hot loops honest:

1. **No-op when disabled.**  Instrumented code guards every touch with
   :func:`repro.obs.enabled`, so a disabled run costs one boolean check
   per *run() call* (not per phase).
2. **Mergeable.**  :meth:`MetricsRegistry.snapshot` /
   :meth:`MetricsRegistry.merge` round-trip through JSON-serializable
   dicts, which is how :func:`repro.utils.parallel.parallel_replica_map`
   folds per-worker registries back into the parent process.
3. **Process-global default.**  Library code records against
   :func:`default_registry`; tests and workers swap in a scratch
   registry with :func:`scoped_registry`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "default_registry",
    "scoped_registry",
]


class Counter:
    """Monotone additive counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (negative increments are rejected: counters only grow)."""
        if n < 0:
            raise ValueError(f"counter increments must be >= 0, got {n}")
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value (e.g. state-space size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class MetricsRegistry:
    """Named instruments with get-or-create access and dict round-trips."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    # -- instrument access (get-or-create) -----------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created at 0 on first access)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name*."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    # -- serialization / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters add; gauges take the incoming value (last write wins).
        This is the parallel-worker merge path.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += int(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry instrumented library code records to."""
    return _default


@contextmanager
def scoped_registry(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Temporarily swap the default registry (a fresh one if none given).

    Used by tests and by parallel workers so each replica's metrics are
    captured in isolation and merged back explicitly.
    """
    global _default
    prev = _default
    _default = registry if registry is not None else MetricsRegistry()
    try:
        yield _default
    finally:
        _default = prev
