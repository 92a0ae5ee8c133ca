"""Process-global metrics: counters, gauges, and fixed-bucket histograms.

The registry is deliberately simple — names are flat dotted strings
(``"executor.queries"``, ``"kernel.join_positions.seconds"``), values are
floats, and histograms use a fixed exponential bucket ladder so
``observe`` is one bisect plus two adds. :meth:`MetricsRegistry.snapshot`
returns a JSON-ready dict (histograms include approximate p50/p95/p99
interpolated within buckets) — the ``metrics.json`` document of a run.

All module-level helpers (:func:`add`, :func:`set_gauge`,
:func:`observe`) check ``STATE.enabled`` first, so instrumented call
sites cost one function call and one attribute read when observability
is off.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Optional, Sequence

from .runtime import STATE

#: Default histogram bucket upper bounds: 1µs … ~100s, ×~3.16 per step.
#: Suits both kernel timings (sub-ms) and whole-training spans (minutes).
DEFAULT_BUCKETS = tuple(10.0 ** (e / 2.0) for e in range(-12, 5))


class Histogram:
    """Fixed-bucket histogram with approximate percentiles."""

    __slots__ = ("bounds", "counts", "overflow", "total", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        if index < len(self.counts):
            self.counts[index] += 1
        else:
            self.overflow += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) from the buckets.

        Interpolates linearly inside the winning bucket; exact min/max are
        tracked separately, so the estimate is clamped into [min, max].
        """
        if self.total == 0:
            return float("nan")
        target = self.total * q / 100.0
        running = 0.0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if running + count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (target - running) / count
                value = lower + fraction * (upper - lower)
                return float(min(max(value, self.min), self.max))
            running += count
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.total,
            "sum": self.sum,
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
            "mean": self.sum / self.total if self.total else None,
            "p50": self.percentile(50.0) if self.total else None,
            "p95": self.percentile(95.0) if self.total else None,
            "p99": self.percentile(99.0) if self.total else None,
        }


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- write paths ------------------------------------------------ #
    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # -- read paths -------------------------------------------------- #
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: {"counters": {...}, "gauges": {...}, "histograms": {...}}."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in self._histograms.items()
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry (always writable, even when disabled)."""
    return _REGISTRY


def add(name: str, value: float = 1.0) -> None:
    """Increment a counter iff observability is enabled."""
    if STATE.enabled:
        _REGISTRY.add(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge iff observability is enabled."""
    if STATE.enabled:
        _REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample iff observability is enabled."""
    if STATE.enabled:
        _REGISTRY.observe(name, value)


def snapshot() -> dict[str, Any]:
    return _REGISTRY.snapshot()


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a sorted sample.

    The one definition for raw samples — SLO windows, the tail
    sampler's slow cut, ``repro diff`` and ``repro watch`` all use it
    (a :class:`Histogram` interpolates inside buckets instead).
    """
    if not ordered:
        return float("nan")
    index = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[index]


def reset() -> None:
    _REGISTRY.reset()
