"""Tail-based trace retention: keep the traces worth debugging.

Retaining every span tree of a long-running service is unbounded;
head-sampling a fixed fraction keeps the *boring* traces and loses the
interesting tails. This module implements the standard fix — decide
*after* the request completes (tail-based sampling):

* **always keep** a query's trace when it was slow (duration above the
  rolling p95 of recent root spans), errored anywhere in its tree, or was
  shadow-audited to low answer quality (the ``low_quality`` attr the
  session stamps from :mod:`repro.obs.quality` audit results);
* **head-sample** the unremarkable rest at a configurable rate, decided
  deterministically from the trace id (no RNG state, reproducible
  across replays);
* **keep everything during warmup** — until the rolling window has
  ``min_window`` durations there is no meaningful p95, and a short run
  (one EXPLAIN ANALYZE in CI) must never lose its only trace.

Accounting is exact: every offered root increments exactly one of the
``kept_*`` / ``dropped_head`` counters, and evictions from the bounded
store are tallied separately (``evicted``), so
``offered == sum(kept) + dropped_head`` always holds. Eviction prefers
head-kept traces, then slow, then low-quality, then errored.

The sampler attaches to :func:`repro.obs.trace.set_root_hook`;
``obs.start_run`` installs one per run and ``finish_run`` persists the
store as ``traces.json`` — the artifact ``repro analyze`` reconstructs
span trees from.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional

from . import metrics as _metrics
from . import trace as _trace
from .runtime import STATE

#: Default bound on retained complete traces.
DEFAULT_MAX_TRACES = 64

#: Default head-sampling rate for unremarkable traces.
DEFAULT_HEAD_RATE = 0.1

#: Rolling-duration window for the slow (>p95) decision.
DEFAULT_WINDOW = 256

#: Keep everything until this many durations have been seen.
DEFAULT_MIN_WINDOW = 20

#: Eviction priority: lower leaves the store first. Low-quality traces
#: outrank slow ones (the audit evidence is rarer) but yield to errors.
_EVICTION_ORDER = {
    "head": 0, "warmup": 1, "slow": 2, "low_quality": 3, "error": 4,
}


def _head_keep(trace_id: str, rate: float) -> bool:
    """Deterministic per-trace coin flip: hash the id, not an RNG."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    try:
        draw = int(trace_id[:8], 16) % 10_000
    except ValueError:
        return False
    return draw < rate * 10_000


def _has_error(node: _trace.Span) -> bool:
    if node.error:
        return True
    return any(_has_error(child) for child in node.children)


class TailSampler:
    """Bounded store of complete span trees, tail-sampled (see module)."""

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        head_rate: float = DEFAULT_HEAD_RATE,
        window: int = DEFAULT_WINDOW,
        min_window: int = DEFAULT_MIN_WINDOW,
    ) -> None:
        self.max_traces = max(1, int(max_traces))
        self.head_rate = float(head_rate)
        self.min_window = int(min_window)
        self._durations: deque[float] = deque(maxlen=window)
        self._entries: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {
            "offered": 0,
            "kept_slow": 0,
            "kept_error": 0,
            "kept_low_quality": 0,
            "kept_head": 0,
            "kept_warmup": 0,
            "dropped_head": 0,
            "evicted": 0,
        }

    # -- decision ----------------------------------------------------- #
    def offer(self, root: _trace.Span) -> Optional[str]:
        """Decide for one finished root span; the keep reason or None.

        Only request-scoped roots (those carrying a trace id) are
        sampled — anonymous spans have no identity to retain under.
        """
        if root.trace_id is None:
            return None
        duration = float(root.duration_s)
        attrs = root.attrs
        with self._lock:
            self.counts["offered"] += 1
            reason = None
            if _has_error(root):
                reason = "error"
            elif int(attrs.get("low_quality") or 0) > 0:
                reason = "low_quality"
            elif (
                len(self._durations) >= self.min_window
                and duration
                > _metrics.percentile(sorted(self._durations), 0.95)
            ):
                reason = "slow"
            elif len(self._durations) < self.min_window:
                reason = "warmup"
            elif _head_keep(root.trace_id, self.head_rate):
                reason = "head"
            self._durations.append(duration)
            if reason is None:
                self.counts["dropped_head"] += 1
                self._metric("trace.sampler.dropped")
                return None
            self.counts[f"kept_{reason}"] += 1
            self._entries.append(
                {
                    "trace_id": root.trace_id,
                    "reason": reason,
                    "duration_s": duration,
                    "root": root.to_dict(),
                }
            )
            self._metric("trace.sampler.kept")
            while len(self._entries) > self.max_traces:
                victim = min(
                    range(len(self._entries)),
                    key=lambda i: (
                        _EVICTION_ORDER.get(self._entries[i]["reason"], 0),
                        i,
                    ),
                )
                del self._entries[victim]
                self.counts["evicted"] += 1
                self._metric("trace.sampler.evicted")
            return reason

    def _metric(self, name: str) -> None:
        if STATE.enabled:
            _metrics.registry().add(name)

    # -- export ------------------------------------------------------- #
    def entries(self) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def export(self) -> dict[str, Any]:
        """The ``traces.json`` document: store + exact drop accounting."""
        with self._lock:
            counts = dict(self.counts)
        kept = sum(v for k, v in counts.items() if k.startswith("kept_"))
        return {
            "max_traces": self.max_traces,
            "head_rate": self.head_rate,
            "min_window": self.min_window,
            "counts": counts,
            "kept": kept,
            "dropped": counts["dropped_head"],
            "traces": self.entries(),
        }


# ------------------------------------------------------------------ #
# module-level singleton (one sampler per observability run)
# ------------------------------------------------------------------ #
#: Bounded: holds at most the one configured sampler (see `clear`).
_ACTIVE: list[TailSampler] = []


def configure(head_rate: float = DEFAULT_HEAD_RATE) -> TailSampler:
    """Install a sampler and hook it onto finished root spans."""
    clear()
    sampler = TailSampler(head_rate=head_rate)
    _ACTIVE.append(sampler)
    _trace.set_root_hook(sampler.offer)
    return sampler


def active() -> Optional[TailSampler]:
    return _ACTIVE[0] if _ACTIVE else None


def is_active() -> bool:
    return bool(_ACTIVE)


def clear() -> None:
    """Drop the sampler and detach the root-span hook."""
    _ACTIVE.clear()
    _trace.set_root_hook(None)
