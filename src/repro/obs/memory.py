"""``tracemalloc``-based memory tracking: snapshots, diffs, leak checks.

Complements the sampling CPU profiler: where :mod:`repro.obs.profiler`
answers "where does the time go", this module answers "where does the
memory go" over a long run. A started tracker

* reports current/peak traced bytes and the process RSS once per
  :meth:`summary` (``memory.json``) — a ``/proc`` read per epoch mark
  would cost more than the marks themselves;
* records an *epoch series* per call site (``train.iteration``,
  ``session.query``) so repeated executions of the same phase can be
  leak-checked: monotone growth across the trailing epochs of one phase
  is the smoking gun a single snapshot cannot show;
* reports top allocators by ``file:line`` and growth-vs-baseline diffs
  for ``repro report`` / ``repro watch``.

Everything is inert until :func:`start` is called (``repro profile``,
``obs.run(memory=True)``): :func:`mark_epoch` on the disabled path is a
module-list truthiness check, in line with the rest of ``repro.obs``.
``tracemalloc`` itself costs ~2-4x on allocation-heavy code while
tracing, which is why this is opt-in per run rather than always-on.
"""

from __future__ import annotations

import os
import tracemalloc
from collections import deque
from typing import Any, Optional

#: Epoch history retained per phase name (ring; week-long runs stay flat).
EPOCH_HISTORY = 128

#: Epoch phases tracked at most (unexpected label explosions stay bounded).
MAX_PHASES = 64

#: Trailing epochs of one phase the leak check reads.
LEAK_EPOCHS = 4

#: Rows of each allocator table.
TOP_ALLOCATORS = 15


def rss_kb() -> float:
    """Resident set size of this process in KiB (0.0 if unreadable)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (OSError, ValueError, IndexError):
        try:
            import resource

            # ru_maxrss is KiB on Linux, bytes on macOS; close enough as
            # a fallback high-water mark when /proc is unavailable.
            return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except Exception:  # pragma: no cover - platform without resource
            return 0.0


class MemoryTracker:
    """One tracemalloc session with per-phase epoch accounting."""

    def __init__(self) -> None:
        self._baseline: Optional[tracemalloc.Snapshot] = None
        self._epochs: dict[str, deque[int]] = {}
        self._started = False

    # -- lifecycle --------------------------------------------------- #
    def start(self) -> "MemoryTracker":
        if not self._started:
            tracemalloc.start(1)  # the allocating line is the site
            self._baseline = tracemalloc.take_snapshot()
            self._started = True
        return self

    def stop(self) -> None:
        if self._started:
            tracemalloc.stop()
            self._started = False

    # -- epochs ------------------------------------------------------ #
    def mark_epoch(self, name: str) -> int:
        """Record one epoch boundary for phase ``name``; returns growth (bytes).

        Growth is current traced bytes minus the previous mark of the
        *same* phase — between two training iterations or two executions
        of the same query, steady state means growth ≈ 0.
        """
        if not self._started:
            return 0
        current, _ = tracemalloc.get_traced_memory()
        history = self._epochs.get(name)
        if history is None:
            if len(self._epochs) >= MAX_PHASES:
                return 0
            history = self._epochs[name] = deque(maxlen=EPOCH_HISTORY)
        growth = current - history[-1] if history else 0
        history.append(current)
        return growth

    def leak_check(self, name: str) -> dict[str, Any]:
        """Monotone-growth verdict over the last :data:`LEAK_EPOCHS` epochs
        of one phase."""
        history = list(self._epochs.get(name, ()))
        if len(history) < LEAK_EPOCHS:
            return {"phase": name, "epochs": len(history), "suspect": False,
                    "growth_bytes": 0}
        tail = history[-LEAK_EPOCHS:]
        deltas = [b - a for a, b in zip(tail, tail[1:])]
        return {
            "phase": name,
            "epochs": len(history),
            "suspect": all(delta > 0 for delta in deltas),
            "growth_bytes": tail[-1] - tail[0],
        }

    # -- allocator tables -------------------------------------------- #
    def _stat_rows(self, stats, size_attr: str) -> list[dict[str, Any]]:
        rows = []
        for stat in stats[:TOP_ALLOCATORS]:
            frame = stat.traceback[0]
            filename = frame.filename.replace("\\", "/")
            marker = filename.rfind("/repro/")
            if marker >= 0:
                filename = filename[marker + 1:]
            rows.append({
                "site": f"{filename}:{frame.lineno}",
                "size_kb": getattr(stat, size_attr) / 1024.0,
                "count": stat.count,
            })
        return rows

    def top_allocators(self) -> list[dict[str, Any]]:
        """Current top allocation sites by ``file:line``."""
        if not self._started:
            return []
        snapshot = tracemalloc.take_snapshot()
        stats = snapshot.statistics("lineno")
        return self._stat_rows(stats, "size")

    def growth_since_baseline(self) -> list[dict[str, Any]]:
        """Top allocation *growth* sites since :meth:`start`."""
        if not self._started or self._baseline is None:
            return []
        snapshot = tracemalloc.take_snapshot()
        stats = snapshot.compare_to(self._baseline, "lineno")
        return self._stat_rows(stats, "size_diff")

    # -- export ------------------------------------------------------ #
    def summary(self) -> dict[str, Any]:
        current, peak = (
            tracemalloc.get_traced_memory() if self._started else (0, 0)
        )
        rss = rss_kb()
        return {
            "tracing": self._started,
            "current_kb": current / 1024.0,
            "peak_kb": peak / 1024.0,
            "rss_kb": rss,
            "top_allocators": self.top_allocators(),
            "growth_since_start": self.growth_since_baseline(),
            "epochs": {
                name: self.leak_check(name) for name in sorted(self._epochs)
            },
        }


# ------------------------------------------------------------------ #
# module-level singleton (one tracker per process)
# ------------------------------------------------------------------ #
#: Bounded: holds at most the one active tracker (see `stop`).
_ACTIVE: list[MemoryTracker] = []


def start() -> MemoryTracker:
    """Start (or return) the process-wide memory tracker."""
    if _ACTIVE:
        return _ACTIVE[0]
    tracker = MemoryTracker()
    _ACTIVE.append(tracker)
    tracker.start()
    return tracker


def stop() -> Optional[MemoryTracker]:
    """Stop tracking; returns the tracker (its summary stays readable)."""
    if not _ACTIVE:
        return None
    tracker = _ACTIVE.pop()
    tracker.stop()
    return tracker


def active() -> Optional[MemoryTracker]:
    return _ACTIVE[0] if _ACTIVE else None


def is_active() -> bool:
    return bool(_ACTIVE)


def mark_epoch(name: str) -> int:
    """Epoch mark on the active tracker; no-op (one check) when idle."""
    if not _ACTIVE:
        return 0
    return _ACTIVE[0].mark_epoch(name)
