"""Continuous sampling CPU profiler (dependency-free, stdlib-only).

A daemon thread wakes ``hz`` times per second, snapshots every live
thread's Python stack via ``sys._current_frames()``, and aggregates the
frames into *collapsed stacks* — the ``frame;frame;frame count`` text
format of Brendan Gregg's flamegraph tooling. Each sample is attributed
to the innermost active tracing span of the sampled thread (read from
:mod:`repro.obs.trace`'s cross-thread stack registry), so a profile of a
mediator run answers not just "which function is hot" but "hot *inside
which* ``session.query`` / ``train.rollout`` span".

Exports:

* :meth:`SamplingProfiler.collapsed` — collapsed-stack text
  (``speedscope``, ``flamegraph.pl``, and ``inferno`` all read it);
* :func:`hot_functions_of` / :func:`span_samples_of` — the tables
  ``repro watch`` and ``repro report`` render, folded from a run's
  parsed-back ``profile.collapsed.txt`` (:func:`parse_collapsed`).

The profiler is independent of the ``STATE.enabled`` observability
flag: it costs nothing unless explicitly started (``repro profile``,
``obs.run(profile=True)``), and its sampling overhead at 100 hz is
gated, with the rest of observability, by the all-on arm of
``benchmarks/bench_kernels.py`` (≤ 5%).

Memory is bounded everywhere: stacks deeper than :data:`MAX_DEPTH` are
truncated, and at most :data:`MAX_UNIQUE_STACKS` distinct stacks are
kept — further new shapes aggregate under a single ``(overflow)`` key,
counted in :attr:`SamplingProfiler.dropped_stacks`.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from typing import Callable, Optional

from . import trace as _trace

#: Frame used when a sample lands outside any tracing span.
NO_SPAN = "span:-"

#: Aggregation key once ``MAX_UNIQUE_STACKS`` distinct stacks exist.
OVERFLOW_FRAME = "(overflow)"

#: Frames kept per sampled stack (the innermost are dropped beyond it).
MAX_DEPTH = 64

#: Distinct stacks kept before new shapes aggregate under OVERFLOW_FRAME.
MAX_UNIQUE_STACKS = 20_000

#: Seconds between two ``on_flush`` calls of a running profiler.
FLUSH_EVERY_S = 2.0

#: Sampling rate of the process-wide profiler (:func:`start`).
HZ = 100.0


def _frame_label(code) -> str:
    """``repro/db/executor.py:execute`` — short, collapsed-stack-safe."""
    filename = code.co_filename.replace("\\", "/")
    marker = filename.rfind("/repro/")
    if marker >= 0:
        filename = filename[marker + 1:]
    else:
        filename = os.path.basename(filename)
    return f"{filename}:{code.co_name}".replace(";", ",").replace(" ", "_")


class SamplingProfiler:
    """Background statistical profiler over ``sys._current_frames()``."""

    def __init__(
        self,
        hz: float = HZ,
        on_flush: Optional[Callable[[], None]] = None,
    ) -> None:
        # A NaN rate would make the sampling wait return at once (a spin).
        if not (math.isfinite(hz) and hz > 0):
            raise ValueError(f"profiler rate must be finite and > 0, got {hz!r}")
        self.hz = float(hz)
        self.on_flush = on_flush
        self.sample_count = 0
        self.dropped_stacks = 0
        self._counts: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------- #
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self.on_flush:
            self.on_flush()  # the artifacts now hold every sample taken
        return self

    # -- sampling ---------------------------------------------------- #
    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        next_flush = time.perf_counter() + FLUSH_EVERY_S
        while not self._stop.wait(interval):
            self._take_sample(own_ident)
            if self.on_flush and time.perf_counter() >= next_flush:
                self.on_flush()  # the run rewrites its live artifacts
                next_flush = time.perf_counter() + FLUSH_EVERY_S

    def _take_sample(self, own_ident: int) -> None:
        frames = sys._current_frames()
        sampled: list[tuple[str, ...]] = []
        for tid, frame in frames.items():
            if tid == own_ident:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < MAX_DEPTH:
                stack.append(_frame_label(frame.f_code))
                frame = frame.f_back
                depth += 1
            stack.reverse()
            span_name = _trace.active_span_name(tid)
            stack.insert(0, f"span:{span_name}" if span_name else NO_SPAN)
            sampled.append(tuple(stack))
        del frames
        with self._lock:
            self.sample_count += 1
            for key in sampled:
                if (
                    key not in self._counts
                    and len(self._counts) >= MAX_UNIQUE_STACKS
                ):
                    self.dropped_stacks += 1
                    key = (OVERFLOW_FRAME,)
                self._counts[key] = self._counts.get(key, 0) + 1

    # -- views ------------------------------------------------------- #
    def stack_counts(self) -> dict[tuple[str, ...], int]:
        with self._lock:
            return dict(self._counts)

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``frame;frame;... count`` per line."""
        counts = self.stack_counts()
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------------ #
# aggregation over collapsed stacks (live profiler or parsed-back file)
# ------------------------------------------------------------------ #
def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Parse collapsed-stack text back into a ``{stack: count}`` dict.

    Inverse of :meth:`SamplingProfiler.collapsed`, so ``repro watch``
    and ``repro report`` can aggregate a run's profile from the artifact
    alone (including a live run's periodically flushed file).
    """
    counts: dict[tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text or not count_text.isdigit():
            continue
        key = tuple(stack_text.split(";"))
        counts[key] = counts.get(key, 0) + int(count_text)
    return counts


def span_samples_of(counts: dict[tuple[str, ...], int]) -> dict[str, int]:
    """Samples attributed to each enclosing trace span."""
    out: dict[str, int] = {}
    for stack, count in counts.items():
        root = stack[0]
        name = root[5:] if root.startswith("span:") else root
        out[name] = out.get(name, 0) + count
    return out


def hot_functions_of(
    counts: dict[tuple[str, ...], int], n: int = 15
) -> list[tuple[str, int, float]]:
    """Top frames by self samples (leaf occurrences, the time spent *in*
    the frame): ``(frame, samples, fraction)``."""
    totals: dict[str, int] = {}
    grand = 0
    for stack, count in counts.items():
        grand += count
        frames = stack[1:] if stack[0].startswith("span:") else stack
        if frames:
            totals[frames[-1]] = totals.get(frames[-1], 0) + count
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:n]
    return [
        (frame, count, count / grand if grand else 0.0)
        for frame, count in ranked
    ]


# ------------------------------------------------------------------ #
# module-level singleton (one continuous profiler per process)
# ------------------------------------------------------------------ #
#: Bounded: holds at most the one active profiler (see `stop`).
_ACTIVE: list[SamplingProfiler] = []


def start(on_flush: Optional[Callable[[], None]] = None) -> SamplingProfiler:
    """Start (or return) the process-wide continuous profiler at :data:`HZ`."""
    if _ACTIVE:
        return _ACTIVE[0]
    profiler = SamplingProfiler(on_flush=on_flush)
    _ACTIVE.append(profiler)
    profiler.start()
    return profiler


def stop() -> Optional[SamplingProfiler]:
    """Stop the process-wide profiler; returns it (or None if idle)."""
    if not _ACTIVE:
        return None
    profiler = _ACTIVE.pop()
    profiler.stop()
    return profiler


def active() -> Optional[SamplingProfiler]:
    return _ACTIVE[0] if _ACTIVE else None


def is_active() -> bool:
    return bool(_ACTIVE)
