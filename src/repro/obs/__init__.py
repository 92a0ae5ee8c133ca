"""Observability: tracing, metrics, telemetry, profiling, and SLOs.

Dependency-free instrumentation substrate for the whole system
(DESIGN.md §Observability):

* :mod:`repro.obs.context`   — request-scoped causal context: 128-bit
  trace ids + baggage in a context-local;
* :mod:`repro.obs.trace`     — nestable spans with a thread-local stack,
  exported as a JSON tree or a Chrome-trace file;
* :mod:`repro.obs.sampling`  — tail-based trace retention: keep slow /
  errored / low-quality traces, head-sample the rest;
* :mod:`repro.obs.analyze`   — offline span-tree reconstruction,
  critical-path analysis, and run-vs-run latency diffs (import it
  directly — kept out of this package's eager imports);
* :mod:`repro.obs.metrics`   — process-global counters / gauges /
  fixed-bucket histograms (p50/p95/p99) with snapshot/reset and JSONL
  export;
* :mod:`repro.obs.telemetry` — structured JSONL event streams with a
  bounded in-memory ring and size/line-capped file rotation;
* :mod:`repro.obs.profiler`  — continuous sampling CPU profiler
  (collapsed stacks + HTML flamegraph, span-attributed samples);
* :mod:`repro.obs.memory`    — tracemalloc snapshots, allocator tables,
  and per-phase leak checks surfaced as gauges;
* :mod:`repro.obs.slo`       — declarative latency/answerability
  objectives with multi-window burn-rate alerts into the health pipeline;
* :mod:`repro.obs.quality`   — answer-quality accounting: shadow-audit
  bookkeeping, quality histograms, and calibration-drift alerts;
* :mod:`repro.obs.health`    — rolling-window WARN/CRIT rules over the
  diagnostic streams;
* :mod:`repro.obs.log`       — the sanctioned console/structured-log
  channels for library code.

Everything is off by default and *zero-overhead when disabled*: each
instrumentation site checks one module-level flag before allocating
anything (``benchmarks/bench_kernels.py --obs-check`` gates this; the
sampling profiler's own overhead is gated by ``--profile-check``).

Typical use::

    from repro import obs

    with obs.run("obs_run"):            # enable + telemetry sink; the
        ...  # train, query             # artifacts flush even if this
                                        # block raises

    with obs.run("obs_run", profile=True, memory_tracking=True,
                 slo_objectives=obs.slo.DEFAULT_OBJECTIVES):
        ...  # adds flamegraph.html, profile.collapsed.txt,
             # memory.json, slo.json
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from . import (
    context,
    health,
    log,
    memory,
    metrics,
    profiler,
    quality,
    sampling,
    slo,
    telemetry,
    trace,
)
from .runtime import STATE, disable, enable, is_enabled, observed

#: File names written into a run directory by :func:`finish_run`.
TELEMETRY_FILE = "telemetry.jsonl"
TRACE_FILE = "trace.json"
CHROME_TRACE_FILE = "trace_chrome.json"
METRICS_FILE = "metrics.json"
PROFILE_COLLAPSED_FILE = profiler.COLLAPSED_FILE
FLAMEGRAPH_FILE = profiler.FLAMEGRAPH_FILE
MEMORY_FILE = memory.MEMORY_FILE
SLO_FILE = slo.SLO_FILE
TRACES_FILE = sampling.TRACES_FILE
QUALITY_FILE = quality.QUALITY_FILE

__all__ = [
    "STATE",
    "disable",
    "enable",
    "is_enabled",
    "observed",
    "context",
    "health",
    "log",
    "memory",
    "metrics",
    "profiler",
    "quality",
    "sampling",
    "slo",
    "telemetry",
    "trace",
    "span",
    "run",
    "start_run",
    "finish_run",
    "TELEMETRY_FILE",
    "TRACE_FILE",
    "CHROME_TRACE_FILE",
    "METRICS_FILE",
    "PROFILE_COLLAPSED_FILE",
    "FLAMEGRAPH_FILE",
    "MEMORY_FILE",
    "SLO_FILE",
    "TRACES_FILE",
    "QUALITY_FILE",
]

#: Re-export of the most-used entry point.
span = trace.span


def start_run(
    directory: str,
    max_telemetry_bytes: Optional[int] = telemetry.DEFAULT_MAX_BYTES,
    telemetry_rotations: int = telemetry.DEFAULT_MAX_FILES,
    audit_rate: Optional[float] = None,
) -> str:
    """Enable observability with a JSONL telemetry sink under ``directory``.

    Clears any state left from a previous run so the directory captures
    exactly one run. The telemetry sink rotates at
    ``max_telemetry_bytes`` per file keeping ``telemetry_rotations``
    rotated files (None disables rotation), so unattended long runs
    stay bounded on disk. ``audit_rate`` sets the shadow-audit sample
    rate (default: ``REPRO_AUDIT_RATE`` or
    :data:`repro.obs.quality.DEFAULT_AUDIT_RATE`; values outside
    [0, 1] are rejected with a ValueError, as is a malformed
    ``REPRO_TRACE_HEAD_RATE``). Returns the directory path.
    """
    os.makedirs(directory, exist_ok=True)
    trace.reset()
    metrics.reset()
    telemetry.reset()
    health.reset()
    # Tail-based trace retention: every finished root span is offered to
    # the sampler, which keeps the interesting tail (slow / errored /
    # low-quality traces) and head-samples the rest.
    # REPRO_TRACE_HEAD_RATE overrides the baseline keep rate; like the
    # audit rate below it is outside input, so a malformed value raises.
    head_rate = sampling.DEFAULT_HEAD_RATE
    raw_rate = os.environ.get("REPRO_TRACE_HEAD_RATE")
    if raw_rate:
        head_rate = quality.validate_rate(
            raw_rate, source="REPRO_TRACE_HEAD_RATE"
        )
    sampling.configure(head_rate=head_rate)
    # Answer-quality accounting + shadow auditing (a bad audit rate
    # raises too: quality.validate_rate).
    quality.configure(sample_rate=audit_rate)
    telemetry.configure(
        os.path.join(directory, TELEMETRY_FILE),
        max_bytes=max_telemetry_bytes,
        max_files=telemetry_rotations,
    )
    enable()
    return directory


def _flush_continuous(directory: str) -> None:
    """Periodic artifact flush for live watching (``repro top``).

    Wired as the profiler's ``on_flush`` callback: alongside the
    collapsed stacks / flamegraph the profiler itself rewrites, this
    refreshes the metrics snapshot, the SLO status, and the memory
    summary, and lets SLO escalations alert mid-run.
    """
    metrics.write_json(os.path.join(directory, METRICS_FILE))
    if slo.is_active():
        slo.publish()
        slo.write_json(os.path.join(directory, SLO_FILE))
    if quality.is_active():
        quality.write_json(os.path.join(directory, QUALITY_FILE))
    if memory.is_active():
        memory.write_json(os.path.join(directory, MEMORY_FILE))


def finish_run(directory: str) -> dict[str, str]:
    """Flush every artifact into ``directory`` and disable.

    Returns a name → path map of everything written (the telemetry JSONL
    has been streaming there since :func:`start_run`). Teardown —
    disabling instrumentation, detaching the telemetry sink and the SLO
    hook, stopping the profiler and memory tracker — is guaranteed even
    if an artifact write fails, so :func:`run` never leaks an enabled
    observability state out of a crashed block.
    """
    paths = {
        "telemetry": os.path.join(directory, TELEMETRY_FILE),
        "trace": os.path.join(directory, TRACE_FILE),
        "chrome_trace": os.path.join(directory, CHROME_TRACE_FILE),
        "metrics": os.path.join(directory, METRICS_FILE),
    }
    try:
        finished = profiler.stop()
        if finished is not None:
            paths["profile_collapsed"] = os.path.join(
                directory, PROFILE_COLLAPSED_FILE
            )
            paths["flamegraph"] = os.path.join(directory, FLAMEGRAPH_FILE)
            finished.write_collapsed(paths["profile_collapsed"])
            finished.write_flamegraph(paths["flamegraph"])
            for name, samples in finished.span_samples().items():
                metrics.registry().set_gauge(
                    f"profile.span_samples.{name}", float(samples)
                )
        if slo.is_active():
            slo.publish()  # final escalations land in telemetry/health
            paths["slo"] = os.path.join(directory, SLO_FILE)
            slo.write_json(paths["slo"])
        if memory.is_active():
            # Write while tracemalloc is still tracing: the allocator
            # tables and traced-bytes figures vanish once it stops.
            paths["memory"] = os.path.join(directory, MEMORY_FILE)
            memory.write_json(paths["memory"])
            memory.stop()
        if sampling.is_active():
            paths["traces"] = os.path.join(directory, TRACES_FILE)
            sampling.write_json(paths["traces"])
        if quality.is_active():
            paths["quality"] = os.path.join(directory, QUALITY_FILE)
            quality.write_json(paths["quality"])
        trace.write_trace(paths["trace"])
        trace.write_chrome_trace(paths["chrome_trace"])
        metrics.write_json(paths["metrics"])
    finally:
        profiler.stop()
        memory.stop()
        slo.clear()
        sampling.clear()
        quality.clear()
        disable()
        telemetry.configure(None)
    return paths


@contextmanager
def run(
    directory: str,
    profile: bool = False,
    profile_hz: float = 100.0,
    memory_tracking: bool = False,
    slo_objectives: Optional[Iterable[str]] = None,
    max_telemetry_bytes: Optional[int] = telemetry.DEFAULT_MAX_BYTES,
    telemetry_rotations: int = telemetry.DEFAULT_MAX_FILES,
    audit_rate: Optional[float] = None,
) -> Iterator[str]:
    """One observability run as a context manager.

    Guarantees :func:`finish_run` — telemetry, metrics, trace, and any
    profiler/memory/SLO artifacts are flushed and instrumentation is
    torn down even when the wrapped block raises. ``profile`` starts the
    continuous sampling profiler (collapsed stacks + flamegraph,
    refreshed live for ``repro top``), ``memory_tracking`` starts the
    tracemalloc tracker, and ``slo_objectives`` installs declarative
    objectives (e.g. ``obs.slo.DEFAULT_OBJECTIVES``).
    """
    start_run(
        directory,
        max_telemetry_bytes=max_telemetry_bytes,
        telemetry_rotations=telemetry_rotations,
        audit_rate=audit_rate,
    )
    if slo_objectives:
        slo.configure(slo_objectives)
    if memory_tracking:
        memory.start()
    if profile:
        profiler.start(
            hz=profile_hz,
            output_dir=directory,
            on_flush=lambda: _flush_continuous(directory),
        )
    try:
        yield directory
    finally:
        finish_run(directory)
