"""Observability: tracing, telemetry, profiling, and SLOs.

Dependency-free instrumentation substrate for the whole system
(DESIGN.md §Observability):

* :mod:`repro.obs.context`   — request-scoped causal context: 128-bit
  trace ids in a context-local;
* :mod:`repro.obs.trace`     — nestable spans with a thread-local stack,
  exported as a JSON tree or a Chrome-trace file;
* :mod:`repro.obs.analyze`   — offline span-tree reconstruction,
  critical-path analysis, and run-vs-run latency diffs (import it
  directly — kept out of this package's eager imports);
* :mod:`repro.obs.telemetry` — structured JSONL event streams with
  size-capped file rotation;
* :mod:`repro.obs.profiler`  — continuous sampling CPU profiler
  (collapsed stacks, span-attributed samples);
* :mod:`repro.obs.memory`    — tracemalloc snapshots, allocator tables,
  and per-phase leak checks;
* :mod:`repro.obs.slo`       — declarative latency/answerability
  objectives with multi-window burn rates, folded over a run's rows;
* :mod:`repro.obs.quality`   — answer quality: the live shadow-audit
  governor, and its accounting folded over a run's rows;
* :mod:`repro.obs.health`    — which alerts a run has: rolling-window
  WARN/CRIT rules folded over its recorded rows (``health.alerts(run)``);
* :mod:`repro.obs.log`       — the sanctioned console channel for
  library code;
* :mod:`repro.obs.rundir`    — the run-directory format: artifact names,
  the one atomic writer, and ``load(directory) -> Run``, the one reader
  every ``repro`` view (report / stats / audit / watch / …) renders from.

A run records each fact once — as a span or as a telemetry row — and
every count, percentile and verdict a view shows is folded from those
at read time (:func:`repro.obs.metrics.percentile` is the one
percentile they share).

Everything is off by default and *zero-overhead when disabled*: each
instrumentation site checks one module-level flag before allocating
anything. The all-on arm of ``benchmarks/bench_kernels.py`` gates the
combined cost of everything on, the sampling profiler included.

Typical use::

    from repro import obs

    with obs.run("obs_run"):            # enable + telemetry sink; the
        ...  # train, query             # artifacts flush even if this
                                        # block raises

    with obs.run("obs_run", profile=True, memory_tracking=True,
                 slo_objectives=obs.slo.DEFAULT_OBJECTIVES):
        ...  # adds profile.collapsed.txt, memory.json, slo rows
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
    profiler,
    quality,
    rundir,
    slo,
    telemetry,
    trace,
)
from .runtime import STATE, disable, enable

__all__ = [
    "STATE",
    "disable",
    "enable",
    "context",
    "health",
    "log",
    "memory",
    "profiler",
    "quality",
    "rundir",
    "slo",
    "telemetry",
    "trace",
    "span",
    "run",
    "start_run",
    "finish_run",
]

#: Re-export of the most-used entry point.
span = trace.span


def start_run(directory: str, audit_rate: Optional[float] = None) -> str:
    """Enable observability with a JSONL telemetry sink under ``directory``.

    Clears any state left from a previous run so the directory captures
    exactly one run. The telemetry sink rotates at
    :data:`telemetry.MAX_BYTES` per file keeping
    :data:`telemetry.MAX_FILES` rotated files, so unattended
    long runs stay bounded on disk. ``audit_rate`` sets the shadow-audit
    sample rate (default: ``REPRO_AUDIT_RATE`` or
    :data:`repro.obs.quality.DEFAULT_AUDIT_RATE`; values outside
    [0, 1] raise a ValueError before anything is enabled); the run
    records it as one ``quality`` row. Returns the directory path.
    """
    rate = (
        quality.rate_from_env() if audit_rate is None
        else quality.validate_rate(audit_rate)
    )
    os.makedirs(directory, exist_ok=True)
    trace.reset()
    telemetry.reset()
    telemetry.configure(rundir.telemetry_sink(directory))
    enable()
    quality.start(rate)
    return directory


def _flush_continuous(directory: str) -> dict[str, str]:
    """Write the artifact of every active component; key → path.

    Wired as the profiler's ``on_flush`` callback so ``repro watch`` can
    follow a live run: refreshes the collapsed stacks and the memory
    summary. :func:`finish_run` makes the same pass one last time.
    """
    documents: dict[str, object] = {}
    running = profiler.active()
    if running is not None:
        documents["profile"] = running.collapsed()
    if memory.is_active():
        documents["memory"] = memory.active().summary()
    return {
        artifact: rundir.write(directory, artifact, document)
        for artifact, document in documents.items()
    }


def finish_run(directory: str) -> dict[str, str]:
    """Flush every artifact into ``directory`` and disable.

    Returns an artifact key → path map of everything written (the
    telemetry JSONL has been streaming there since :func:`start_run`;
    its last row is the one ``trace`` row counting the root spans the
    ring evicted).
    Teardown — disabling instrumentation, detaching the telemetry sink,
    stopping the profiler and memory tracker — is
    guaranteed even if an artifact write fails, so :func:`run` never
    leaks an enabled observability state out of a crashed block.
    """
    paths = {"telemetry": rundir.telemetry_sink(directory)}
    try:
        running = profiler.active()
        if running is not None:
            running.stop()  # no more samples; the artifacts are final
        # Memory is written while tracemalloc is still tracing: the
        # allocator tables and traced-bytes figures vanish once it stops.
        paths.update(_flush_continuous(directory))
        telemetry.emit("trace", roots_dropped=trace.roots_dropped())
        documents = {
            "trace": trace.tree(),
            "chrome_trace": trace.chrome_trace(),
        }
        for artifact, document in documents.items():
            paths[artifact] = rundir.write(directory, artifact, document)
    finally:
        profiler.stop()
        memory.stop()
        disable()
        telemetry.configure(None)
    return paths


@contextmanager
def run(
    directory: str,
    profile: bool = False,
    memory_tracking: bool = False,
    slo_objectives: Optional[Iterable[str]] = None,
    audit_rate: Optional[float] = None,
) -> Iterator[str]:
    """One observability run as a context manager.

    Guarantees :func:`finish_run` — telemetry, trace, and any
    profiler/memory artifacts are flushed and instrumentation is torn
    down even when the wrapped block raises. ``profile`` starts the
    continuous sampling profiler at 100 hz (collapsed stacks, refreshed
    live for ``repro watch``), ``memory_tracking`` starts the
    tracemalloc tracker, and ``slo_objectives`` records the declarative
    objectives that judge the run (e.g. ``obs.slo.DEFAULT_OBJECTIVES``).
    A spec that does not parse raises before anything is enabled.
    """
    objectives = [slo.parse_objective(spec) for spec in slo_objectives or ()]
    start_run(directory, audit_rate=audit_rate)
    try:
        slo.configure(objectives)
        if memory_tracking:
            memory.start()
        if profile:
            profiler.start(on_flush=lambda: _flush_continuous(directory))
        yield directory
    finally:
        finish_run(directory)
