"""Structured event streams (JSONL) with bounded retention.

A telemetry *record* is one flat JSON object tagged with its ``stream``
(``"train.update"``, ``"query"``, ``"log"``, …) and a monotonically
increasing sequence number. When a sink path is configured, records are
appended to a JSONL file as they happen — the run directory's telemetry,
which ``rundir.load`` (and so every ``repro`` view) reads back; nothing
is kept in memory.

Retention is bounded so week-long runs stay flat: the sink rotates —
when the active file would exceed :data:`MAX_BYTES`, ``telemetry.jsonl``
becomes ``telemetry.1.jsonl``, ``.1`` becomes ``.2``, … and files beyond
:data:`MAX_FILES` are deleted. A record that lands the file *exactly at*
the cap stays put; the next record triggers the rotation, and the first
record of a fresh file is always written even if it alone exceeds the
cap (a record is never split or silently dropped).

:func:`load_run` reads a rotated set back transparently (oldest file
first), so ``health.alerts()`` and ``repro report`` see every retained
record regardless of how many times the sink rolled.

Sink appends are one ``os.write`` on an ``O_APPEND`` descriptor —
atomic under POSIX — so two ``repro`` processes pointed at one run
directory (e.g. a ``repro profile`` recorder and a ``repro watch
--once`` recorder) can interleave whole records but never partial
lines. This file is the *only* module allowed to perform raw
append-mode writes: the ``telemetry-sink-only`` rule of
``tests/test_source_rules.py`` flags ``os.write``/``open(..., "a")``/
``O_APPEND`` anywhere else, so the atomicity argument above stays true
for every stream in the repo.

Emission is a no-op while observability is disabled, matching the rest
of ``repro.obs``.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
from typing import Any, Optional

from . import context as _context
from .runtime import STATE

#: On-disk rotation: 64 MiB per file, 8 rotated files kept — a run's
#: telemetry footprint is bounded near 0.5 GiB however long it lives.
MAX_BYTES = 64 * 1024 * 1024
MAX_FILES = 8

_LOCK = threading.Lock()
_SINK_PATH: Optional[str] = None
_SEQUENCE = 0
_SINK_BYTES = 0


def _rotation_path(path: str, index: int) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.{index}{ext}"


def configure(path: Optional[str]) -> None:
    """Set (or clear, with None) the JSONL sink file; truncates the file.

    Any rotated siblings left by a previous run in the same directory
    are deleted, so the rotated set always describes exactly one run.
    """
    global _SINK_PATH, _SINK_BYTES
    with _LOCK:
        _SINK_PATH = path
        _SINK_BYTES = 0
        if path is not None:
            with open(path, "w"):
                pass
            for stale in rotated_paths(path)[:-1]:
                os.remove(stale)


def _rotate_locked() -> None:
    """Shift ``path`` → ``.1`` → ``.2`` …, dropping beyond :data:`MAX_FILES`."""
    global _SINK_BYTES
    assert _SINK_PATH is not None
    oldest = _rotation_path(_SINK_PATH, MAX_FILES)
    if os.path.exists(oldest):
        os.remove(oldest)
    for index in range(MAX_FILES - 1, 0, -1):
        source = _rotation_path(_SINK_PATH, index)
        if os.path.exists(source):
            os.replace(source, _rotation_path(_SINK_PATH, index + 1))
    if os.path.exists(_SINK_PATH):
        os.replace(_SINK_PATH, _rotation_path(_SINK_PATH, 1))
    _SINK_BYTES = 0


def emit(stream: str, **fields: Any) -> None:
    """Append one event to the sink iff observability is enabled (the
    sequence advances with or without a sink).

    Records written while a request context is active are stamped with
    its ``trace_id`` (explicit ``trace_id=...`` fields win), so every
    stream joins back to the originating query's trace.
    """
    if not STATE.enabled:
        return
    trace_id = _context.current_trace_id()
    global _SEQUENCE, _SINK_BYTES
    with _LOCK:
        _SEQUENCE += 1
        if _SINK_PATH is None:
            return
        record = {"stream": stream, "seq": _SEQUENCE, "ts": time.time(), **fields}
        if trace_id is not None and "trace_id" not in fields:
            record["trace_id"] = trace_id
        data = json.dumps(record, default=str) + "\n"
        if _SINK_BYTES > 0 and _SINK_BYTES + len(data) > MAX_BYTES:
            _rotate_locked()
        # One os.write on an O_APPEND fd: POSIX appends are atomic
        # per write call, so two processes sharing the sink (e.g. two
        # `repro` recorders pointed at one run directory) can never
        # interleave partial lines — a buffered text-file append
        # would split records larger than the IO buffer.
        encoded = data.encode("utf-8")
        fd = os.open(
            _SINK_PATH, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, encoded)
        finally:
            os.close(fd)
        _SINK_BYTES += len(encoded)


def reset() -> None:
    """Restart the sequence (sink unchanged)."""
    global _SEQUENCE
    with _LOCK:
        _SEQUENCE = 0


def load_jsonl(path: str) -> list[dict[str, Any]]:
    """Parse one telemetry JSONL file back into records.

    Unparseable lines are skipped rather than fatal: ``repro watch``
    reads files that a live run is still appending to, so the last
    line may be half-written.
    """
    out: list[dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return out


def rotated_paths(path: str) -> list[str]:
    """Existing files of a rotated set, oldest first, active file last."""
    root, ext = os.path.splitext(path)
    indexed: list[tuple[int, str]] = []
    for candidate in glob.glob(f"{root}.*{ext}"):
        suffix = candidate[len(root) + 1: len(candidate) - len(ext)]
        if suffix.isdigit():
            indexed.append((int(suffix), candidate))
    out = [p for _, p in sorted(indexed, reverse=True)]
    if os.path.exists(path):
        out.append(path)
    return out


def load_run(path: str) -> list[dict[str, Any]]:
    """Records across the whole rotated set of ``path``, oldest first.

    Readback order is deterministic even when records share a timestamp
    across a rotation boundary (multi-process writers interleaving at
    the cap): records sort stably by ``(ts, file_index, line_index)``,
    so every replayer — ``repro analyze``/``report``/``watch --once`` —
    sees the identical sequence on every read.
    """
    indexed: list[tuple[float, int, int, dict[str, Any]]] = []
    for file_index, part in enumerate(rotated_paths(path)):
        for line_index, record in enumerate(load_jsonl(part)):
            ts = record.get("ts")
            key_ts = float(ts) if isinstance(ts, (int, float)) else 0.0
            indexed.append((key_ts, file_index, line_index, record))
    indexed.sort(key=lambda item: item[:3])
    return [record for _, _, _, record in indexed]
