"""The run-directory format: artifact names, one writer, one reader.

An observability run is a directory of artifacts (DESIGN.md §6, "Run
directory"). This module is the only place that knows their names, how
a document is written, how a directory is read back, and what a missing
or corrupt artifact means:

* :func:`write` — temp file + ``os.replace``, so a reader (``repro
  watch`` on a live run) never sees a partial document and a failed
  write leaves the previous document intact;
* :func:`load` — the whole directory as one :class:`Run`; an artifact
  the run did not record is ``None``, a corrupt one raises
  :class:`RunError` naming the file, and so does a directory that holds
  no artifact at all.

``telemetry.jsonl`` is the one artifact not written here: it is an
append-only sink (:mod:`repro.obs.telemetry` owns its rotation), read
back across the rotated set; a last line cut mid-record is skipped.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from . import profiler as _profiler
from . import telemetry as _telemetry

#: Artifact key → file name. A key is what :func:`write` takes and the
#: :class:`Run` field the artifact loads into.
FILES = {
    "telemetry": "telemetry.jsonl",
    "trace": "trace.json",
    "chrome_trace": "trace_chrome.json",
    "memory": "memory.json",
    "profile": "profile.collapsed.txt",
}

#: The artifacts :func:`load` parses, with their document type (``str``:
#: collapsed-stack text). The Chrome trace is for Perfetto, not read back.
_SHAPES = {"trace": list, "memory": dict, "profile": str}
_EXPECTED = {
    dict: "a JSON object", list: "a span list", str: "`stack count` lines",
}


class RunError(Exception):
    """A run directory that cannot be read; the message is user-facing."""


@dataclass
class Run:
    """Everything one run directory holds (``None``: not recorded)."""

    directory: str
    #: Telemetry records across the rotated set, oldest first.
    records: list[dict[str, Any]] = field(default_factory=list)
    #: ``trace.json``: the last ``trace.MAX_ROOTS`` finished root spans,
    #: as trees (the run's ``trace`` row counts the rest) — the run's
    #: only store of span trees.
    trace: Optional[list[dict[str, Any]]] = None
    memory: Optional[dict[str, Any]] = None
    #: ``profile.collapsed.txt`` parsed back into ``{stack: samples}``.
    profile: Optional[dict[tuple[str, ...], int]] = None
    #: Names of the artifacts present (rotated telemetry files included).
    artifacts: list[str] = field(default_factory=list)

    def stream(self, name: str) -> list[dict[str, Any]]:
        """The telemetry records of one stream."""
        return [r for r in self.records if r.get("stream") == name]

    def path(self, artifact: str) -> Optional[str]:
        """Where a present artifact lives (None: not recorded)."""
        name = FILES[artifact]
        if name not in self.artifacts:
            return None
        return os.path.join(self.directory, name)


def telemetry_sink(directory: str) -> str:
    """Path of the append-only telemetry JSONL of a run directory."""
    return os.path.join(directory, FILES["telemetry"])


def write(directory: str, artifact: str, document: Any) -> str:
    """Atomically write one artifact; returns its path.

    A ``str`` document (the collapsed stacks) is written as is; anything
    else as JSON.
    """
    path = os.path.join(directory, FILES[artifact])
    # One temp name per writer: the profiler thread's periodic flush and
    # a second recorder process never share a half-written file.
    partial = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(partial, "w") as handle:
            if isinstance(document, str):
                handle.write(document)
            else:
                # The Chrome trace is machine-read and large: no indent.
                indent = None if artifact == "chrome_trace" else 2
                json.dump(document, handle, indent=indent, default=str)
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    return path


def load(directory: str) -> Run:
    """Read a run directory back (see module docstring for the errors)."""
    run = Run(directory)
    sink = telemetry_sink(directory)
    run.artifacts = [
        os.path.basename(part) for part in _telemetry.rotated_paths(sink)
    ]
    run.records = _telemetry.load_run(sink)
    for artifact, name in FILES.items():
        path = os.path.join(directory, name)
        if artifact == "telemetry" or not os.path.exists(path):
            continue
        run.artifacts.append(name)
        shape = _SHAPES.get(artifact)
        if shape is None:
            continue
        try:
            with open(path) as handle:
                text = handle.read()
            document = text if shape is str else json.loads(text)
        except (OSError, ValueError) as error:
            raise RunError(
                f"unreadable run artifact {path}: {error} — "
                "re-record the run, or delete the directory and retry"
            ) from None
        if shape is str:
            # An empty profile is a profiled run with no samples yet.
            document = _profiler.parse_collapsed(text)
            valid = bool(document) or not text.strip()
        else:
            valid = isinstance(document, shape)
        if not valid:
            raise RunError(
                f"unreadable run artifact {path}: expected {_EXPECTED[shape]}"
            )
        setattr(run, artifact, document)
    if not run.artifacts:
        raise RunError(
            f"no observability run under {directory}/ — record a run with:\n"
            f"  python -m repro demo --light --telemetry {directory}\n"
            f"  python -m repro profile --dir {directory} demo --light"
        )
    return run
