"""Trace analysis: span-tree reconstruction, critical paths, run diffs.

Reads the artifacts a run directory holds — ``traces.json`` (the tail
sampler's store of complete traces) and
``trace.json`` (every retained root span) — and answers the questions
an operator asks after an SLO alert hands them a trace id:

* :func:`load_traces` / :func:`find_trace` — reconstruct the span tree
  for a trace id or the slowest N;
* :func:`critical_path` — walk the longest-duration child chain from
  the root, attributing *self time* at each hop as the node's duration
  minus the union of its children's intervals. Using the interval
  union (not the sum) collapses overlapping children to their max:
  four children covering the same 10 ms charge the parent 10 ms once,
  so self time is the part of a span no child accounts for;
* :func:`aggregate_spans` — per-span-name count/total/self rollup;
* :func:`diff_runs` — per-span-name p50/p95 deltas between two run
  dirs with a regression verdict (``repro diff RUN_A RUN_B``).

Everything here only *reads* files — like ``repro top``/``watch`` it
can analyze a run owned by another process.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from . import TRACE_FILE
from .sampling import TRACES_FILE

#: A span-name p95 must worsen by both this factor and this floor
#: (seconds) before `diff_runs` calls it a regression — tiny absolute
#: wobbles on micro-spans are noise, not verdicts.
REGRESSION_FACTOR = 1.25
REGRESSION_FLOOR_S = 0.5e-3


def _load_json(path: str) -> Optional[Any]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


# ------------------------------------------------------------------ #
# trace loading
# ------------------------------------------------------------------ #
def load_traces(run_dir: str) -> list[dict[str, Any]]:
    """Retained traces of a run, oldest first.

    Prefers ``traces.json`` (the tail-sampled store). Falls back to
    grouping ``trace.json`` roots by their trace id for runs recorded
    before the sampler existed.
    """
    document = _load_json(os.path.join(run_dir, TRACES_FILE))
    if isinstance(document, dict) and isinstance(document.get("traces"), list):
        return document["traces"]
    nodes = _load_json(os.path.join(run_dir, TRACE_FILE))
    entries = []
    for node in nodes or []:
        trace_id = node.get("trace_id")
        if trace_id:
            entries.append(
                {
                    "trace_id": trace_id,
                    "reason": "retained",
                    "duration_s": float(node.get("seconds", 0.0)),
                    "root": node,
                }
            )
    return entries


def sampler_summary(run_dir: str) -> Optional[dict[str, Any]]:
    """The tail sampler's accounting from ``traces.json``, if present."""
    document = _load_json(os.path.join(run_dir, TRACES_FILE))
    if not isinstance(document, dict) or "counts" not in document:
        return None
    return {key: document[key] for key in document if key != "traces"}


def find_trace(
    entries: list[dict[str, Any]], trace_id: str
) -> Optional[dict[str, Any]]:
    """Entry whose trace id matches ``trace_id`` (prefix match allowed)."""
    for entry in entries:
        if entry.get("trace_id") == trace_id:
            return entry
    matches = [
        entry
        for entry in entries
        if str(entry.get("trace_id", "")).startswith(trace_id)
    ]
    return matches[0] if len(matches) == 1 else None


def slowest(entries: list[dict[str, Any]], n: int) -> list[dict[str, Any]]:
    """The ``n`` longest-duration retained traces, slowest first."""
    ordered = sorted(
        entries, key=lambda entry: -float(entry.get("duration_s", 0.0))
    )
    return ordered[: max(0, n)]


# ------------------------------------------------------------------ #
# critical path
# ------------------------------------------------------------------ #
def _interval(node: dict[str, Any]) -> tuple[float, float]:
    start = float(node.get("start_s", 0.0))
    return start, start + float(node.get("seconds", 0.0))


def _union_length(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Total length of the union of ``intervals`` clamped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, lo), min(stop, hi)
        if stop <= cursor:
            continue
        covered += stop - max(start, cursor)
        cursor = stop
    return covered


def critical_path(root: dict[str, Any]) -> list[dict[str, Any]]:
    """Longest-child-chain walk from ``root`` with self-time attribution.

    Returns one row per hop: ``{"name", "seconds", "self_s"}``. At each
    node the walk descends into the child with the largest duration;
    ``self_s`` is the node's duration minus the union of *all* its
    children's intervals — overlapping children collapse to their max
    instead of summing.
    """
    path: list[dict[str, Any]] = []
    node: Optional[dict[str, Any]] = root
    while node is not None:
        children = list(node.get("children", []))
        lo, hi = _interval(node)
        covered = _union_length([_interval(child) for child in children], lo, hi)
        path.append(
            {
                "name": node.get("name", "?"),
                "seconds": float(node.get("seconds", 0.0)),
                "self_s": max(0.0, float(node.get("seconds", 0.0)) - covered),
            }
        )
        node = (
            max(children, key=lambda child: float(child.get("seconds", 0.0)))
            if children
            else None
        )
    return path


# ------------------------------------------------------------------ #
# aggregation & diff
# ------------------------------------------------------------------ #
def _walk(node: dict[str, Any]):
    yield node
    for child in node.get("children", []):
        yield from _walk(child)


def aggregate_spans(
    entries: list[dict[str, Any]]
) -> dict[str, dict[str, float]]:
    """Per-span-name rollup across traces: count, total and self time."""
    rollup: dict[str, dict[str, float]] = {}
    for entry in entries:
        root = entry.get("root") or {}
        for node in _walk(root):
            children = list(node.get("children", []))
            lo, hi = _interval(node)
            covered = _union_length(
                [_interval(child) for child in children], lo, hi
            )
            seconds = float(node.get("seconds", 0.0))
            row = rollup.setdefault(
                node.get("name", "?"),
                {"count": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["count"] += 1
            row["total_s"] += seconds
            row["self_s"] += max(0.0, seconds - covered)
    return rollup


def _percentile(ordered: list[float], q: float) -> float:
    index = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[index]


def span_durations(run_dir: str) -> dict[str, list[float]]:
    """All span durations by name from a run's ``trace.json``."""
    durations: dict[str, list[float]] = {}
    for root in _load_json(os.path.join(run_dir, TRACE_FILE)) or []:
        for node in _walk(root):
            durations.setdefault(node.get("name", "?"), []).append(
                float(node.get("seconds", 0.0))
            )
    return durations


def diff_runs(run_a: str, run_b: str) -> dict[str, Any]:
    """Per-span-name p50/p95 deltas between two runs, with a verdict.

    A span name REGRESSED when B's p95 exceeds A's by both
    ``REGRESSION_FACTOR`` and ``REGRESSION_FLOOR_S``; it improved on
    the mirrored condition; otherwise it is ok. Names present in only
    one run are reported but never change the verdict.
    """
    a, b = span_durations(run_a), span_durations(run_b)
    rows: list[dict[str, Any]] = []
    regressions = 0
    for name in sorted(set(a) | set(b)):
        in_a, in_b = sorted(a.get(name, [])), sorted(b.get(name, []))
        row: dict[str, Any] = {
            "name": name,
            "count_a": len(in_a),
            "count_b": len(in_b),
        }
        if in_a and in_b:
            p50_a, p95_a = _percentile(in_a, 0.50), _percentile(in_a, 0.95)
            p50_b, p95_b = _percentile(in_b, 0.50), _percentile(in_b, 0.95)
            row.update(
                p50_a=p50_a, p50_b=p50_b, p95_a=p95_a, p95_b=p95_b,
                p50_delta_s=p50_b - p50_a, p95_delta_s=p95_b - p95_a,
            )
            if (
                p95_b > p95_a * REGRESSION_FACTOR
                and p95_b - p95_a > REGRESSION_FLOOR_S
            ):
                row["verdict"] = "REGRESSED"
                regressions += 1
            elif (
                p95_a > p95_b * REGRESSION_FACTOR
                and p95_a - p95_b > REGRESSION_FLOOR_S
            ):
                row["verdict"] = "improved"
            else:
                row["verdict"] = "ok"
        else:
            row["verdict"] = "only_a" if in_a else "only_b"
        rows.append(row)
    return {
        "run_a": run_a,
        "run_b": run_b,
        "spans": rows,
        "regressions": regressions,
        "verdict": (
            f"{regressions} span name(s) regressed"
            if regressions
            else "no regressions"
        ),
    }


# ------------------------------------------------------------------ #
# rendering (CLI-facing)
# ------------------------------------------------------------------ #
def format_critical_path(path: list[dict[str, Any]]) -> list[str]:
    lines = ["critical path:"]
    for depth, row in enumerate(path):
        arrow = "-> " if depth else ""
        lines.append(
            f"  {'  ' * depth}{arrow}{row['name']}"
            f"  {row['seconds'] * 1e3:9.3f} ms"
            f"  (self {row['self_s'] * 1e3:.3f} ms)"
        )
    return lines


def format_trace_entry(entry: dict[str, Any]) -> str:
    """Operator-facing rendering of one retained trace."""
    from . import trace as trace_mod

    lines = [
        f"trace {entry.get('trace_id')}"
        f"  {float(entry.get('duration_s', 0.0)) * 1e3:.3f} ms"
        f"  kept: {entry.get('reason', '?')}"
    ]
    root = entry.get("root") or {}
    lines.append(trace_mod.format_tree([root]))
    lines.extend(format_critical_path(critical_path(root)))
    return "\n".join(lines)
