"""Trace analysis: span-tree reconstruction, critical paths, run diffs.

Works on a loaded :class:`~repro.obs.rundir.Run` — ``run.trace``, the
run's one store of span trees — and answers the questions an operator
asks after an SLO alert hands them a trace id:

* :func:`retained_traces` / :func:`find_trace` — reconstruct the span
  tree for a trace id (a root's or one nested under an anonymous root)
  or the slowest N, each labelled with why to look at it;
* :func:`critical_path` — walk the longest-duration child chain from
  the root, attributing *self time* at each hop as the node's duration
  minus the union of its children's intervals. Using the interval
  union (not the sum) collapses overlapping children to their max:
  four children covering the same 10 ms charge the parent 10 ms once,
  so self time is the part of a span no child accounts for;
* :func:`aggregate_spans` — per-span-name count/total/self rollup (the
  report's "Hottest spans" uses it too);
* :func:`diff_runs` — per-span-name p50/p95 deltas between two runs
  with a regression verdict (``repro diff RUN_A RUN_B``);
* :func:`render_analysis` / :func:`render_diff` — what ``repro analyze``
  and ``repro diff`` print.
"""

from __future__ import annotations

from typing import Any, Optional

from . import metrics as _metrics
from . import trace as trace_mod
from .rundir import Run

#: A span-name p95 must worsen by both this factor and this floor
#: (seconds) before `diff_runs` calls it a regression — tiny absolute
#: wobbles on micro-spans are noise, not verdicts.
REGRESSION_FACTOR = 1.25
REGRESSION_FLOOR_S = 0.5e-3

#: The trace labels of :func:`retained_traces`, in precedence order.
LABELS = ("error", "low_quality", "slow")


# ------------------------------------------------------------------ #
# trace loading
# ------------------------------------------------------------------ #
def retained_traces(run: Run) -> list[dict[str, Any]]:
    """Every trace of a run, in walk order, each with its label.

    One walk over ``run.trace`` yields one entry per trace id, rooted at
    the id's topmost span (one whose parent does not carry the same
    id), so an ``execute`` with its own id under the anonymous
    ``train`` root is a trace too. The ``label`` — why look at it — is
    computed here, from the recorded spans, like ``health.alerts(run)``:
    ``error`` if any span of the tree failed, else ``low_quality`` if
    the session stamped the audit verdict on it, else ``slow`` if it is
    strictly above the p95 of the run's traces, else None.
    """
    entries: dict[str, dict[str, Any]] = {}

    def visit(node: dict[str, Any], parent_id: Optional[str]) -> None:
        trace_id = node.get("trace_id")
        if trace_id and trace_id != parent_id and trace_id not in entries:
            entries[trace_id] = {
                "trace_id": trace_id,
                "duration_s": float(node.get("seconds", 0.0)),
                "root": node,
            }
        for child in node.get("children", []):
            visit(child, trace_id)

    for root in run.trace or []:
        visit(root, None)
    p95 = _metrics.percentile(
        sorted(entry["duration_s"] for entry in entries.values()), 0.95
    )
    for entry in entries.values():
        root = entry["root"]
        if any(node.get("error") for node in _walk(root)):
            entry["label"] = "error"
        elif int((root.get("attrs") or {}).get("low_quality") or 0) > 0:
            entry["label"] = "low_quality"
        elif entry["duration_s"] > p95:
            entry["label"] = "slow"
        else:
            entry["label"] = None
    return list(entries.values())


def format_label_counts(entries: list[dict[str, Any]]) -> str:
    """``N traces (error ×a, low_quality ×b, slow ×c)``."""
    counts = ", ".join(
        f"{label} ×{sum(entry['label'] == label for entry in entries)}"
        for label in LABELS
    )
    return f"{len(entries)} traces ({counts})"


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


def dropped_roots_note(run: Run) -> Optional[str]:
    """What ``trace.json`` lost to the root-span ring; None when nothing.

    Every total over ``run.trace`` (hottest spans, self time by layer,
    ``repro diff``) covers only the retained roots, so each view prints
    this line next to them. The count is the run's ``trace`` row.
    """
    rows = run.stream("trace")
    dropped = int(rows[-1].get("roots_dropped") or 0) if rows else 0
    if not dropped:
        return None
    return (
        f"{dropped} older root spans not retained (window "
        f"{trace_mod.MAX_ROOTS}); totals cover the retained tail"
    )


def aggregate_spans(
    roots: list[dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Per-span-name rollup over span trees.

    ``count``, ``total_s``, ``self_s`` and every duration (``seconds``,
    in walk order) — the one pass the report, ``analyze`` and ``diff``
    all read.
    """
    rollup: dict[str, dict[str, Any]] = {}
    for root in roots:
        for node in _walk(root):
            children = list(node.get("children", []))
            lo, hi = _interval(node)
            covered = _union_length(
                [_interval(child) for child in children], lo, hi
            )
            seconds = float(node.get("seconds", 0.0))
            row = rollup.setdefault(
                node.get("name", "?"),
                {"count": 0, "total_s": 0.0, "self_s": 0.0, "seconds": []},
            )
            row["count"] += 1
            row["seconds"].append(seconds)
            row["total_s"] += seconds
            row["self_s"] += max(0.0, seconds - covered)
    return rollup


def diff_runs(run_a: Run, run_b: Run) -> dict[str, Any]:
    """Per-span-name p50/p95 deltas between two runs, with a verdict.

    A span name REGRESSED when B's p95 exceeds A's by both
    ``REGRESSION_FACTOR`` and ``REGRESSION_FLOOR_S``; it improved on
    the mirrored condition; otherwise it is ok. Names present in only
    one run are reported but never change the verdict.
    """
    a, b = (aggregate_spans(run.trace or []) for run in (run_a, run_b))
    rows: list[dict[str, Any]] = []
    regressions = 0
    for name in sorted(set(a) | set(b)):
        in_a, in_b = (
            sorted(rollup[name]["seconds"]) if name in rollup else []
            for rollup in (a, b)
        )
        row: dict[str, Any] = {
            "name": name,
            "count_a": len(in_a),
            "count_b": len(in_b),
        }
        if in_a and in_b:
            p50_a, p95_a = (_metrics.percentile(in_a, q) for q in (0.5, 0.95))
            p50_b, p95_b = (_metrics.percentile(in_b, q) for q in (0.5, 0.95))
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
        "run_a": run_a.directory,
        "run_b": run_b.directory,
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
    lines = [
        f"trace {entry.get('trace_id')}"
        f"  {float(entry.get('duration_s', 0.0)) * 1e3:.3f} ms"
        + (f"  label: {entry['label']}" if entry.get("label") else "")
    ]
    root = entry.get("root") or {}
    lines.append(trace_mod.format_tree([root]))
    lines.extend(format_critical_path(critical_path(root)))
    return "\n".join(lines)


def render_analysis(
    run: Run, trace_id: Optional[str] = None, n_slowest: int = 5
) -> tuple[int, str]:
    """``repro analyze``: ``(exit code, text)`` for one run.

    One trace by id (or unique prefix), else the ``n_slowest`` retained
    traces with their critical paths and a per-span self-time rollup.
    """
    entries = retained_traces(run)
    if not entries:
        return 1, (
            f"no retained traces under {run.directory}/ — traces need ids; "
            "record the run with observability enabled"
        )
    if trace_id:
        entry = find_trace(entries, trace_id)
        if entry is None:
            return 1, (
                f"trace {trace_id!r} not found in {run.directory}/ "
                f"({len(entries)} retained traces; try --slowest)"
            )
        return 0, format_trace_entry(entry)

    shown = slowest(entries, n_slowest)
    lines = [format_label_counts(entries), ""]
    lines += [f"slowest {len(shown)} of {len(entries)} retained traces:", ""]
    for entry in shown:
        lines += [format_trace_entry(entry), ""]
    rollup = aggregate_spans([entry.get("root") or {} for entry in shown])
    ranked = sorted(rollup.items(), key=lambda kv: -kv[1]["self_s"])[:10]
    if ranked:
        lines.append("per-span self time across shown traces:")
        for name, row in ranked:
            lines.append(
                f"  {name:<44} ×{row['count']:<4.0f}"
                f" total {row['total_s'] * 1e3:9.3f} ms"
                f"  self {row['self_s'] * 1e3:9.3f} ms"
            )
    return 0, "\n".join(lines)


def render_diff(run_a: Run, run_b: Run) -> str:
    """``repro diff``: the per-span latency table of :func:`diff_runs`."""
    diff = diff_runs(run_a, run_b)
    lines = [
        f"span latency diff: {diff['run_a']} -> {diff['run_b']}",
        f"  {'span':<44} {'n(a)':>5} {'n(b)':>5} "
        f"{'p50 a→b ms':>21} {'p95 a→b ms':>21}  verdict",
    ]
    for row in diff["spans"]:
        if "p95_a" in row:
            p50 = f"{row['p50_a'] * 1e3:9.3f}→{row['p50_b'] * 1e3:9.3f}"
            p95 = f"{row['p95_a'] * 1e3:9.3f}→{row['p95_b'] * 1e3:9.3f}"
        else:
            p50 = p95 = "-"
        lines.append(
            f"  {row['name']:<44} {row['count_a']:>5} {row['count_b']:>5} "
            f"{p50:>21} {p95:>21}  {row['verdict']}"
        )
    for run in (run_a, run_b):
        note = dropped_roots_note(run)
        if note:
            lines.append(f"  {run.directory}: {note}")
    lines.append(f"verdict: {diff['verdict']}")
    return "\n".join(lines)
