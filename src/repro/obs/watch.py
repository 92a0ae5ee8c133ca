"""``repro watch`` — a dependency-free live ops console for a run dir.

Tails the artifacts a live run flushes periodically (the telemetry
JSONL and its rotated set, ``quality.json``, ``traces.json``,
``slo.json``) and renders
one operator-facing text frame:

* rolling throughput — QPS plus p50/p95 latency over the trailing
  window of ``query`` telemetry records;
* answer quality — shadow-audit accounting from ``quality.json``
  (audited recall, calibration bias, audit overhead);
* tail-sampler keep reasons from ``traces.json`` — why retained traces
  were kept (error / low_quality / slow / …) and how many were shed;
* active SLO burn alerts from ``slo.json``.

Like ``repro top``, this module only *reads* files, so it can watch a
run owned by another process; the CLI refreshes the frame in place
(``--once`` prints a single snapshot for CI). "Now" is taken from the
newest record timestamp rather than the wall clock, so a snapshot of a
finished run renders the same frame every time.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from . import QUALITY_FILE, SLO_FILE, TELEMETRY_FILE, TRACES_FILE
from . import health as health_mod
from . import telemetry as telemetry_mod

#: Trailing window (seconds of record time) for the QPS rate.
QPS_WINDOW_S = 60.0

#: Trailing query records for the latency percentiles.
LATENCY_WINDOW = 100


def _load_json(path: str) -> Optional[Any]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(
        len(sorted_values) - 1, max(0, round(q / 100.0 * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def render_watch(run_dir: str, width: int = 78) -> str:
    """One text frame of the ops view ``repro watch`` refreshes."""

    def rule(title: str) -> str:
        return f"── {title} " + "─" * max(0, width - len(title) - 4)

    records = telemetry_mod.load_run(os.path.join(run_dir, TELEMETRY_FILE))
    lines = [f"repro watch — {run_dir}"]
    lines.append(f"telemetry: {len(records)} records")

    # -- rolling throughput ------------------------------------------ #
    lines.append(rule("throughput"))
    query_records = [r for r in records if r.get("stream") == "query"]
    if query_records:
        timestamps = [float(r.get("ts", 0.0)) for r in query_records]
        now = max(timestamps)
        in_window = sum(1 for ts in timestamps if now - ts <= QPS_WINDOW_S)
        qps = in_window / QPS_WINDOW_S
        latencies = sorted(
            float(r.get("elapsed_seconds", 0.0))
            for r in query_records[-LATENCY_WINDOW:]
        )
        lines.append(
            f"  {len(query_records)} queries | last {QPS_WINDOW_S:.0f}s: "
            f"{in_window} ({qps:.2f} qps) | "
            f"p50 {_percentile(latencies, 50.0) * 1e3:.1f} ms  "
            f"p95 {_percentile(latencies, 95.0) * 1e3:.1f} ms "
            f"(trailing {len(latencies)})"
        )
    else:
        lines.append("  (no query records yet)")

    # -- answer quality ---------------------------------------------- #
    lines.append(rule("answer quality"))
    quality_doc = _load_json(os.path.join(run_dir, QUALITY_FILE))
    if quality_doc:
        qcounts = quality_doc.get("counts", {})
        recall = quality_doc.get("mean_recall")
        bias = quality_doc.get("calibration_bias")
        overhead = quality_doc.get("overhead_fraction", 0.0)
        lines.append(
            f"  audits {qcounts.get('audits', 0)}/"
            f"{qcounts.get('approx_queries', 0)} approx answers | "
            f"recall "
            + (f"{float(recall):.3f}" if recall is not None else "-")
            + f" | bias "
            + (f"{float(bias):+.3f}" if bias is not None else "-")
            + f" | overhead {float(overhead or 0.0):.2%} | "
            f"low-quality {qcounts.get('low_quality', 0)} | "
            f"drift events {qcounts.get('drift_events', 0)}"
        )
    else:
        lines.append("  (no quality.json yet — shadow auditing disabled)")

    # -- tail-sampler keep reasons ------------------------------------ #
    lines.append(rule("trace keep reasons"))
    traces_doc = _load_json(os.path.join(run_dir, TRACES_FILE))
    tcounts = (traces_doc or {}).get("counts") or {}
    kept_by_reason = {
        name[len("kept_"):]: count
        for name, count in tcounts.items()
        if name.startswith("kept_") and count
    }
    if tcounts:
        kept_note = (
            ", ".join(
                f"{reason} ×{count}"
                for reason, count in sorted(
                    kept_by_reason.items(), key=lambda kv: -kv[1]
                )
            )
            or "none kept"
        )
        lines.append(
            f"  kept {sum(kept_by_reason.values())}"
            f"/{tcounts.get('offered', 0)} offered ({kept_note}) | "
            f"head-dropped {tcounts.get('dropped_head', 0)} | "
            f"evicted {tcounts.get('evicted', 0)}"
        )
    else:
        lines.append("  (no traces.json yet)")

    # -- SLO burn ---------------------------------------------------- #
    lines.append(rule("SLO burn"))
    slo_doc = _load_json(os.path.join(run_dir, SLO_FILE))
    active = [
        status
        for status in (slo_doc or {}).get("objectives", [])
        if status.get("severity")
    ]
    if active:
        for status in active:
            value = status.get("value")
            shown = "-" if value is None else f"{value:.4g}"
            lines.append(
                f"  {status.get('severity')}: {status.get('spec', '?'):<38} "
                f"{shown:>10}  burn {status.get('burn_rate', 0.0):.1f}x"
            )
            exemplars = status.get("exemplar_trace_ids") or []
            if exemplars:
                shown_ids = ", ".join(tid[:16] for tid in exemplars[:3])
                lines.append(
                    f"    worst traces: {shown_ids}"
                    "  (repro analyze --trace <id>)"
                )
    elif slo_doc and slo_doc.get("objectives"):
        lines.append("  all objectives within budget")
    else:
        lines.append("  (no slo.json yet)")

    # -- recent health ------------------------------------------------ #
    health_records = [r for r in records if r.get("stream") == "health"]
    crit = sum(
        1 for r in health_records if r.get("severity") == health_mod.CRIT
    )
    warn = sum(
        1 for r in health_records if r.get("severity") == health_mod.WARN
    )
    lines.append(rule("health"))
    lines.append(f"  {crit} CRIT, {warn} WARN")
    for record in health_records[-3:]:
        lines.append(
            f"  {record.get('severity', '?'):>4} {record.get('rule', '?')}: "
            f"{record.get('message', '')}"
        )
    return "\n".join(lines)
