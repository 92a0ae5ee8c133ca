"""``repro watch`` — a dependency-free live ops console for a run dir.

Renders one operator-facing text frame from a loaded
:class:`~repro.obs.rundir.Run` — the artifacts a live run flushes
periodically (the telemetry JSONL and its rotated set and, for a
profiled run, the collapsed stacks and ``memory.json``) and
``trace.json``, written at finish:

* how many traces the run holds, by label (error / low_quality /
  slow — :func:`repro.obs.analyze.retained_traces`);
* rolling throughput — QPS plus p50/p95 latency over the trailing
  window of ``query`` telemetry records;
* answer quality — :func:`repro.obs.quality.accounting` (audited
  recall, audit overhead; "unverified" without audits) next to the
  calibration bias;
* SLO burn — every objective's value and burn rate
  (:func:`repro.obs.slo.statuses`), alerting ones with their worst
  trace ids;
* for a profiled run: hot functions (self time), samples by enclosing
  span, traced memory and leak suspects;
* health counts and the last alerts — :func:`repro.obs.health.alerts`
  over the loaded run, the same fold ``repro report`` prints.

The frame only *reads* what :func:`repro.obs.rundir.load` returns, so it
can watch a run owned by another process; the CLI reloads and refreshes
the frame in place (``--once`` prints a single snapshot for CI). "Now"
is taken from the newest record timestamp rather than the wall clock,
so a snapshot of a finished run renders the same frame every time.
"""

from __future__ import annotations

from . import analyze as analyze_mod
from . import health as health_mod
from . import metrics as metrics_mod
from . import profiler as profiler_mod
from . import quality as quality_mod
from . import slo as slo_mod
from .rundir import Run

#: Trailing window (seconds of record time) for the QPS rate.
QPS_WINDOW_S = 60.0

#: Trailing query records for the latency percentiles.
LATENCY_WINDOW = 100


def render_watch(run: Run, width: int = 78) -> str:
    """One text frame of the ops view ``repro watch`` refreshes."""

    def rule(title: str) -> str:
        return f"── {title} " + "─" * max(0, width - len(title) - 4)

    found = health_mod.alerts(run)
    lines = [f"repro watch — {run.directory}"]
    lines.append(f"telemetry: {len(run.records)} records")
    lines.append(analyze_mod.format_label_counts(
        analyze_mod.retained_traces(run)
    ))

    # -- rolling throughput ------------------------------------------ #
    lines.append(rule("throughput"))
    query_records = run.stream("query")
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
            f"p50 {metrics_mod.percentile(latencies, 0.50) * 1e3:.1f} ms  "
            f"p95 {metrics_mod.percentile(latencies, 0.95) * 1e3:.1f} ms "
            f"(trailing {len(latencies)})"
        )
    else:
        lines.append("  (no query records yet)")

    # -- answer quality ---------------------------------------------- #
    lines.append(rule("answer quality"))
    summary = quality_mod.accounting(run)
    qcounts = summary["counts"]
    recall = summary["mean_recall"]
    bias = health_mod.calibration_bias(run)
    lines.append(
        f"  audits {qcounts['audits']}/{qcounts['approx_queries']} approx "
        "answers | recall "
        + (f"{recall:.3f}" if recall is not None else "-")
        + " | bias "
        + (f"{bias:+.3f}" if bias is not None else "-")
        + f" | overhead {summary['overhead_fraction']:.2%} | "
        f"low-quality {qcounts['low_quality']} | drift events "
        f"{sum(a.rule == 'quality_calibration_drift' for a in found)}"
    )
    if not qcounts["audits"]:
        lines.append("  unverified — no shadow audits recorded")

    # -- SLO burn ---------------------------------------------------- #
    lines.append(rule("SLO burn"))
    statuses = slo_mod.statuses(run)
    for status in statuses:
        value = status.get("value")
        shown = "-" if value is None else f"{value:.4g}"
        burn = (
            f"burn {status.get('burn_rate', 0.0):5.1f}x"
            if status.get("kind") != "gauge"
            else "gauge      "
        )
        marker = status.get("severity") or ("ok" if status.get("ok") else "!!")
        lines.append(
            f"  {status.get('spec', '?'):<38} {shown:>10}  {burn}  {marker}"
        )
        exemplars = status.get("exemplar_trace_ids") or []
        if status.get("severity") and exemplars:
            shown_ids = ", ".join(tid[:16] for tid in exemplars[:3])
            lines.append(
                f"    worst traces: {shown_ids}  (repro analyze --trace <id>)"
            )
    if not statuses:
        lines.append("  (no SLOs recorded)")

    # -- CPU profile + memory (profiled runs only) -------------------- #
    if run.profile:
        lines.append(rule("hot functions (self time)"))
        for frame, samples, fraction in profiler_mod.hot_functions_of(
            run.profile, n=8
        ):
            lines.append(f"  {fraction:6.1%} {samples:>6}  {frame}")
        lines.append(rule("samples by span"))
        total = sum(run.profile.values())
        spans = sorted(
            profiler_mod.span_samples_of(run.profile).items(),
            key=lambda kv: -kv[1],
        )
        for name, samples in spans[:6]:
            lines.append(f"  {samples / total:6.1%} {samples:>6}  {name}")
    if run.memory:
        lines.append(rule("memory"))
        lines.append(
            f"  traced {run.memory.get('current_kb', 0.0):,.0f} KiB "
            f"(peak {run.memory.get('peak_kb', 0.0):,.0f}) | "
            f"RSS {run.memory.get('rss_kb', 0.0):,.0f} KiB"
        )
        for check in (run.memory.get("epochs") or {}).values():
            if check.get("suspect"):
                lines.append(
                    f"  LEAK? {check['phase']}: +{check.get('growth_bytes', 0)}"
                    " bytes over trailing epochs"
                )

    # -- recent health ------------------------------------------------ #
    counts = health_mod.counts(found)
    lines.append(rule("health"))
    lines.append(f"  {counts['CRIT']} CRIT, {counts['WARN']} WARN")
    for alert in found[-3:]:
        lines.append(f"  {alert.severity:>4} {alert.rule}: {alert.message}")
    if run.records:
        lines.append(rule("last events"))
        for record in run.records[-5:]:
            lines.append(
                f"  #{record.get('seq', '?'):>5} {record.get('stream', '?')}"
            )
    return "\n".join(lines)
