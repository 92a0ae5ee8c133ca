"""``repro report``: fuse one recorded run into a single diagnostic artifact.

Reads the files an observability run leaves behind (``telemetry.jsonl``,
``metrics.json``, ``trace.json``) plus the benchmark trajectory
(``bench_results/*.json`` and the committed ``BENCH_*.json`` baselines)
and renders one self-contained markdown — or, with inline CSS, HTML —
document: run summary, health verdict with every alert, training
trajectory, query-plan statistics, estimator calibration, metrics
tables, the hottest trace spans, and the bench trajectory with its
provenance. No network access, no dependencies beyond the stdlib.

Health alerts are *re-derived* by replaying the recorded telemetry
through :mod:`repro.obs.health`, so reports work on runs recorded
before the monitor existed and always reflect the current rule pack.
"""

from __future__ import annotations

import glob
import json
import os
import re
from html import escape
from typing import Any, Optional, Sequence

from . import (
    CHROME_TRACE_FILE,
    FLAMEGRAPH_FILE,
    MEMORY_FILE,
    METRICS_FILE,
    PROFILE_COLLAPSED_FILE,
    QUALITY_FILE,
    SLO_FILE,
    TELEMETRY_FILE,
    TRACE_FILE,
)
from . import health as health_mod
from . import profiler as profiler_mod
from . import telemetry as telemetry_mod

#: How many trailing entries the tables show.
_LAST_UPDATES = 10
_LAST_PLANS = 3
_TOP_SPANS = 12


# ------------------------------------------------------------------ #
# markdown building blocks
# ------------------------------------------------------------------ #
def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value).replace("|", "\\|")  # keep pipes out of the grid

    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(v) for v in row) + " |")
    return "\n".join(lines)


def _load_json(path: str) -> Optional[Any]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


# ------------------------------------------------------------------ #
# sections
# ------------------------------------------------------------------ #
def _section_summary(
    run_dir: str,
    records: list[dict],
    monitor: health_mod.HealthMonitor,
) -> list[str]:
    updates = [r for r in records if r.get("stream") == "train.update"]
    queries = [r for r in records if r.get("stream") == "query"]
    plans = [r for r in records if r.get("stream") == "plan"]
    counts = monitor.counts()
    verdict = monitor.worst_severity() or "HEALTHY"
    lines = [
        "## Run summary",
        "",
        f"- run directory: `{run_dir}`",
        f"- health verdict: **{verdict}** "
        f"({counts.get('CRIT', 0)} CRIT, {counts.get('WARN', 0)} WARN)",
        f"- telemetry records: {len(records)} "
        f"({len(updates)} training updates, {len(queries)} queries, "
        f"{len(plans)} captured plans)",
    ]
    present = [
        name
        for name in (
            TELEMETRY_FILE,
            METRICS_FILE,
            TRACE_FILE,
            CHROME_TRACE_FILE,
            PROFILE_COLLAPSED_FILE,
            FLAMEGRAPH_FILE,
            MEMORY_FILE,
            SLO_FILE,
            QUALITY_FILE,
        )
        if os.path.exists(os.path.join(run_dir, name))
    ]
    rotated = telemetry_mod.rotated_paths(os.path.join(run_dir, TELEMETRY_FILE))
    if len(rotated) > 1:
        lines.append(
            f"- telemetry sink rotated: {len(rotated)} files in the set"
        )
    lines.append(f"- artifacts read: {', '.join(f'`{p}`' for p in present)}")
    return lines


def _section_health(monitor: health_mod.HealthMonitor) -> list[str]:
    lines = ["## Health alerts", ""]
    if not monitor.alerts:
        lines.append("No alerts — every rule stayed inside its thresholds.")
        return lines
    rows = [
        [
            alert.severity,
            alert.rule,
            "-" if alert.iteration is None else alert.iteration,
            "-" if alert.value is None else f"{alert.value:.4g}",
            "-" if alert.threshold is None else f"{alert.threshold:.4g}",
            alert.message,
        ]
        for alert in monitor.alerts
    ]
    lines.append(_md_table(
        ["severity", "rule", "iter", "value", "threshold", "message"], rows
    ))
    return lines


def _section_training(records: list[dict]) -> list[str]:
    updates = [r for r in records if r.get("stream") == "train.update"]
    lines = ["## Training trajectory", ""]
    if not updates:
        lines.append("No `train.update` records in this run.")
        return lines
    rewards = [float(u.get("mean_episode_reward", 0.0)) for u in updates]
    if len(rewards) >= 2:
        from ..bench.reporting import ascii_chart

        lines += [
            "```",
            ascii_chart(
                {"mean_episode_reward": rewards},
                [u.get("iteration", i) for i, u in enumerate(updates)],
                title="mean episode reward per iteration",
            ),
            "```",
            "",
        ]
    tail = updates[-_LAST_UPDATES:]
    lines.append(_md_table(
        ["iter", "reward", "kl", "entropy", "clip%", "expl.var", "grad norm"],
        [
            [
                u.get("iteration"),
                float(u.get("mean_episode_reward", 0.0)),
                float(u.get("kl_divergence", 0.0)),
                float(u.get("entropy", 0.0)),
                100.0 * float(u.get("clip_fraction", 0.0)),
                float(u.get("explained_variance", 0.0)),
                float(u.get("grad_norm", 0.0)),
            ]
            for u in tail
        ],
    ))
    return lines


def _section_plans(records: list[dict]) -> list[str]:
    plans = [r for r in records if r.get("stream") == "plan"]
    lines = ["## Query plans", ""]
    if not plans:
        lines.append(
            "No captured plans — record some with "
            "`repro explain \"<sql>\" --analyze --telemetry <dir>`."
        )
        return lines
    for record in plans[-_LAST_PLANS:]:
        max_q = record.get("max_q_error")
        lines += [
            f"### `{record.get('sql', '?')}`",
            "",
            f"total {1e3 * float(record.get('total_seconds') or 0.0):.2f} ms, "
            f"max q-error {max_q if max_q is not None else 'n/a'}",
            "",
            _md_table(
                ["operator", "label", "est rows", "act rows", "q-error", "ms"],
                [
                    [
                        op.get("op"),
                        op.get("label", ""),
                        op.get("estimated_rows", "-"),
                        op.get("actual_rows", "-"),
                        op.get("q_error", "-"),
                        (
                            f"{1e3 * float(op['seconds']):.2f}"
                            if op.get("seconds") is not None
                            else "-"
                        ),
                    ]
                    for op in record.get("operators", [])
                ],
            ),
            "",
        ]
    return lines


def _section_queries(records: list[dict]) -> list[str]:
    queries = [r for r in records if r.get("stream") == "query"]
    lines = ["## Queries & estimator calibration", ""]
    if not queries:
        lines.append("No routed queries in this run.")
        return lines
    approx = sum(1 for q in queries if q.get("used_approximation"))
    errors = [
        abs(float(q["confidence"]) - float(q["realized_frame_score"]))
        for q in queries
        if q.get("confidence") is not None
        and q.get("realized_frame_score") is not None
    ]
    drifts = sum(1 for q in queries if q.get("drift"))
    lines += [
        f"- {len(queries)} queries: {approx} answered from the approximation "
        f"set, {len(queries) - approx} from the full database",
        f"- mean |confidence − realized frame score|: "
        f"{(sum(errors) / len(errors)):.3f}" if errors else
        "- no calibration pairs recorded",
        f"- drift events observed: {drifts}",
    ]
    return lines


#: Predicted-confidence bins for the audit calibration table.
_CALIBRATION_BINS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.01))


def _section_quality(
    records: list[dict], quality_doc: Optional[dict]
) -> list[str]:
    """Answer quality: shadow audits, calibration, and drift.

    Per-audit rows come from the recorded ``quality`` telemetry stream
    (one record per shadow audit, trace-stamped); the run-level
    accounting comes from ``quality.json``. When neither exists the
    section says so explicitly — a run without ground-truth audits
    should read as "unverified", not render as silently healthy.
    """
    quality_records = [r for r in records if r.get("stream") == "quality"]
    audits = [r for r in quality_records if r.get("kind") == "audit"]
    drifts = [
        r for r in quality_records if r.get("kind") == "calibration_drift"
    ]
    lines = ["## Answer quality", ""]
    if not quality_records and not quality_doc:
        lines.append(
            "No audit data recorded in this run — answer quality is "
            "unverified. Enable shadow auditing with `repro audit "
            "--smoke`, `obs.run(audit_rate=...)`, or `REPRO_AUDIT_RATE`."
        )
        return lines
    counts = (quality_doc or {}).get("counts", {})
    if counts:
        lines.append(
            f"- {counts.get('queries', 0)} queries observed "
            f"({counts.get('approx_queries', 0)} served from the "
            f"approximation set), {counts.get('audits', 0)} shadow-audited "
            f"({counts.get('skipped_coin', 0)} skipped by the sampling "
            f"coin, {counts.get('skipped_budget', 0)} by the overhead "
            "budget)"
        )
        overhead = quality_doc.get("overhead_fraction")
        if overhead is not None:
            budget = quality_doc.get("max_overhead")
            lines.append(
                f"- audit overhead: {float(overhead):.2%} of serving time "
                f"(sample rate {quality_doc.get('sample_rate', '?')}, "
                f"budget "
                f"{f'{float(budget):.0%}' if budget is not None else 'unbounded'})"
            )
        recall = quality_doc.get("mean_recall")
        if recall is not None:
            agg = quality_doc.get("mean_agg_rel_error")
            agg_note = (
                f", mean aggregate relative error {float(agg):.3f}"
                if agg is not None
                else ""
            )
            lines.append(
                f"- audited recall: mean {float(recall):.3f}{agg_note}; "
                f"{counts.get('low_quality', 0)} low-quality answers"
            )
        bias = quality_doc.get("calibration_bias")
        if bias is not None:
            lines.append(
                f"- calibration bias (predicted − observed): "
                f"{float(bias):+.3f} over the rolling window; "
                f"{counts.get('drift_events', 0)} drift escalations"
            )
    for record in drifts[-2:]:
        lines.append(
            f"- **calibration drift ({record.get('severity', '?')})**: "
            f"bias {float(record.get('bias', 0.0)):+.2f} over "
            f"{record.get('window', '?')} approximation answers"
        )
    pairs = [
        (float(r["predicted"]), float(r["observed"]), float(r["recall"]))
        for r in audits
        if r.get("predicted") is not None
        and r.get("observed") is not None
        and r.get("recall") is not None
    ]
    if pairs:
        lines += ["", "### Calibration (predicted vs audited)", ""]
        rows = []
        for low, high in _CALIBRATION_BINS:
            binned = [p for p in pairs if low <= p[0] < high]
            if not binned:
                continue
            mean_pred = sum(p[0] for p in binned) / len(binned)
            mean_obs = sum(p[1] for p in binned) / len(binned)
            mean_recall = sum(p[2] for p in binned) / len(binned)
            rows.append([
                f"[{low:.2f}, {min(high, 1.0):.2f})",
                len(binned),
                f"{mean_pred:.3f}",
                f"{mean_obs:.3f}",
                f"{mean_recall:.3f}",
                f"{mean_pred - mean_obs:+.3f}",
            ])
        lines.append(_md_table(
            [
                "predicted bin", "audits", "mean predicted",
                "mean observed", "mean recall", "bias",
            ],
            rows,
        ))
    elif not counts:
        lines.append(
            "Quality telemetry present but no completed audits — the "
            "sampling coin or the overhead budget skipped every candidate."
        )
    worst = sorted(
        audits,
        key=lambda r: float(r.get("recall", 1.0)),
    )[:5]
    if worst:
        lines += ["", "### Worst audited answers", ""]
        lines.append(_md_table(
            ["trace", "recall", "agg rel err", "predicted", "sql"],
            [
                [
                    f"`{str(r.get('trace_id', '?'))[:16]}`",
                    f"{float(r.get('recall', 0.0)):.3f}",
                    (
                        f"{float(r['agg_rel_error']):.3f}"
                        if r.get("agg_rel_error") is not None
                        else "-"
                    ),
                    f"{float(r.get('predicted', 0.0)):.3f}",
                    f"`{str(r.get('sql', ''))[:60]}`",
                ]
                for r in worst
            ],
        ))
        lines += [
            "",
            "Resolve a trace with `repro analyze --trace <id>`.",
        ]
    return lines


def _section_storage(snapshot: Optional[dict]) -> list[str]:
    """Zone-map pruning counters, interpreted."""
    lines = ["## Column store", ""]
    counters = (snapshot or {}).get("counters", {})
    blocks_total = counters.get("scan.blocks_total", 0)
    blocks_pruned = counters.get("scan.blocks_pruned", 0)
    if not blocks_total:
        lines.append(
            "No scan metrics in this run — they appear once queries "
            "execute against zone-mapped tables."
        )
        return lines
    lines.append(
        f"- zone-map pruning: {blocks_pruned:.0f} of {blocks_total:.0f} "
        f"scan blocks skipped ({blocks_pruned / blocks_total:.1%})"
    )
    return lines


def _section_metrics(snapshot: Optional[dict]) -> list[str]:
    lines = ["## Metrics", ""]
    if not snapshot:
        lines.append("No `metrics.json` in this run.")
        return lines
    scalars = sorted(
        {**snapshot.get("counters", {}), **snapshot.get("gauges", {})}.items()
    )
    if scalars:
        lines.append(_md_table(["counter / gauge", "value"], scalars))
        lines.append("")
    histograms = sorted(snapshot.get("histograms", {}).items())
    if histograms:
        lines.append(_md_table(
            ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
            [
                [
                    name,
                    h.get("count"),
                    h.get("mean"),
                    h.get("p50"),
                    h.get("p95"),
                    h.get("p99"),
                    h.get("max"),
                ]
                for name, h in histograms
            ],
        ))
    return lines


def _aggregate_spans(nodes: list[dict]) -> dict[str, tuple[int, float]]:
    totals: dict[str, tuple[int, float]] = {}
    stack = list(nodes)
    while stack:
        node = stack.pop()
        count, seconds = totals.get(node.get("name", "?"), (0, 0.0))
        totals[node.get("name", "?")] = (
            count + 1,
            seconds + float(node.get("seconds", 0.0)),
        )
        stack.extend(node.get("children", []))
    return totals


def _section_trace(nodes: Optional[list]) -> list[str]:
    lines = ["## Hottest spans", ""]
    if not nodes:
        lines.append("No `trace.json` in this run.")
        return lines
    totals = _aggregate_spans(nodes)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])[:_TOP_SPANS]
    lines.append(_md_table(
        ["span", "count", "total ms"],
        [[name, count, 1e3 * seconds] for name, (count, seconds) in ranked],
    ))
    return lines


def _section_slowest_traces(run_dir: str) -> list[str]:
    """Top retained traces with their critical paths (tail sampler)."""
    # Imported lazily: analyze pulls artifact-name constants from this
    # package, so an eager import would cycle.
    from . import analyze as analyze_mod

    lines = ["## Slowest traces", ""]
    entries = analyze_mod.load_traces(run_dir)
    if not entries:
        lines.append(
            "No retained traces in this run — record one with "
            "observability enabled (`repro explain --analyze "
            "--telemetry DIR`)."
        )
        return lines
    rows = []
    for entry in analyze_mod.slowest(entries, 5):
        path = analyze_mod.critical_path(entry.get("root") or {})
        hottest = max(path, key=lambda row: row.get("self_s", 0.0)) if path else {}
        rows.append([
            f"`{str(entry.get('trace_id', '?'))[:16]}`",
            1e3 * float(entry.get("duration_s", 0.0)),
            entry.get("reason", "?"),
            hottest.get("name", "-"),
            1e3 * float(hottest.get("self_s", 0.0)),
        ])
    lines.append(_md_table(
        ["trace", "total ms", "kept", "critical span", "self ms"],
        rows,
    ))
    summary = analyze_mod.sampler_summary(run_dir)
    counts = (summary or {}).get("counts") or {}
    if counts:
        kept = sum(v for k, v in counts.items() if k.startswith("kept_"))
        lines += [
            "",
            f"Tail sampler: {counts.get('offered', 0)} traces offered, "
            f"{kept} kept, {counts.get('dropped_head', 0)} head-dropped, "
            f"{counts.get('evicted', 0)} evicted. Inspect one with "
            "`repro analyze --trace <id>`.",
        ]
    return lines


def _section_slo(slo_doc: Optional[dict]) -> list[str]:
    lines = ["## Service-level objectives", ""]
    if not slo_doc or not slo_doc.get("objectives"):
        lines.append(
            "No `slo.json` in this run — record one with "
            "`repro profile <command>` or `obs.run(slo_objectives=...)`."
        )
        return lines
    lines += [
        f"Windows: {slo_doc.get('window')} samples slow / "
        f"{slo_doc.get('fast_window')} fast; alert when both burn ≥ "
        f"{slo_doc.get('warn_burn_rate')}x (WARN) / "
        f"{slo_doc.get('crit_burn_rate')}x (CRIT).",
        "",
    ]
    rows = []
    for status in slo_doc["objectives"]:
        value = status.get("value")
        rows.append([
            status.get("spec"),
            "-" if value is None else f"{value:.4g}",
            status.get("n_samples", 0),
            "ok" if status.get("ok") else "VIOLATED",
            f"{status.get('burn_rate', 0.0):.1f}x"
            if status.get("kind") != "gauge" else "-",
            status.get("severity") or "-",
        ])
    lines.append(_md_table(
        ["objective", "value", "samples", "status", "burn", "severity"], rows
    ))
    return lines


def _section_profile(
    run_dir: str,
    counts: Optional[dict],
    memory_doc: Optional[dict],
) -> list[str]:
    lines = ["## CPU & memory profile", ""]
    if not counts and not memory_doc:
        lines.append(
            "No profile in this run — record one with "
            "`repro profile <command>`."
        )
        return lines
    if counts:
        total = sum(counts.values())
        lines.append(
            f"{total} samples across {len(counts)} unique stacks — "
            f"interactive view: `{os.path.join(run_dir, FLAMEGRAPH_FILE)}`"
        )
        lines.append("")
        hot = profiler_mod.hot_functions_of(counts, n=_TOP_SPANS)
        if hot:
            lines.append("### Hot functions (self time)")
            lines.append("")
            lines.append(_md_table(
                ["frame", "samples", "share"],
                [
                    [frame, samples, f"{fraction:.1%}"]
                    for frame, samples, fraction in hot
                ],
            ))
            lines.append("")
        spans = sorted(
            profiler_mod.span_samples_of(counts).items(), key=lambda kv: -kv[1]
        )
        if spans:
            lines.append("### Samples by enclosing span")
            lines.append("")
            lines.append(_md_table(
                ["span", "samples", "share"],
                [
                    [name, samples, f"{samples / total:.1%}"]
                    for name, samples in spans[:_TOP_SPANS]
                ],
            ))
            lines.append("")
    if memory_doc:
        lines.append("### Memory (tracemalloc)")
        lines.append("")
        lines.append(
            f"- traced: {memory_doc.get('current_kb', 0.0):.0f} KiB current, "
            f"{memory_doc.get('peak_kb', 0.0):.0f} KiB peak; "
            f"RSS {memory_doc.get('rss_kb', 0.0):.0f} KiB"
        )
        suspects = [
            check
            for check in (memory_doc.get("epochs") or {}).values()
            if check.get("suspect")
        ]
        if suspects:
            for check in suspects:
                lines.append(
                    f"- **leak suspect**: phase `{check['phase']}` grew "
                    f"monotonically over its trailing epochs "
                    f"({check.get('growth_bytes', 0)} bytes)"
                )
        elif memory_doc.get("epochs"):
            lines.append(
                f"- leak check: {len(memory_doc['epochs'])} phases, "
                "no monotone growth"
            )
        top = memory_doc.get("growth_since_start") or memory_doc.get(
            "top_allocators"
        )
        if top:
            lines.append("")
            lines.append(_md_table(
                ["allocation site", "KiB", "blocks"],
                [
                    [row.get("site"), row.get("size_kb"), row.get("count")]
                    for row in top[:10]
                ],
            ))
    return lines


def _load_profile_counts(run_dir: str) -> Optional[dict]:
    path = os.path.join(run_dir, PROFILE_COLLAPSED_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return profiler_mod.parse_collapsed(handle.read())


def _section_bench(bench_dir: Optional[str]) -> list[str]:
    from ..bench.reporting import results_dir

    directory = bench_dir or results_dir()
    lines = ["## Bench trajectory", ""]
    rows = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        record = _load_json(path)
        if not isinstance(record, dict):
            continue
        provenance = record.get("provenance", {})
        rows.append([
            record.get("experiment", os.path.basename(path)),
            record.get("timestamp", "-"),
            provenance.get("git_sha", "-"),
            provenance.get("bench_scale", "-"),
            provenance.get("duration_seconds", "-"),
        ])
    if rows:
        lines.append(_md_table(
            ["experiment", "timestamp", "git sha", "scale", "duration s"], rows
        ))
        lines.append("")
    else:
        lines.append(f"No recorded experiments under `{directory}/`.")
        lines.append("")

    baselines = sorted(glob.glob("BENCH_*.json"))
    for path in baselines:
        record = _load_json(path)
        if not isinstance(record, dict) or "kernels" not in record:
            continue
        lines.append(f"### Kernel baseline `{path}`")
        lines.append("")
        lines.append(_md_table(
            ["kernel", "vectorized s", "speedup", "units / s"],
            [
                [
                    name,
                    entry.get("vectorized_s"),
                    entry.get("speedup"),
                    entry.get("units_per_s"),
                ]
                for name, entry in sorted(record["kernels"].items())
            ],
        ))
        lines.append("")
    return lines


# ------------------------------------------------------------------ #
# assembly
# ------------------------------------------------------------------ #
def _merge_recorded_slo_alerts(
    monitor: health_mod.HealthMonitor, records: list[dict]
) -> None:
    """Fold recorded SLO alerts into a replayed monitor.

    :func:`health_mod.replay` re-derives the *training/calibration* rules
    from the raw streams, but burn-rate alerts depend on the rolling
    sample windows of the live run — they cannot be re-derived, so the
    recorded ``health`` stream is authoritative for them. Quality
    calibration-drift alerts are *not* merged: :func:`health_mod.replay`
    re-derives them from the recorded ``quality`` stream, so folding the
    recorded health records in as well would double-count each one.
    """
    recorded = [
        health_mod.Alert(
            severity=str(record.get("severity", health_mod.WARN)),
            rule=str(record.get("rule", "slo")),
            message=str(record.get("message", "")),
            value=record.get("value"),
            threshold=record.get("threshold"),
        )
        for record in records
        if record.get("stream") == "health"
        and str(record.get("rule", "")).startswith("slo")
    ]
    if recorded:
        monitor.publish(recorded)


def render_markdown(run_dir: str, bench_dir: Optional[str] = None) -> str:
    """The full report as one markdown document."""
    telemetry_path = os.path.join(run_dir, TELEMETRY_FILE)
    records = telemetry_mod.load_run(telemetry_path)
    monitor = health_mod.replay(records)
    _merge_recorded_slo_alerts(monitor, records)
    snapshot = _load_json(os.path.join(run_dir, METRICS_FILE))
    nodes = _load_json(os.path.join(run_dir, TRACE_FILE))
    slo_doc = _load_json(os.path.join(run_dir, SLO_FILE))
    memory_doc = _load_json(os.path.join(run_dir, MEMORY_FILE))
    quality_doc = _load_json(os.path.join(run_dir, QUALITY_FILE))
    profile_counts = _load_profile_counts(run_dir)

    sections = [
        ["# repro diagnostic report", ""],
        _section_summary(run_dir, records, monitor),
        _section_health(monitor),
        _section_slo(slo_doc),
        _section_training(records),
        _section_plans(records),
        _section_queries(records),
        _section_quality(records, quality_doc),
        _section_storage(snapshot),
        _section_metrics(snapshot),
        _section_trace(nodes),
        _section_slowest_traces(run_dir),
        _section_profile(run_dir, profile_counts, memory_doc),
        _section_bench(bench_dir),
    ]
    return "\n".join("\n".join(section) + "\n" for section in sections)


_HTML_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       max-width: 64rem; margin: 2rem auto; padding: 0 1rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { border-bottom: 1px solid #c9cad9; padding-bottom: .2rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .9rem; }
th, td { border: 1px solid #c9cad9; padding: .25rem .6rem; text-align: left; }
th { background: #f2f2f7; }
code { background: #f2f2f7; padding: .1rem .3rem; border-radius: 3px; }
pre { background: #f6f8fa; padding: .8rem; overflow-x: auto;
      border-radius: 6px; line-height: 1.2; }
pre code { background: none; padding: 0; }
"""


def _inline_html(text: str) -> str:
    """Escape one markdown text run, rendering `code` spans and **bold**."""
    out: list[str] = []
    pos = 0
    while pos < len(text):
        if text[pos] == "`":
            end = text.find("`", pos + 1)
            if end > pos:
                out.append(f"<code>{escape(text[pos + 1:end])}</code>")
                pos = end + 1
                continue
        if text.startswith("**", pos):
            end = text.find("**", pos + 2)
            if end > pos:
                out.append(f"<strong>{escape(text[pos + 2:end])}</strong>")
                pos = end + 2
                continue
        out.append(escape(text[pos]))
        pos += 1
    return "".join(out)


def markdown_to_html(markdown: str, title: str = "repro report") -> str:
    """A deliberately small markdown → HTML renderer.

    Covers exactly what :func:`render_markdown` emits — headings, pipe
    tables, fenced code blocks, bullet lists, paragraphs, inline code
    and bold — so the HTML artifact needs no external converter.
    """
    lines = markdown.splitlines()
    out = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_HTML_CSS}</style>",
        "</head><body>",
    ]
    i = 0
    in_list = False

    def close_list() -> None:
        nonlocal in_list
        if in_list:
            out.append("</ul>")
            in_list = False

    while i < len(lines):
        line = lines[i]
        if line.startswith("```"):
            close_list()
            block: list[str] = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                block.append(lines[i])
                i += 1
            out.append("<pre><code>" + escape("\n".join(block)) + "</code></pre>")
            i += 1
            continue
        if line.startswith("|"):
            close_list()
            table: list[str] = []
            while i < len(lines) and lines[i].startswith("|"):
                table.append(lines[i])
                i += 1
            out.append("<table>")
            for r, row in enumerate(table):
                if r == 1:  # separator row
                    continue
                cells = [
                    c.strip().replace("\\|", "|")
                    for c in re.split(r"(?<!\\)\|", row.strip("|"))
                ]
                tag = "th" if r == 0 else "td"
                out.append(
                    "<tr>"
                    + "".join(f"<{tag}>{_inline_html(c)}</{tag}>" for c in cells)
                    + "</tr>"
                )
            out.append("</table>")
            continue
        if line.startswith("#"):
            close_list()
            level = len(line) - len(line.lstrip("#"))
            out.append(
                f"<h{level}>{_inline_html(line[level:].strip())}</h{level}>"
            )
        elif line.startswith("- "):
            if not in_list:
                out.append("<ul>")
                in_list = True
            out.append(f"<li>{_inline_html(line[2:])}</li>")
        elif line.strip():
            close_list()
            out.append(f"<p>{_inline_html(line)}</p>")
        else:
            close_list()
        i += 1
    close_list()
    out.append("</body></html>")
    return "\n".join(out)


def build_report(
    run_dir: str,
    out_path: Optional[str] = None,
    html: bool = False,
    bench_dir: Optional[str] = None,
) -> str:
    """Render the report and write it; returns the output path."""
    markdown = render_markdown(run_dir, bench_dir=bench_dir)
    if out_path is None:
        out_path = os.path.join(run_dir, "report.html" if html else "report.md")
    content = markdown_to_html(markdown) if html else markdown
    with open(out_path, "w") as handle:
        handle.write(content)
    return out_path


def render_top(run_dir: str, width: int = 78) -> str:
    """One text frame of the live-run view ``repro top`` refreshes.

    Reads only the artifacts a profiled run flushes periodically
    (collapsed stacks, ``slo.json``, ``memory.json``, the telemetry
    JSONL), so it can watch a run owned by another process.
    """

    def rule(title: str) -> str:
        return f"── {title} " + "─" * max(0, width - len(title) - 4)

    lines = [f"repro top — {run_dir}"]
    records = telemetry_mod.load_run(os.path.join(run_dir, TELEMETRY_FILE))
    health_records = [r for r in records if r.get("stream") == "health"]
    crit = sum(1 for r in health_records if r.get("severity") == health_mod.CRIT)
    warn = sum(1 for r in health_records if r.get("severity") == health_mod.WARN)
    lines.append(
        f"telemetry: {len(records)} records | health: "
        f"{crit} CRIT, {warn} WARN"
    )

    slo_doc = _load_json(os.path.join(run_dir, SLO_FILE))
    lines.append(rule("SLO burn"))
    if slo_doc and slo_doc.get("objectives"):
        for status in slo_doc["objectives"]:
            value = status.get("value")
            shown = "-" if value is None else f"{value:.4g}"
            burn = (
                f"burn {status.get('burn_rate', 0.0):5.1f}x"
                if status.get("kind") != "gauge"
                else "gauge      "
            )
            marker = status.get("severity") or (
                "ok" if status.get("ok") else "!!"
            )
            lines.append(
                f"  {status.get('spec', '?'):<38} {shown:>10}  {burn}  {marker}"
            )
    else:
        lines.append("  (no slo.json yet)")

    counts = _load_profile_counts(run_dir)
    lines.append(rule("hot functions (self time)"))
    if counts:
        for frame, samples, fraction in profiler_mod.hot_functions_of(
            counts, n=8
        ):
            lines.append(f"  {fraction:6.1%} {samples:>6}  {frame}")
        lines.append(rule("samples by span"))
        total = sum(counts.values())
        spans = sorted(
            profiler_mod.span_samples_of(counts).items(), key=lambda kv: -kv[1]
        )
        for name, samples in spans[:6]:
            lines.append(f"  {samples / total:6.1%} {samples:>6}  {name}")
    else:
        lines.append("  (no collapsed stacks yet)")

    memory_doc = _load_json(os.path.join(run_dir, MEMORY_FILE))
    lines.append(rule("memory"))
    if memory_doc:
        lines.append(
            f"  traced {memory_doc.get('current_kb', 0.0):,.0f} KiB "
            f"(peak {memory_doc.get('peak_kb', 0.0):,.0f}) | "
            f"RSS {memory_doc.get('rss_kb', 0.0):,.0f} KiB"
        )
        for check in (memory_doc.get("epochs") or {}).values():
            if check.get("suspect"):
                lines.append(
                    f"  LEAK? {check['phase']}: +{check.get('growth_bytes', 0)}"
                    " bytes over trailing epochs"
                )
    else:
        lines.append("  (no memory.json yet)")

    if records:
        lines.append(rule("last events"))
        for record in records[-5:]:
            lines.append(
                f"  #{record.get('seq', '?'):>5} {record.get('stream', '?')}"
            )
    return "\n".join(lines)


def run_smoke(directory: str, audit_rate: Optional[float] = None) -> str:
    """Record a tiny end-to-end run into ``directory`` and return it.

    Micro pipeline — flights at scale 0.12, ASQP-Light, two iterations,
    a few routed queries, and one EXPLAIN ANALYZE — sized for CI: it
    exercises every telemetry stream the report renders in seconds.
    The whole pipeline runs under :func:`repro.obs.run` with the
    profiler, the memory tracker, and the default SLOs enabled, so the
    report's profile/SLO sections render from real artifacts.
    ``audit_rate`` sets the shadow-audit sample rate (``repro audit
    --smoke`` passes 1.0 so every routed query is audited); when set,
    the quality SLOs join the default objectives.
    """
    from .. import obs
    from ..core import ASQPConfig, ASQPSession, ASQPTrainer
    from ..datasets import load_flights
    from ..db import explain

    objectives = list(obs.slo.DEFAULT_OBJECTIVES)
    if audit_rate:
        objectives += list(obs.quality.QUALITY_OBJECTIVES)
    with obs.run(
        directory,
        profile=True,
        memory_tracking=True,
        slo_objectives=objectives,
        audit_rate=audit_rate,
    ):
        bundle = load_flights(scale=0.12, n_queries=6, n_aggregate_queries=2)
        config = ASQPConfig.light(
            memory_budget=120, frame_size=20, n_iterations=2,
            learning_rate=1e-3,  # the CLI's demo/train lr, not light's 0.1
            seed=0,
        )
        model = ASQPTrainer(bundle.db, bundle.workload, config).train()
        session = ASQPSession(model, auto_fine_tune=False)
        for query in list(bundle.workload)[:3]:
            session.query(query)
        explain(bundle.db, list(bundle.workload)[0], analyze=True)
    return directory
