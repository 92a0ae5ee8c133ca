"""The report sections: every table over a recorded run, once.

Each ``section_*`` function takes a :class:`~repro.obs.rundir.Run` and
returns markdown lines; the CLI verbs are views of them — ``repro
report`` renders :data:`SECTIONS` (run summary, health verdict with
every alert, SLOs, training trajectory, query plans, estimator
calibration, answer quality, the hottest trace spans, the slowest
traces, the CPU/memory profile, the bench trajectory) into one markdown
document, ``repro stats`` prints :data:`STATS_SECTIONS`, ``repro audit``
the answer-quality section and ``repro watch`` refreshes
:func:`render_watch`. No network access, no dependencies beyond the stdlib.

Health alerts are not recorded: :func:`repro.obs.health.alerts` folds
the current rule pack over the run's recorded rows, so a report works on
any recorded directory, and every view of a run prints the same alerts.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from . import analyze as analyze_mod
from . import health as health_mod
from . import metrics as metrics_mod
from . import profiler as profiler_mod
from . import quality as quality_mod
from . import slo as slo_mod
from .rundir import Run, load

#: How many trailing entries the tables show.
_LAST_UPDATES = 10
_LAST_PLANS = 3
_TOP_SPANS = 12
_LAST_EVENTS = 5

#: Trailing windows of the query rate (seconds of record time: a finished
#: run renders the same every time) and the latency percentiles (records).
QPS_WINDOW_S = 60.0
LATENCY_WINDOW = 100


# ------------------------------------------------------------------ #
# markdown building blocks
# ------------------------------------------------------------------ #
def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def cell(value: object) -> str:
        if value is None:
            return "-"
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


# ------------------------------------------------------------------ #
# sections
# ------------------------------------------------------------------ #
def section_summary(run: Run) -> list[str]:
    counts = health_mod.counts(health_mod.alerts(run))
    verdict = "CRIT" if counts["CRIT"] else "WARN" if counts["WARN"] else "HEALTHY"
    return [
        "## Run summary",
        "",
        f"- run directory: `{run.directory}`",
        f"- health verdict: **{verdict}** "
        f"({counts['CRIT']} CRIT, {counts['WARN']} WARN)",
        f"- telemetry records: {len(run.records)} "
        f"({len(run.stream('train.update'))} training updates, "
        f"{len(run.stream('query'))} queries, "
        f"{len(run.stream('plan'))} captured plans)",
        f"- artifacts read: {', '.join(f'`{p}`' for p in run.artifacts)}",
    ]


def section_health(run: Run) -> list[str]:
    found = health_mod.alerts(run)
    lines = ["## Health alerts", ""]
    if not found:
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
        for alert in found
    ]
    lines.append(_md_table(
        ["severity", "rule", "iter", "value", "threshold", "message"], rows
    ))
    return lines


def section_training(run: Run) -> list[str]:
    updates = run.stream("train.update")
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
    lines += [f"Last {len(tail)} of {len(updates)} updates:", ""]
    lines.append(_md_table(
        ["iter", "reward", "policy", "value", "entropy", "kl", "clip%",
         "expl.var", "grad norm", "steps/s"],
        [
            [
                u.get("iteration"),
                float(u.get("mean_episode_reward", 0.0)),
                float(u.get("policy_loss") or 0.0),
                float(u.get("value_loss") or 0.0),
                float(u.get("entropy", 0.0)),
                float(u.get("kl_divergence", 0.0)),
                100.0 * float(u.get("clip_fraction", 0.0)),
                float(u.get("explained_variance", 0.0)),
                float(u.get("grad_norm", 0.0)),
                float(u.get("steps_per_second") or 0.0),
            ]
            for u in tail
        ],
    ))
    return lines


def section_plans(run: Run) -> list[str]:
    plans = run.stream("plan")
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


def section_queries(run: Run) -> list[str]:
    queries = run.stream("query")
    lines = ["## Queries & estimator calibration", ""]
    if not queries:
        lines.append("No routed queries in this run.")
        return lines
    approx = sum(1 for q in queries if q.get("used_approximation"))
    calibration = quality_mod.accounting(run)["calibration_error"]
    window = min(len(queries), quality_mod.CALIBRATION_WINDOW)
    drifts = sum(1 for q in queries if q.get("drift"))
    stamps = [float(q.get("ts", 0.0)) for q in queries]
    now = max(stamps)
    recent = [ts for ts in stamps if now - ts <= QPS_WINDOW_S]
    covered = now - min(recent)
    rate = f"{len(recent) / covered:.2f}" if covered > 0 else "-"
    latencies = sorted(
        float(q.get("elapsed_seconds") or 0.0) for q in queries[-LATENCY_WINDOW:]
    )
    lines += [
        f"- {len(queries)} queries: {approx} answered from the approximation "
        f"set, {len(queries) - approx} from the full database",
        f"- rate: {len(recent)} queries in the trailing {covered:.3g} s ({rate} qps)",
        f"- latency over the last {len(latencies)} queries: "
        f"p50 {metrics_mod.percentile(latencies, 0.50) * 1e3:.1f} ms, "
        f"p95 {metrics_mod.percentile(latencies, 0.95) * 1e3:.1f} ms",
        f"- mean |confidence − realized frame score| over the last {window} "
        f"queries: {calibration:.3f}" if calibration is not None else
        "- no calibration pairs recorded",
        f"- drift events observed: {drifts}",
    ]
    tail = queries[-_LAST_UPDATES:]
    lines += ["", f"Last {len(tail)} of {len(queries)} outcomes:", ""]
    lines.append(_md_table(
        ["source", "conf", "realized", "rows", "ms", "drift"],
        [
            [
                "approx" if q.get("used_approximation") else "full",
                q.get("confidence"),
                q.get("realized_frame_score"),
                q.get("rows"),
                1e3 * float(q.get("elapsed_seconds") or 0.0),
                "DRIFT" if q.get("drift") else "",
            ]
            for q in tail
        ],
    ))
    return lines


#: Predicted-confidence bins for the audit calibration table.
_CALIBRATION_BINS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.01))


def section_quality(run: Run) -> list[str]:
    """Answer quality: shadow audits, calibration, and drift.

    The accounting is :func:`repro.obs.quality.accounting` over the
    run's ``query`` and ``quality`` rows; calibration bias and drift
    escalations come from :mod:`repro.obs.health`. A run without
    ground-truth audits reads as "unverified", not as silently healthy.
    """
    summary = quality_mod.accounting(run)
    counts = summary["counts"]
    audits = quality_mod.audits(run)
    drifts = [
        alert for alert in health_mod.alerts(run)
        if alert.rule == "quality_calibration_drift"
    ]
    lines = ["## Answer quality", ""]
    if not audits:
        lines.append(
            "No audit data recorded in this run — answer quality is "
            "unverified. Enable shadow auditing with "
            "`obs.run(audit_rate=...)` or `REPRO_AUDIT_RATE` (`repro "
            "report --smoke` records a run audited at rate 1.0)."
        )
        lines.append("")
    if counts["queries"] or audits:
        rate = summary["sample_rate"]
        lines.append(
            f"- {counts['queries']} queries observed "
            f"({counts['approx_queries']} served from the "
            f"approximation set), {counts['audits']} shadow-audited "
            f"({counts['skipped_coin']} skipped by the sampling "
            f"coin, {counts['skipped_budget']} by the overhead "
            "budget)"
        )
        lines.append(
            f"- audit overhead: {summary['overhead_fraction']:.2%} of "
            f"serving time (sample rate {'?' if rate is None else rate}, "
            f"budget {quality_mod.MAX_OVERHEAD:.0%})"
        )
    recall = summary["mean_recall"]
    if recall is not None:
        agg = summary["mean_agg_rel_error"]
        agg_note = (
            f", mean aggregate relative error {agg:.3f}"
            if agg is not None else ""
        )
        lines.append(
            f"- audited recall: mean {recall:.3f}{agg_note}; "
            f"{counts['low_quality']} low-quality answers"
        )
    bias = health_mod.calibration_bias(run)
    if bias is not None:
        lines.append(
            f"- calibration bias (predicted − observed): "
            f"{bias:+.3f} over the rolling window; "
            f"{len(drifts)} drift escalations"
        )
    for alert in drifts:
        lines.append(
            f"- **calibration drift ({alert.severity})**: {alert.message}"
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


def section_trace(run: Run) -> list[str]:
    """Where the wall time went: per span name, then per pipeline layer."""
    lines = ["## Hottest spans", ""]
    if not run.trace:
        lines.append("No `trace.json` in this run.")
        return lines
    note = analyze_mod.dropped_roots_note(run)
    if note:
        lines += [f"{note}.", ""]
    rollup = analyze_mod.aggregate_spans(run.trace)
    ranked = sorted(rollup.items(), key=lambda kv: -kv[1]["total_s"])
    lines.append(_md_table(
        ["span", "count", "total ms", "self ms"],
        [
            [name, row["count"], 1e3 * row["total_s"], 1e3 * row["self_s"]]
            for name, row in ranked[:_TOP_SPANS]
        ],
    ))
    # Self time charges every moment to the innermost span covering it,
    # so it adds up: the share per layer (the span-name prefix) splits
    # the traced time instead of counting nested spans twice.
    layers: dict[str, list[float]] = {}
    for name, row in rollup.items():
        layer = layers.setdefault(name.split(".")[0], [0, 0.0])
        layer[0] += row["count"]
        layer[1] += row["self_s"]
    total = sum(self_s for _, self_s in layers.values()) or 1.0
    lines += ["", "### Self time by layer", ""]
    lines.append(_md_table(
        ["layer", "spans", "self ms", "share"],
        [
            [layer, count, 1e3 * self_s, f"{self_s / total:.1%}"]
            for layer, (count, self_s) in sorted(
                layers.items(), key=lambda kv: -kv[1][1]
            )
        ],
    ))
    return lines


def section_slowest_traces(run: Run) -> list[str]:
    """The slowest traces of ``trace.json`` with their critical paths."""
    lines = ["## Slowest traces", ""]
    entries = analyze_mod.retained_traces(run)
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
            entry["label"],
            hottest.get("name", "-"),
            1e3 * float(hottest.get("self_s", 0.0)),
        ])
    lines.append(_md_table(
        ["trace", "total ms", "label", "critical span", "self ms"],
        rows,
    ))
    lines += [
        "",
        f"{analyze_mod.format_label_counts(entries)}. "
        "Inspect one with `repro analyze --trace <id>`.",
    ]
    return lines


def section_slo(run: Run) -> list[str]:
    lines = ["## Service-level objectives", ""]
    statuses = slo_mod.statuses(run)
    if not statuses:
        lines.append(
            "No SLOs in this run — record them with "
            "`repro profile <command>` or `obs.run(slo_objectives=...)`."
        )
        return lines
    lines += [
        f"Windows: {slo_mod.WINDOW} samples slow / "
        f"{slo_mod.FAST_WINDOW} fast; alert when both burn ≥ "
        f"{slo_mod.WARN_BURN_RATE}x (WARN) / "
        f"{slo_mod.CRIT_BURN_RATE}x (CRIT).",
        "",
    ]
    rows = []
    for status in statuses:
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
    worst = [  # an alerting objective's SLO exemplars
        f"- worst traces of `{status.get('spec')}`: "
        + ", ".join(f"`{tid[:16]}`" for tid in status["exemplar_trace_ids"][:3])
        for status in statuses
        if status.get("severity") and status.get("exemplar_trace_ids")
    ]
    if worst:
        lines += ["", *worst, "", "Resolve a trace with `repro analyze --trace <id>`."]
    return lines


def section_profile(run: Run) -> list[str]:
    lines = ["## CPU & memory profile", ""]
    counts, memory_doc = run.profile, run.memory
    if not counts and not memory_doc:
        lines.append(
            "No profile in this run — record one with "
            "`repro profile <command>`."
        )
        return lines
    if counts:
        total = sum(counts.values())
        lines.append(f"{total} samples across {len(counts)} unique stacks")
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


def section_bench(run: Run) -> list[str]:
    """Not from the run: the recorded experiments it sits next to."""
    from ..bench.reporting import load_results, results_dir

    directory = results_dir()
    lines = ["## Bench trajectory", ""]
    rows = []
    for path, record in load_results(os.path.join(directory, "*.json")):
        provenance = record.get("provenance", {})
        rows.append([
            record.get("experiment", os.path.basename(path)),
            record.get("timestamp", "-"),
            provenance.get("git_sha", "-"),
            provenance.get("bench_scale", "-"),
        ])
    if rows:
        lines.append(_md_table(
            ["experiment", "timestamp", "git sha", "scale"], rows
        ))
        lines.append("")
    else:
        lines.append(f"No recorded experiments under `{directory}/`.")
        lines.append("")

    for path, record in load_results("BENCH_*.json"):
        if "kernels" not in record:
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
#: ``repro report``: every section, in reading order.
SECTIONS = (
    section_summary,
    section_health,
    section_slo,
    section_training,
    section_plans,
    section_queries,
    section_quality,
    section_trace,
    section_slowest_traces,
    section_profile,
    section_bench,
)

#: ``repro stats``.
STATS_SECTIONS = (section_training, section_queries, section_trace)

#: ``repro watch``: the operator's frame.
WATCH_SECTIONS = (
    section_summary, section_slo, section_queries, section_quality,
    section_slowest_traces, section_profile, section_health,
)


def render_sections(run: Run, sections=SECTIONS) -> str:
    """The given sections of one run as markdown text."""
    return "\n".join("\n".join(section(run)) + "\n" for section in sections)


def render_markdown(run: Run) -> str:
    """The full report as one markdown document."""
    return "# repro diagnostic report\n\n" + render_sections(run)


def render_watch(run: Run) -> str:
    """``repro watch``'s frame: a header, :data:`WATCH_SECTIONS`, the last events."""
    events = [
        f"- #{record.get('seq', '?')} {record.get('stream', '?')}"
        for record in run.records[-_LAST_EVENTS:]
    ]
    return (
        f"# repro watch — {run.directory}\n\n"
        + render_sections(run, WATCH_SECTIONS)
        + "\n".join(["", "## Last events", "", *(events or ["No records yet."])])
    )


def build_report(run_dir: str, out_path: Optional[str] = None) -> str:
    """Render the report of a run directory and write it; returns the path."""
    markdown = render_markdown(load(run_dir))
    if out_path is None:
        out_path = os.path.join(run_dir, "report.md")
    with open(out_path, "w") as handle:
        handle.write(markdown)
    return out_path
