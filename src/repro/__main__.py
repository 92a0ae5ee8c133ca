"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``   — train on a bundled dataset and run a short query session.
``train``  — train ASQP-RL and save the model directory.
``query``  — load a saved model and answer one SQL query.
``explain`` — print the operator tree of a SQL query (``--analyze`` runs it).
``report`` — fuse a recorded run + bench trajectory into one artifact.
``bench``  — print the location and contents of recorded benchmark tables.
``stats``  — pretty-print the metrics + telemetry of a recorded run.
``trace``  — pretty-print the span tree of a recorded run.
``profile`` — run any other command under the continuous sampling
profiler + memory tracker + default SLOs (flamegraph, collapsed stacks,
memory.json, slo.json land in the run directory).
``top``    — live-refreshing terminal view of a (possibly still running)
profiled run: SLO burn, hot functions, span attribution, memory.
``watch``  — live ops console over a run directory: rolling QPS/p50/p95,
answer quality, trace keep reasons, active SLO burn alerts.
``audit``  — shadow-audit view of a recorded run: audit accounting and
the predicted-vs-observed calibration table (see repro.obs.quality).
``lint``   — run the AST rule pack over source paths (see repro.lint).

``demo``/``train`` accept ``--telemetry DIR`` to record a full
observability run (trace.json, trace_chrome.json, metrics.json,
telemetry.jsonl) that ``stats``/``trace`` read back, and ``--strict``
to enable the runtime shape/NaN contracts (same as ``REPRO_STRICT=1``).

Unknown subcommands exit with status 2 and the available-command list
(argparse's required-subparser behaviour, pinned by ``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, contracts, obs
from .core import ASQPConfig, ASQPSession, ASQPTrainer, load_model, save_model, score
from .datasets import load_flights, load_imdb, load_mas
from .db import explain as db_explain, split_explain, sql
from .lint import cli as lint_cli
from .obs import telemetry as obs_telemetry
from .obs import trace as obs_trace
from .obs.clock import perf_counter

#: Default run directory for --telemetry / stats / trace.
DEFAULT_OBS_DIR = "obs_run"

_LOADERS = {"imdb": load_imdb, "mas": load_mas, "flights": load_flights}


def _load_bundle(name: str, scale: float):
    try:
        loader = _LOADERS[name]
    except KeyError:
        raise SystemExit(
            f"unknown dataset {name!r}; choose from {sorted(_LOADERS)}"
        )
    return loader(scale=scale)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="imdb", help="imdb | mas | flights")
    parser.add_argument("--scale", type=float, default=0.3, help="dataset size scale")
    parser.add_argument("--k", type=int, default=600, help="memory budget (tuples)")
    parser.add_argument("--frame-size", type=int, default=50, help="frame size F")
    parser.add_argument("--iterations", type=int, default=25, help="PPO iterations")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--light", action="store_true", help="use ASQP-Light settings")
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="record an observability run (trace + metrics + telemetry JSONL) "
             "into DIR; read it back with `repro stats`/`repro trace`",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="enable runtime shape/dtype/NaN contracts (repro.contracts; "
             "same as REPRO_STRICT=1)",
    )


def _make_config(args) -> ASQPConfig:
    overrides = dict(
        memory_budget=args.k,
        frame_size=args.frame_size,
        n_iterations=args.iterations,
        learning_rate=1e-3,
        seed=args.seed,
    )
    return ASQPConfig.light(**overrides) if args.light else ASQPConfig(**overrides)


def cmd_demo(args) -> int:
    if args.strict:
        contracts.enable()
    if args.telemetry:
        obs.start_run(args.telemetry)
    bundle = _load_bundle(args.dataset, args.scale)
    print(f"dataset: {bundle.db}")
    config = _make_config(args)
    print(f"training {'ASQP-Light' if args.light else 'ASQP-RL'} "
          f"(k={config.memory_budget}, F={config.frame_size})...")
    start = perf_counter()
    model = ASQPTrainer(bundle.db, bundle.workload, config).train()
    print(f"trained in {perf_counter() - start:.1f}s")
    session = ASQPSession(model, auto_fine_tune=False)
    train_quality = score(bundle.db, session.approx_db, bundle.workload,
                          config.frame_size)
    print(f"workload quality (Eq. 1): {train_quality:.3f}")
    for query in list(bundle.workload)[:3]:
        outcome = session.query(query)
        source = "approx" if outcome.used_approximation else "full DB"
        print(f"  {query.to_sql()[:70]}...")
        print(f"    -> {len(outcome)} rows via {source} "
              f"({outcome.elapsed_seconds * 1000:.1f}ms)")
    if args.telemetry:
        paths = obs.finish_run(args.telemetry)
        print(f"observability run recorded in {args.telemetry}/ "
              f"({', '.join(sorted(os.path.basename(p) for p in paths.values()))})")
        print(f"inspect with: repro stats --dir {args.telemetry}  |  "
              f"repro trace --dir {args.telemetry}")
    return 0


def cmd_train(args) -> int:
    if args.strict:
        contracts.enable()
    if args.telemetry:
        obs.start_run(args.telemetry)
    bundle = _load_bundle(args.dataset, args.scale)
    config = _make_config(args)
    print(f"training on {bundle.db} ...")
    model = ASQPTrainer(bundle.db, bundle.workload, config).train()
    save_model(model, args.out)
    print(f"model saved to {args.out} "
          f"(setup {model.setup_seconds:.1f}s, "
          f"{len(model.action_space)} actions)")
    if args.telemetry:
        obs.finish_run(args.telemetry)
        print(f"observability run recorded in {args.telemetry}/")
    return 0


def cmd_query(args) -> int:
    bundle = _load_bundle(args.dataset, args.scale)
    model = load_model(args.model, bundle.db)
    session = ASQPSession(model, auto_fine_tune=False)
    query = sql(args.sql)
    outcome = session.query(query)
    source = "approximation set" if outcome.used_approximation else "full database"
    print(f"{len(outcome)} rows from the {source} "
          f"(confidence {outcome.estimate.confidence:.2f}, "
          f"{outcome.elapsed_seconds * 1000:.1f}ms)")
    if hasattr(outcome.result, "rows"):
        for row in outcome.result.rows[:10]:
            print(f"  {row}")
    else:
        for row in outcome.result.to_rows()[:10]:
            print(f"  {row}")
    return 0


def cmd_explain(args) -> int:
    """Print the operator tree (EXPLAIN) of one SQL query."""
    text, _, prefix_analyze = split_explain(args.sql)
    analyze = args.analyze or prefix_analyze
    bundle = _load_bundle(args.dataset, args.scale)
    query = sql(text)
    if args.telemetry:
        obs.start_run(args.telemetry)
    plan = db_explain(bundle.db, query, analyze=analyze)
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2, default=str))
    else:
        print(plan.format())
    if args.telemetry:
        obs.finish_run(args.telemetry)
        print(f"observability run recorded in {args.telemetry}/")
    return 0


def cmd_report(args) -> int:
    """Build the fused diagnostic report (see repro.obs.report)."""
    from .obs.report import build_report, run_smoke

    run_dir = args.dir
    if args.smoke:
        run_dir = run_smoke(args.dir)
    elif not any(
        os.path.exists(os.path.join(run_dir, name))
        for name in (obs.TELEMETRY_FILE, obs.METRICS_FILE, obs.TRACE_FILE)
    ):
        # Without at least one run artifact the report would render a
        # misleading all-empty document; fail like stats/trace/top do.
        return _missing_run(run_dir)
    path = build_report(
        run_dir,
        out_path=args.out,
        html=args.html,
        bench_dir=args.bench_dir,
    )
    print(f"report written to {path}")
    return 0


def cmd_bench(args) -> int:
    import glob
    import os

    from .bench.reporting import results_dir

    directory = results_dir()
    tables = sorted(glob.glob(os.path.join(directory, "*.txt")))
    if not tables:
        print(f"no recorded tables under {directory}/ — run:")
        print("  pytest benchmarks/ --benchmark-only -s")
        return 1
    for path in tables:
        with open(path) as handle:
            print(handle.read())
    return 0


def _missing_run(directory: str) -> int:
    """Shared exit-1 path for readers pointed at a absent/empty run dir."""
    print(f"no observability run under {directory}/ — record one with:")
    print(f"  python -m repro demo --light --telemetry {directory}")
    print(f"  python -m repro profile --dir {directory} demo --light")
    return 1


def _load_run_json(path: str):
    """Parse one run artifact; None when absent, SystemExit(1) when corrupt."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            return json.load(handle)
    except (json.JSONDecodeError, OSError) as error:
        print(f"unreadable run artifact {path}: {error}")
        print("re-record the run, or delete the directory and retry")
        raise SystemExit(1)


def cmd_stats(args) -> int:
    """Pretty-print metrics.json + telemetry.jsonl of a recorded run."""
    from .bench.reporting import format_table

    metrics_path = os.path.join(args.dir, obs.METRICS_FILE)
    telemetry_path = os.path.join(args.dir, obs.TELEMETRY_FILE)
    if not os.path.exists(metrics_path) and not os.path.exists(telemetry_path):
        return _missing_run(args.dir)

    snap = _load_run_json(metrics_path)
    if snap is not None:
        counters = sorted({**snap.get("counters", {}), **snap.get("gauges", {})}.items())
        if counters:
            print(format_table(
                ["counter/gauge", "value"],
                [[name, value] for name, value in counters],
                title=f"Metrics — {metrics_path}",
            ))
        histograms = sorted(snap.get("histograms", {}).items())
        if histograms:
            print()
            print(format_table(
                ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
                [
                    [name, h.get("count"), h.get("mean"), h.get("p50"),
                     h.get("p95"), h.get("p99"), h.get("max")]
                    for name, h in histograms
                ],
            ))

    if os.path.exists(telemetry_path):
        # load_run reads the whole rotated set (telemetry.1.jsonl, ...),
        # so long runs that rolled the sink still show every record.
        records = obs_telemetry.load_run(telemetry_path)
        updates = [r for r in records if r.get("stream") == "train.update"]
        if updates:
            tail = updates[-args.last:]
            print()
            print(format_table(
                ["iter", "reward", "policy", "value", "entropy", "kl",
                 "clip%", "steps/s"],
                [
                    [u.get("iteration"), u.get("mean_episode_reward"),
                     u.get("policy_loss"), u.get("value_loss"),
                     u.get("entropy"), u.get("kl_divergence"),
                     100.0 * float(u.get("clip_fraction") or 0.0),
                     u.get("steps_per_second")]
                    for u in tail
                ],
                title=f"Training — last {len(tail)} of {len(updates)} updates",
            ))
        outcomes = [r for r in records if r.get("stream") == "query"]
        if outcomes:
            tail = outcomes[-args.last:]
            print()
            print(format_table(
                ["source", "conf", "realized", "rows", "ms", "drift"],
                [
                    ["approx" if o.get("used_approximation") else "full",
                     o.get("confidence"), o.get("realized_frame_score"),
                     o.get("rows"),
                     1e3 * float(o.get("elapsed_seconds") or 0.0),
                     "DRIFT" if o.get("drift") else ""]
                    for o in tail
                ],
                title=f"Queries — last {len(tail)} of {len(outcomes)} outcomes",
            ))
    return 0


def cmd_trace(args) -> int:
    """Pretty-print the span tree of a recorded run."""
    trace_path = os.path.join(args.dir, obs.TRACE_FILE)
    if not os.path.exists(trace_path):
        return _missing_run(args.dir)
    nodes = _load_run_json(trace_path)
    if not isinstance(nodes, list):
        print(f"unreadable run artifact {trace_path}: expected a span list")
        return 1
    print(f"trace — {trace_path} ({len(nodes)} root spans)")
    print(obs_trace.format_tree(nodes, max_depth=args.depth))
    chrome_path = os.path.join(args.dir, obs.CHROME_TRACE_FILE)
    if os.path.exists(chrome_path):
        print(f"\nchrome://tracing / perfetto file: {chrome_path}")
    return 0


def cmd_analyze(args) -> int:
    """Reconstruct and analyze retained traces of a recorded run."""
    from .obs import analyze as obs_analyze

    traces_path = os.path.join(args.dir, obs.TRACES_FILE)
    trace_path = os.path.join(args.dir, obs.TRACE_FILE)
    if not os.path.exists(traces_path) and not os.path.exists(trace_path):
        return _missing_run(args.dir)
    entries = obs_analyze.load_traces(args.dir)
    if not entries:
        print(f"no retained traces under {args.dir}/ — traces need ids; "
              "record the run with observability enabled")
        return 1

    if args.trace:
        entry = obs_analyze.find_trace(entries, args.trace)
        if entry is None:
            print(f"trace {args.trace!r} not found in {args.dir}/ "
                  f"({len(entries)} retained traces; try --slowest)")
            return 1
        print(obs_analyze.format_trace_entry(entry))
        return 0

    summary = obs_analyze.sampler_summary(args.dir)
    counts = (summary or {}).get("counts") or {}
    if counts:
        kept = sum(v for k, v in counts.items() if k.startswith("kept_"))
        print(f"tail sampler: {counts.get('offered', 0)} offered, "
              f"{kept} kept, {counts.get('dropped_head', 0)} head-dropped, "
              f"{counts.get('evicted', 0)} evicted")
        print()
    shown = obs_analyze.slowest(entries, args.slowest)
    print(f"slowest {len(shown)} of {len(entries)} retained traces:")
    print()
    for entry in shown:
        print(obs_analyze.format_trace_entry(entry))
        print()
    rollup = obs_analyze.aggregate_spans(shown)
    ranked = sorted(rollup.items(), key=lambda kv: -kv[1]["self_s"])[:10]
    if ranked:
        print("per-span self time across shown traces:")
        for name, row in ranked:
            print(f"  {name:<44} ×{row['count']:<4.0f}"
                  f" total {row['total_s'] * 1e3:9.3f} ms"
                  f"  self {row['self_s'] * 1e3:9.3f} ms")
    return 0


def cmd_diff(args) -> int:
    """Compare span latencies between two recorded runs."""
    from .obs import analyze as obs_analyze

    for run_dir in (args.run_a, args.run_b):
        if not os.path.exists(os.path.join(run_dir, obs.TRACE_FILE)):
            return _missing_run(run_dir)
    diff = obs_analyze.diff_runs(args.run_a, args.run_b)
    print(f"span latency diff: {args.run_a} -> {args.run_b}")
    header = (f"  {'span':<44} {'n(a)':>5} {'n(b)':>5} "
              f"{'p50 a→b ms':>21} {'p95 a→b ms':>21}  verdict")
    print(header)
    for row in diff["spans"]:
        if "p95_a" in row:
            p50 = (f"{row['p50_a'] * 1e3:9.3f}→{row['p50_b'] * 1e3:9.3f}")
            p95 = (f"{row['p95_a'] * 1e3:9.3f}→{row['p95_b'] * 1e3:9.3f}")
        else:
            p50 = p95 = "-"
        print(f"  {row['name']:<44} {row['count_a']:>5} {row['count_b']:>5} "
              f"{p50:>21} {p95:>21}  {row['verdict']}")
    print(f"verdict: {diff['verdict']}")
    return 0


def cmd_profile(args) -> int:
    """Run another CLI command under profiler + memory tracker + SLOs."""
    from .obs import slo as obs_slo

    rest = [token for token in args.cmd if token != "--"]
    if not rest:
        print("usage: repro profile [--dir DIR] [--hz N] <command> [args...]")
        print("example: repro profile --dir prof_run demo --light --scale 0.15")
        return 2
    if rest[0] in ("profile", "top", "watch"):
        print(f"refusing to profile `repro {rest[0]}` (nested run)")
        return 2
    objectives = args.slo if args.slo else list(obs_slo.DEFAULT_OBJECTIVES)
    code = 0
    with obs.run(
        args.dir,
        profile=True,
        profile_hz=args.hz,
        memory_tracking=not args.no_memory,
        slo_objectives=objectives,
    ):
        try:
            code = main(rest)
        except SystemExit as exit_request:  # argparse errors and friends
            raised = exit_request.code
            code = raised if isinstance(raised, int) else 1
    print(f"\nprofile recorded in {args.dir}/:")
    for name in (
        obs.PROFILE_COLLAPSED_FILE, obs.FLAMEGRAPH_FILE,
        obs.SLO_FILE, obs.MEMORY_FILE, obs.METRICS_FILE,
    ):
        path = os.path.join(args.dir, name)
        if os.path.exists(path):
            print(f"  {path}")
    print(f"watch live next time with: repro top --dir {args.dir}")
    return code


def cmd_top(args) -> int:
    """Live terminal view of a profiled run directory."""
    import time

    from .obs.report import render_top

    if not os.path.isdir(args.dir):
        return _missing_run(args.dir)
    iterations = 1 if args.once else args.iterations
    remaining = iterations
    while True:
        frame = render_top(args.dir)
        if not args.once:
            print("\033[2J\033[H", end="")
        print(frame)
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_watch(args) -> int:
    """Live ops console over a run directory (QPS, quality, SLO burn)."""
    import time

    from .obs.watch import render_watch

    if not os.path.isdir(args.dir):
        return _missing_run(args.dir)
    iterations = 1 if args.once else args.iterations
    remaining = iterations
    while True:
        frame = render_watch(args.dir)
        if not args.once:
            print("\033[2J\033[H", end="")
        print(frame)
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_audit(args) -> int:
    """Answer-quality audit view over a recorded run (repro.obs.quality).

    Reads the ``quality`` telemetry stream plus ``quality.json`` and
    prints the shadow-audit accounting and a predicted-vs-observed
    calibration table. ``--smoke`` first records a micro end-to-end run
    with auditing enabled (rate 1.0 unless ``--sample-rate`` is given).
    """
    from .bench.reporting import format_table
    from .obs import quality as obs_quality

    try:
        rate = (
            obs_quality.validate_rate(args.sample_rate)
            if args.sample_rate is not None
            else None
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    run_dir = args.dir
    if args.smoke:
        from .obs.report import run_smoke

        run_dir = run_smoke(run_dir, audit_rate=1.0 if rate is None else rate)
        print(f"smoke run with shadow auditing recorded in {run_dir}/\n")
    telemetry_path = os.path.join(run_dir, obs.TELEMETRY_FILE)
    if not os.path.exists(telemetry_path):
        return _missing_run(run_dir)

    records = obs_telemetry.load_run(telemetry_path)
    quality_records = [r for r in records if r.get("stream") == "quality"]
    audits = [r for r in quality_records if r.get("kind") == "audit"]
    drifts = [
        r for r in quality_records if r.get("kind") == "calibration_drift"
    ]
    quality_doc = _load_run_json(os.path.join(run_dir, obs.QUALITY_FILE))
    if not quality_records and not quality_doc:
        print(
            f"no audit data recorded in {run_dir}/ — "
            "answer quality is unverified; record one with:"
        )
        print(f"  python -m repro audit --dir {run_dir} --smoke")
        print(
            "or enable auditing on any recorded run with "
            "REPRO_AUDIT_RATE (default "
            f"{obs_quality.DEFAULT_AUDIT_RATE})"
        )
        return 1

    counts = (quality_doc or {}).get("counts", {})
    if counts:
        recall = quality_doc.get("mean_recall")
        bias = quality_doc.get("calibration_bias")
        print(
            f"{counts.get('queries', 0)} queries "
            f"({counts.get('approx_queries', 0)} approx), "
            f"{counts.get('audits', 0)} audited "
            f"[coin-skipped {counts.get('skipped_coin', 0)}, "
            f"budget-skipped {counts.get('skipped_budget', 0)}] | "
            f"overhead "
            f"{float(quality_doc.get('overhead_fraction') or 0.0):.2%}"
        )
        print(
            "mean audited recall "
            + (f"{float(recall):.3f}" if recall is not None else "-")
            + " | calibration bias "
            + (f"{float(bias):+.3f}" if bias is not None else "-")
            + f" | low-quality {counts.get('low_quality', 0)}"
            + f" | drift events {counts.get('drift_events', 0)}"
        )
    for record in drifts:
        print(
            f"calibration drift {record.get('severity', '?')}: "
            f"bias {float(record.get('bias', 0.0)):+.2f} over "
            f"{record.get('window', '?')} approximation answers"
        )

    pairs = [
        r for r in audits
        if r.get("predicted") is not None and r.get("observed") is not None
    ]
    if pairs:
        bins = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.01))
        rows = []
        for low, high in bins:
            binned = [
                r for r in pairs if low <= float(r["predicted"]) < high
            ]
            if not binned:
                continue
            mean_pred = sum(float(r["predicted"]) for r in binned) / len(binned)
            mean_obs = sum(float(r["observed"]) for r in binned) / len(binned)
            rows.append([
                f"[{low:.2f}, {min(high, 1.0):.2f})",
                len(binned),
                f"{mean_pred:.3f}",
                f"{mean_obs:.3f}",
                f"{mean_pred - mean_obs:+.3f}",
            ])
        print()
        print(format_table(
            ["predicted bin", "audits", "mean predicted",
             "mean observed", "bias"],
            rows,
            title="Calibration — predicted confidence vs audited quality",
        ))
        worst = sorted(
            audits, key=lambda r: float(r.get("recall", 1.0))
        )[:args.last]
        print()
        print(format_table(
            ["trace", "recall", "agg rel err", "predicted", "sql"],
            [
                [
                    str(r.get("trace_id", "?"))[:16],
                    f"{float(r.get('recall', 0.0)):.3f}",
                    (
                        f"{float(r['agg_rel_error']):.3f}"
                        if r.get("agg_rel_error") is not None
                        else "-"
                    ),
                    f"{float(r.get('predicted', 0.0)):.3f}",
                    str(r.get("sql", ""))[:48],
                ]
                for r in worst
            ],
            title=f"Worst {len(worst)} audited answers "
                  "(repro analyze --trace <id>)",
        ))
    else:
        print(
            "quality telemetry present but no completed audits — the "
            "sampling coin or the overhead budget skipped every candidate"
        )
    return 0


def cmd_lint(args) -> int:
    """Run the AST linter (repro.lint); prints the report it returns."""
    code, text = lint_cli.run_args(args)
    print(text)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="ASQP-RL reproduction CLI"
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="train + short query session")
    _add_common(demo)
    demo.set_defaults(func=cmd_demo)

    train = commands.add_parser("train", help="train and save a model")
    _add_common(train)
    train.add_argument("--out", required=True, help="output model directory")
    train.set_defaults(func=cmd_train)

    query = commands.add_parser("query", help="query a saved model")
    query.add_argument("--model", required=True, help="saved model directory")
    query.add_argument("--dataset", default="imdb")
    query.add_argument("--scale", type=float, default=0.3)
    query.add_argument("--sql", required=True, help="SQL text to answer")
    query.set_defaults(func=cmd_query)

    explain = commands.add_parser(
        "explain", help="print the operator tree of a SQL query"
    )
    explain.add_argument("sql", help="SQL text (a leading EXPLAIN [ANALYZE] is ok)")
    explain.add_argument("--analyze", action="store_true",
                         help="execute the query and record actual rows / "
                              "q-error / per-operator time")
    explain.add_argument("--json", action="store_true",
                         help="emit the plan as JSON instead of text")
    explain.add_argument("--dataset", default="imdb")
    explain.add_argument("--scale", type=float, default=0.3)
    explain.add_argument("--telemetry", metavar="DIR", default=None,
                         help="record the plan into an observability run")
    explain.set_defaults(func=cmd_explain)

    report = commands.add_parser(
        "report", help="fuse a recorded run into one diagnostic artifact"
    )
    report.add_argument("--dir", default=DEFAULT_OBS_DIR,
                        help="run directory written by --telemetry")
    report.add_argument("--out", default=None,
                        help="output path (default: <dir>/report.md|.html)")
    report.add_argument("--html", action="store_true",
                        help="render a self-contained HTML artifact")
    report.add_argument("--bench-dir", default=None,
                        help="bench_results directory (default: repo layout)")
    report.add_argument("--smoke", action="store_true",
                        help="run a tiny end-to-end pipeline first and report it")
    report.set_defaults(func=cmd_report)

    bench = commands.add_parser("bench", help="show recorded benchmark tables")
    bench.set_defaults(func=cmd_bench)

    stats = commands.add_parser(
        "stats", help="pretty-print a recorded run's metrics + telemetry"
    )
    stats.add_argument("--dir", default=DEFAULT_OBS_DIR,
                       help="run directory written by --telemetry")
    stats.add_argument("--last", type=int, default=10,
                       help="how many trailing updates/queries to show")
    stats.set_defaults(func=cmd_stats)

    trace = commands.add_parser(
        "trace", help="pretty-print a recorded run's span tree"
    )
    trace.add_argument("--dir", default=DEFAULT_OBS_DIR,
                       help="run directory written by --telemetry")
    trace.add_argument("--depth", type=int, default=6,
                       help="maximum span nesting depth to print")
    trace.set_defaults(func=cmd_trace)

    analyze = commands.add_parser(
        "analyze",
        help="reconstruct retained traces: span trees + critical paths",
    )
    analyze.add_argument("--dir", default=DEFAULT_OBS_DIR,
                         help="run directory written by --telemetry")
    analyze.add_argument("--trace", default=None, metavar="ID",
                         help="trace id (or unique prefix) to reconstruct")
    analyze.add_argument("--slowest", type=int, default=5, metavar="N",
                         help="show the N slowest retained traces")
    analyze.set_defaults(func=cmd_analyze)

    diff = commands.add_parser(
        "diff", help="compare span latencies between two recorded runs"
    )
    diff.add_argument("run_a", help="baseline run directory")
    diff.add_argument("run_b", help="candidate run directory")
    diff.set_defaults(func=cmd_diff)

    profile = commands.add_parser(
        "profile",
        help="run another repro command under the sampling profiler",
        description="Wrap any other repro command in an observability run "
                    "with the continuous sampling profiler, the tracemalloc "
                    "memory tracker, and the default latency SLOs enabled. "
                    "Artifacts (flamegraph.html, profile.collapsed.txt, "
                    "slo.json, memory.json, ...) land in --dir.",
    )
    profile.add_argument("--dir", default=DEFAULT_OBS_DIR,
                         help="run directory for the recorded artifacts")
    profile.add_argument("--hz", type=float, default=100.0,
                         help="profiler sampling frequency (samples/s)")
    profile.add_argument("--no-memory", action="store_true",
                         help="skip the tracemalloc memory tracker "
                              "(it slows allocation-heavy code)")
    profile.add_argument("--slo", action="append", default=None,
                         metavar="SPEC",
                         help="objective like 'query.p95 < 250ms' "
                              "(repeatable; default: the built-in set)")
    profile.add_argument("cmd", nargs=argparse.REMAINDER,
                         help="the repro command to run, e.g. "
                              "`demo --light --scale 0.15`")
    profile.set_defaults(func=cmd_profile)

    top = commands.add_parser(
        "top", help="live terminal view of a profiled run directory"
    )
    top.add_argument("--dir", default=DEFAULT_OBS_DIR,
                     help="run directory being written by `repro profile`")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (CI-friendly)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N frames (default: until Ctrl-C)")
    top.set_defaults(func=cmd_top)

    watch = commands.add_parser(
        "watch",
        help="live ops console: QPS/p95, answer quality, SLO burn",
    )
    watch.add_argument("--dir", default=DEFAULT_OBS_DIR,
                       help="run directory a live run is writing into")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit (CI-friendly)")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes")
    watch.add_argument("--iterations", type=int, default=None,
                       help="stop after N frames (default: until Ctrl-C)")
    watch.set_defaults(func=cmd_watch)

    audit = commands.add_parser(
        "audit",
        help="shadow-audit view: predicted vs audited answer quality",
        description="Print the answer-quality accounting of a recorded "
                    "run: shadow-audit counts, audited recall, and a "
                    "predicted-vs-observed calibration table (see "
                    "repro.obs.quality). Exits 1 when the run recorded "
                    "no audit data.",
    )
    audit.add_argument("--dir", default=DEFAULT_OBS_DIR,
                       help="run directory written by --telemetry")
    audit.add_argument("--sample-rate", default=None, metavar="RATE",
                       help="shadow-audit sample rate in [0, 1] for --smoke "
                            "(default: 1.0 with --smoke; recorded runs use "
                            "REPRO_AUDIT_RATE or 0.1)")
    audit.add_argument("--smoke", action="store_true",
                       help="record a micro end-to-end run with auditing "
                            "enabled first, then print its audit view")
    audit.add_argument("--last", type=int, default=5,
                       help="how many worst audited answers to show")
    audit.set_defaults(func=cmd_audit)

    lint = commands.add_parser(
        "lint", help="run the AST lint rule pack over source paths"
    )
    lint_cli.add_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
