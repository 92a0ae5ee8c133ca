"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``   — train on a bundled dataset and run a short query session.
``train``  — train ASQP-RL and save the model directory.
``query``  — load a saved model and answer one SQL query.
``explain`` — print the operator tree of a SQL query (``--analyze`` runs it).
``bench``  — print the location and contents of recorded benchmark tables.
``profile`` — run any other command under the continuous sampling
profiler + memory tracker + default SLOs (collapsed stacks and
memory.json land in the run directory; the objectives are recorded as
``slo`` telemetry rows).

Seven verbs are views of one recorded run directory, all read through
``repro.obs.rundir.load`` (one "no run here" message, one "unreadable
artifact" message, exit 1):

``report`` — every section (repro.obs.report) as one markdown artifact.
``stats``  — its training, queries and hottest-spans sections.
``audit``  — its answer-quality section (shadow audits, calibration).
``trace``  — the span tree.
``analyze`` — traces by id or the slowest: span trees, critical paths.
``diff``   — span latencies of two runs, with a regression verdict.
``watch``  — its summary, SLO, queries, answer-quality, slowest-traces,
profile and health sections, refreshed in place, with the last events.

``demo``/``train``/``explain`` accept ``--telemetry DIR`` to record a
full observability run (trace.json, trace_chrome.json, telemetry.jsonl)
for those views; the artifacts are written even when the command raises.

Unknown subcommands exit with status 2 and the available-command list
(argparse's required-subparser behaviour, pinned by ``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, obs
from .core import ASQPConfig, ASQPSession, ASQPTrainer, load_model, save_model, score
from .core.persistence import ModelError
from .datasets import load_flights, load_imdb, load_mas
from .db import explain as db_explain, split_explain, sql
from .obs import rundir
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
        help="record an observability run (trace + telemetry JSONL) "
             "into DIR; read it back with `repro report`/`stats`/`trace`",
    )


def _make_config(args) -> ASQPConfig:
    """The run's configuration; a bad flag value exits with one line."""
    overrides = dict(
        memory_budget=args.k,
        frame_size=args.frame_size,
        n_iterations=args.iterations,
        seed=args.seed,
    )
    try:
        return ASQPConfig.light(**overrides) if args.light else ASQPConfig(**overrides)
    except ValueError as error:
        raise SystemExit(f"invalid configuration: {error}")


def cmd_demo(args) -> int:
    config = _make_config(args)
    bundle = _load_bundle(args.dataset, args.scale)
    print(f"dataset: {bundle.db}")
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
    return 0


def cmd_train(args) -> int:
    config = _make_config(args)
    bundle = _load_bundle(args.dataset, args.scale)
    print(f"training on {bundle.db} ...")
    model = ASQPTrainer(bundle.db, bundle.workload, config).train()
    save_model(model, args.out)
    print(f"model saved to {args.out} "
          f"(setup {model.setup_seconds:.1f}s, "
          f"{len(model.action_space)} actions)")
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
    plan = db_explain(bundle.db, query, analyze=analyze)
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2, default=str))
    else:
        print(plan.format())
    return 0


def run_smoke(directory: str) -> str:
    """Record a tiny end-to-end run into ``directory`` and return it.

    Micro pipeline — flights at scale 0.12, ASQP-Light, two iterations,
    a few routed queries, and one EXPLAIN ANALYZE — sized for CI: it
    exercises every telemetry stream the report renders in seconds.
    The whole pipeline runs under :func:`repro.obs.run` with the
    profiler, the memory tracker, the default + quality SLOs and shadow
    auditing at rate 1.0 (every routed query is audited), so every
    section and every view renders from real artifacts.
    """
    with obs.run(
        directory,
        profile=True,
        memory_tracking=True,
        slo_objectives=(
            *obs.slo.DEFAULT_OBJECTIVES, *obs.quality.QUALITY_OBJECTIVES
        ),
        audit_rate=1.0,
    ):
        bundle = load_flights(scale=0.12, n_queries=6, n_aggregate_queries=2)
        config = ASQPConfig.light(
            memory_budget=120, frame_size=20, n_iterations=2, seed=0,
        )
        model = ASQPTrainer(bundle.db, bundle.workload, config).train()
        session = ASQPSession(model, auto_fine_tune=False)
        for query in list(bundle.workload)[:3]:
            session.query(query)
        db_explain(bundle.db, list(bundle.workload)[0], analyze=True)
    return directory


def cmd_report(args) -> int:
    """Build the fused diagnostic report (see repro.obs.report)."""
    from .obs.report import build_report

    if args.smoke:
        run_smoke(args.dir)
    print(f"report written to {build_report(args.dir, out_path=args.out)}")
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


def cmd_stats(args) -> int:
    """The report's training, queries and hottest-spans sections of a run."""
    from .obs import report

    print(report.render_sections(rundir.load(args.dir), report.STATS_SECTIONS))
    return 0


def cmd_audit(args) -> int:
    """The report's answer-quality section; exit 1 on an unaudited run."""
    from .obs import report

    run = rundir.load(args.dir)
    print(report.render_sections(run, (report.section_quality,)))
    return 0 if obs.quality.audits(run) else 1


def cmd_trace(args) -> int:
    """Pretty-print the span tree of a recorded run."""
    from .obs import analyze

    run = rundir.load(args.dir)
    roots = run.trace or []
    print(f"trace — {run.directory} ({len(roots)} root spans)")
    note = analyze.dropped_roots_note(run)
    if note:
        print(note)
    print(obs_trace.format_tree(roots, max_depth=args.depth))
    chrome_path = run.path("chrome_trace")
    if chrome_path:
        print(f"\nchrome://tracing / perfetto file: {chrome_path}")
    return 0


def cmd_analyze(args) -> int:
    """Reconstruct and analyze retained traces of a recorded run."""
    from .obs import analyze

    code, text = analyze.render_analysis(
        rundir.load(args.dir), trace_id=args.trace, n_slowest=args.slowest
    )
    print(text)
    return code


def cmd_diff(args) -> int:
    """Compare span latencies between two recorded runs."""
    from .obs import analyze

    print(analyze.render_diff(rundir.load(args.run_a), rundir.load(args.run_b)))
    return 0


def cmd_profile(args) -> int:
    """Run another CLI command under profiler + memory tracker + SLOs."""
    from .obs import slo as obs_slo

    rest = [token for token in args.cmd if token != "--"]
    if not rest:
        print("usage: repro profile [--dir DIR] <command> [args...]")
        print("example: repro profile --dir prof_run demo --light --scale 0.15")
        return 2
    if rest[0] in ("profile", "watch"):
        print(f"refusing to profile `repro {rest[0]}` (nested run)")
        return 2
    objectives = args.slo if args.slo else list(obs_slo.DEFAULT_OBJECTIVES)
    code = 0
    with obs.run(
        args.dir,
        profile=True,
        memory_tracking=not args.no_memory,
        slo_objectives=objectives,
    ):
        try:
            code = main(rest)
        except SystemExit as exit_request:  # argparse errors and friends
            raised = exit_request.code
            code = raised if isinstance(raised, int) else 1
    print(f"\nprofile recorded in {args.dir}/:")
    for name in rundir.load(args.dir).artifacts:
        print(f"  {os.path.join(args.dir, name)}")
    print(f"watch live next time with: repro watch --dir {args.dir}")
    return code


def cmd_watch(args) -> int:
    """The report's watch sections of a run directory, refreshed."""
    import time

    from .obs import report

    remaining = 1 if args.once else args.iterations
    while True:
        frame = report.render_watch(rundir.load(args.dir))
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
                        help="output path (default: <dir>/report.md)")
    report.add_argument("--smoke", action="store_true",
                        help="run a tiny end-to-end pipeline first and report it")
    report.set_defaults(func=cmd_report)

    bench = commands.add_parser("bench", help="show recorded benchmark tables")
    bench.set_defaults(func=cmd_bench)

    stats = commands.add_parser(
        "stats", help="print a run's training, queries and hottest spans"
    )
    stats.add_argument("--dir", default=DEFAULT_OBS_DIR,
                       help="run directory written by --telemetry")
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
        help="reconstruct traces: span trees + critical paths",
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
                    "with the continuous sampling profiler (100 hz), the "
                    "tracemalloc memory tracker, and the default latency "
                    "SLOs enabled. Artifacts (profile.collapsed.txt, "
                    "memory.json, ...) land in --dir; the SLOs are judged "
                    "over the recorded rows when the run is read back.",
    )
    profile.add_argument("--dir", default=DEFAULT_OBS_DIR,
                         help="run directory for the recorded artifacts")
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

    watch = commands.add_parser(
        "watch",
        help="the report's ops sections, refreshed: summary, SLOs, "
             "queries, answer quality, slowest traces, profile, health",
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
        description="Print the answer-quality section of a recorded "
                    "run: shadow-audit counts, audited recall, and a "
                    "predicted-vs-observed calibration table (see "
                    "repro.obs.quality). Exits 1 when the run recorded "
                    "no audit data. Runs audit at REPRO_AUDIT_RATE "
                    "(default 0.1); `repro report --smoke` records one "
                    "audited at rate 1.0.",
    )
    audit.add_argument("--dir", default=DEFAULT_OBS_DIR,
                       help="run directory written by --telemetry")
    audit.set_defaults(func=cmd_audit)

    args = parser.parse_args(argv)
    try:
        directory = getattr(args, "telemetry", None)
        if not directory:
            return args.func(args)
        if args.func in (cmd_demo, cmd_train):
            _make_config(args)  # a rejected config records no run
        # The run's artifacts flush and observability turns off even when
        # the command raises.
        with obs.run(directory):
            code = args.func(args)
        print(f"observability run recorded in {directory}/ "
              f"({', '.join(rundir.load(directory).artifacts)})")
        print(f"inspect with: repro stats --dir {directory}  |  "
              f"repro trace --dir {directory}")
        return code
    except (rundir.RunError, ModelError) as error:
        # A missing or damaged run directory / saved model: one line, exit 1.
        print(error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
