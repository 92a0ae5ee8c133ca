"""The run-directory format has one module, and the verbs are its views.

Pins what ``repro.obs.rundir`` promises (DESIGN.md §6, "Run directory"):

* one answer for a damaged run — every reading verb × every corrupt
  artifact it parses (the JSON ones and the collapsed stacks) exits 1
  with one line naming the file; an empty or missing directory gives
  the one "record a run with" message; a telemetry line cut mid-record
  costs only that record;
* atomic artifacts — a failed write leaves the previous document whole
  and a finished run leaves no ``*.tmp`` behind;
* the views are the sections — ``stats`` / ``audit`` / ``watch`` print
  report sections verbatim, no module but ``rundir`` knows a file name,
  and one ``percentile`` serves the queries section, ``diff``, the SLO
  windows and the ``slow`` trace label;
* one source for a run's verdicts — ``report`` and ``watch`` print the
  alerts of ``health.alerts(run)``, nothing records a verdict beside the
  facts it folds over, and ``trace.json`` says what its ring dropped.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from collections import Counter

import pytest

from repro import obs
from repro.__main__ import main, run_smoke
from repro.obs import analyze, health, metrics, rundir, slo, trace
from repro.obs.report import render_watch

PARSED_ARTIFACTS = ("trace", "profile", "memory")


def reading_verbs(run_dir):
    """argv of every verb that reads a run directory."""
    return {
        "report": ["report", "--dir", run_dir],
        "stats": ["stats", "--dir", run_dir],
        "trace": ["trace", "--dir", run_dir],
        "analyze": ["analyze", "--dir", run_dir],
        "diff": ["diff", run_dir, run_dir],
        "audit": ["audit", "--dir", run_dir],
        "watch": ["watch", "--dir", run_dir, "--once"],
    }


VERBS = sorted(reading_verbs(""))


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One profiled, audited micro run every test below reads (or copies)."""
    obs.disable()
    return run_smoke(str(tmp_path_factory.mktemp("smoke")))


@pytest.fixture
def run_copy(smoke_run, tmp_path):
    target = str(tmp_path / "run")
    shutil.copytree(smoke_run, target)
    return target


# ------------------------------------------------------------------ #
# one answer for a damaged run
# ------------------------------------------------------------------ #
class TestDamagedRun:
    @pytest.mark.parametrize("artifact", PARSED_ARTIFACTS)
    @pytest.mark.parametrize("verb", VERBS)
    def test_corrupt_artifact_exits_1_naming_the_file(
        self, run_copy, capsys, verb, artifact
    ):
        path = os.path.join(run_copy, rundir.FILES[artifact])
        with open(path, "w") as handle:
            handle.write("{broken")
        assert main(reading_verbs(run_copy)[verb]) == 1
        out = capsys.readouterr().out.strip()
        assert len(out.splitlines()) == 1
        assert out.startswith(f"unreadable run artifact {path}")
        assert "Traceback" not in out

    @pytest.mark.parametrize("exists", [True, False])
    @pytest.mark.parametrize("verb", VERBS)
    def test_no_run_here_is_one_message(self, tmp_path, capsys, verb, exists):
        run_dir = str(tmp_path / "nothing")
        if exists:
            os.makedirs(run_dir)
        assert main(reading_verbs(run_dir)[verb]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"no observability run under {run_dir}/")
        assert "record a run with" in out

    def test_cut_last_telemetry_line_keeps_every_complete_record(
        self, run_copy
    ):
        whole = rundir.load(run_copy).records
        with open(rundir.telemetry_sink(run_copy), "a") as handle:
            handle.write('{"stream": "query", "seq": 99, "elapsed_sec')
        assert rundir.load(run_copy).records == whole

    def test_undecodable_profile_raises_and_an_empty_one_loads(
        self, run_copy
    ):
        path = os.path.join(run_copy, rundir.FILES["profile"])
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        with pytest.raises(rundir.RunError, match="unreadable run artifact"):
            rundir.load(run_copy)
        open(path, "w").close()  # a profiled run with no samples yet
        assert rundir.load(run_copy).profile == {}

    def test_wrong_shape_names_the_expectation(self, run_copy):
        with open(os.path.join(run_copy, "memory.json"), "w") as handle:
            handle.write("[1, 2]")
        with pytest.raises(rundir.RunError, match="expected a JSON object"):
            rundir.load(run_copy)


    @pytest.mark.parametrize("verb", VERBS)
    def test_an_older_runs_quality_json_is_not_read(
        self, run_copy, capsys, verb
    ):
        # Runs recorded before the read-time folds also hold a
        # quality.json and a metrics.json; no view reads them, damaged
        # or not.
        for name in ("quality.json", "metrics.json"):
            with open(os.path.join(run_copy, name), "w") as handle:
                handle.write("{broken")
        assert main(reading_verbs(run_copy)[verb]) == 0
        assert "unreadable" not in capsys.readouterr().out


# ------------------------------------------------------------------ #
# atomic artifacts
# ------------------------------------------------------------------ #
class TestAtomicArtifacts:
    def test_failed_flush_keeps_the_previous_documents(
        self, tmp_path, monkeypatch
    ):
        run_dir = str(tmp_path / "run")
        flushed = ("memory",)
        obs.start_run(run_dir, audit_rate=1.0)
        try:
            obs.memory.start()
            obs._flush_continuous(run_dir)
            before = {
                key: open(os.path.join(run_dir, rundir.FILES[key])).read()
                for key in flushed
            }

            def refuse(source, target):
                raise OSError("disk full")

            monkeypatch.setattr(os, "replace", refuse)
            with pytest.raises(OSError, match="disk full"):
                obs._flush_continuous(run_dir)
            monkeypatch.undo()
            for key in flushed:
                path = os.path.join(run_dir, rundir.FILES[key])
                with open(path) as handle:
                    text = handle.read()
                assert text == before[key]
                json.loads(text)  # still one complete document
        finally:
            obs.finish_run(run_dir)
        assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]

    def test_finished_run_leaves_no_partial_files(self, smoke_run):
        names = os.listdir(smoke_run)
        assert not [name for name in names if name.endswith(".tmp")]
        assert set(rundir.FILES.values()) <= set(names)
        assert len(rundir.FILES) == 5 and "metrics.json" not in names


# ------------------------------------------------------------------ #
# the views are the sections
# ------------------------------------------------------------------ #
def report_sections(run_dir):
    """``{heading: text}`` of a freshly built report, split at ``## ``.

    Each text ends with its last line's newline; the blank line between
    two sections belongs to neither.
    """
    from repro.obs.report import build_report

    with open(build_report(run_dir)) as handle:
        body = handle.read()
    sections = {}
    for chunk in body.split("\n## ")[1:]:
        sections[chunk.splitlines()[0]] = "## " + chunk
    return sections


class TestViewsAreSections:
    def test_stats_is_the_training_queries_and_hottest_spans_sections(
        self, smoke_run, capsys
    ):
        sections = report_sections(smoke_run)
        capsys.readouterr()
        assert main(["stats", "--dir", smoke_run]) == 0
        expected = "\n".join(
            sections[heading]
            for heading in (
                "Training trajectory",
                "Queries & estimator calibration",
                "Hottest spans",
            )
        )
        assert capsys.readouterr().out == expected + "\n"

    def test_audit_is_the_answer_quality_section(self, smoke_run, capsys):
        sections = report_sections(smoke_run)
        capsys.readouterr()
        assert main(["audit", "--dir", smoke_run]) == 0
        out = capsys.readouterr().out
        assert out == sections["Answer quality"] + "\n"
        assert "Calibration (predicted vs audited)" in out

    def test_watch_has_the_panes_top_printed(self, smoke_run, capsys):
        """``watch`` is the report's ops sections, verbatim, in order."""
        sections = report_sections(smoke_run)
        capsys.readouterr()
        assert main(["watch", "--dir", smoke_run, "--once"]) == 0
        frame = capsys.readouterr().out
        assert frame.startswith(f"# repro watch — {smoke_run}\n")
        at = 0
        for heading in (
            "Run summary", "Service-level objectives",
            "Queries & estimator calibration", "Answer quality",
            "Slowest traces", "CPU & memory profile", "Health alerts",
        ):
            at = frame.index(sections[heading], at)  # raises if absent
        for pane in (
            "Hot functions (self time)", "Samples by enclosing span",
            "Memory (tracemalloc)",
        ):
            assert f"\n### {pane}\n" in frame
        assert "\n## Last events\n\n- #" in frame
        memory_doc = rundir.load(smoke_run).memory
        assert f"{memory_doc['peak_kb']:.0f} KiB peak" in frame

    def test_hottest_spans_show_self_time_and_layers(self, smoke_run):
        text = report_sections(smoke_run)["Hottest spans"]
        assert "| span | count | total ms | self ms |" in text
        assert "### Self time by layer" in text
        assert "| train |" in text and "| execute |" in text

    def test_only_rundir_knows_a_file_name(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setitem(rundir.FILES, "memory", "x.json")
        monkeypatch.setitem(rundir.FILES, "trace", "y.json")
        monkeypatch.setitem(rundir.FILES, "telemetry", "z.jsonl")
        run_dir = run_smoke(str(tmp_path / "renamed"))
        names = set(os.listdir(run_dir))
        assert {"x.json", "y.json", "z.jsonl"} <= names
        assert not names & {"memory.json", "trace.json", "telemetry.jsonl"}

        for verb, argv in reading_verbs(run_dir).items():
            assert main(argv) == 0, verb
        out = capsys.readouterr().out
        # Content that can only have come from the renamed artifacts.
        assert "KiB peak" in out                                 # x.json
        assert "train.update" in out and "no regressions" in out  # y.json
        assert "3 queries" in out                                # z.jsonl
        assert "estimator.calibration_error < 0.1" in out       # z.jsonl
        assert "skipped by the sampling coin" in out            # z.jsonl
        run = rundir.load(run_dir)
        assert run.memory["peak_kb"] and run.trace and run.records


# ------------------------------------------------------------------ #
# one source for a run's verdicts
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def drift_run(tmp_path_factory):
    """A recorded session in which every other query fires a drift event."""
    from repro.core import ASQPConfig, ASQPSession, ASQPTrainer
    from repro.datasets import load_flights

    obs.disable()
    run_dir = str(tmp_path_factory.mktemp("drift"))
    with obs.run(run_dir, audit_rate=1.0):
        bundle = load_flights(scale=0.12, n_queries=12, n_aggregate_queries=2)
        config = ASQPConfig.light(
            memory_budget=120, frame_size=20, n_iterations=2,
            learning_rate=1e-3, seed=0,
        )
        model = ASQPTrainer(bundle.db, bundle.workload, config).train()
        session = ASQPSession(model, auto_fine_tune=False)
        session.drift_detector.confidence_threshold = 0.0
        session.drift_detector.trigger_count = 2
        for query in bundle.workload:
            session.query(query)
    return run_dir


def report_alerts(run_dir):
    """(severity, rule) of every row of the report's alert table."""
    text = report_sections(run_dir)["Health alerts"]
    return re.findall(r"^\| (WARN|CRIT) \| (\w+) \|", text, flags=re.M)


def watch_health(run_dir, capsys):
    """The health of ``watch --once``: (verdict counts, alert rows)."""
    capsys.readouterr()
    assert main(["watch", "--dir", run_dir, "--once"]) == 0
    frame = capsys.readouterr().out
    crit, warn = re.search(
        r"^- health verdict: .* \((\d+) CRIT, (\d+) WARN\)$", frame, flags=re.M
    ).groups()
    pane = frame.split("\n## Health alerts\n")[1].split("\n## Last events\n")[0]
    shown = re.findall(r"^\| (WARN|CRIT) \| (\w+) \|", pane, flags=re.M)
    return {"CRIT": int(crit), "WARN": int(warn)}, shown


#: Where each fact of a smoke run lives, now that no ``metrics.json``
#: copies them: a field of a telemetry stream's rows ...
SMOKE_ROW_FACTS = {
    "query": {
        "elapsed_seconds", "confidence", "realized_frame_score",
        "used_approximation",
    },
    "train.update": {
        "mean_episode_reward", "n_samples", "rollout_seconds",
        "update_seconds", "kl_divergence", "clip_fraction", "entropy",
        "grad_norm", "explained_variance",
    },
    "estimator": {"calibration_error"},
    "plan": {"max_q_error"},
    "trace": {"roots_dropped"},
}
#: ... or a counter of a span (the executor's output rows).
SMOKE_SPAN_FACTS = {"execute": {"rows_out"}, "session.query": {"rows_out"}}


class TestOneSourceForVerdicts:
    def test_one_interest_drift_alert_per_drift_event(self, drift_run):
        run = rundir.load(drift_run)
        events = len(run.stream("drift"))
        assert events >= 3
        assert sum(q["drift"] for q in run.stream("query")) == events
        rules = Counter(alert.rule for alert in health.alerts(run))
        assert rules["interest_drift"] == events

    @pytest.mark.parametrize("fixture", ["drift_run", "smoke_run"])
    def test_report_and_watch_print_the_same_alerts(
        self, fixture, request, capsys
    ):
        run_dir = request.getfixturevalue(fixture)
        found = [
            (a.severity, a.rule) for a in health.alerts(rundir.load(run_dir))
        ]
        assert found
        assert report_alerts(run_dir) == found
        counts, shown = watch_health(run_dir, capsys)
        assert counts == {"CRIT": 0, "WARN": 0, **Counter(s for s, _ in found)}
        assert shown == found
        summary = report_sections(run_dir)["Run summary"]
        assert f"({counts['CRIT']} CRIT, {counts['WARN']} WARN)" in summary

    def test_smoke_run_records_facts_not_verdicts(self, smoke_run):
        run = rundir.load(smoke_run)
        assert run.stream("health") == []
        assert [r["kind"] for r in run.stream("quality")][0] == "config"
        assert {r["kind"] for r in run.stream("quality")} == {"audit", "config"}
        assert not any("external" in r for r in run.stream("drift"))
        for name in ("quality.json", "metrics.json"):
            assert not os.path.exists(os.path.join(smoke_run, name))
        for stream, fields in SMOKE_ROW_FACTS.items():
            rows = run.stream(stream)
            assert rows and all(fields <= set(row) for row in rows), stream
        spans = list(analyze._walk({"children": run.trace}))
        for name, counters in SMOKE_SPAN_FACTS.items():
            found = [sp for sp in spans if sp.get("name") == name]
            assert found and all(
                counters <= set(sp.get("counters", {})) for sp in found
            ), name
        summary = obs.quality.accounting(run)
        assert "calibration_bias" not in summary
        assert "drift_events" not in summary["counts"]

    def test_calibration_objective_reads_the_estimator_row(self, smoke_run):
        run = rundir.load(smoke_run)
        (status,) = [
            s for s in slo.statuses(run)
            if s["spec"] == "estimator.calibration_error < 0.1"
        ]
        assert status["n_samples"] == 1
        assert status["value"] == run.stream("estimator")[-1]["calibration_error"]

    @pytest.mark.parametrize("fixture", ["drift_run", "smoke_run"])
    def test_every_approximation_answer_has_one_audit_decision(
        self, fixture, request
    ):
        run = rundir.load(request.getfixturevalue(fixture))
        queries = run.stream("query")
        assert {q["used_approximation"] for q in queries if "audit" in q} == {
            True
        }
        counts = obs.quality.accounting(run)["counts"]
        assert counts["audits"] > 0
        assert (
            counts["audits"] + counts["skipped_coin"] + counts["skipped_budget"]
            == counts["approx_queries"]
        )
        audited = [q["trace_id"] for q in queries if q.get("audit") == "audited"]
        assert audited == [r["trace_id"] for r in obs.quality.audits(run)]

    def test_trace_json_says_what_its_ring_dropped(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        extra = 44
        with obs.run(run_dir):
            with obs.span("train"):
                pass
            for _ in range(trace.MAX_ROOTS + extra - 1):
                with obs.span("session.query"):
                    pass
        run = rundir.load(run_dir)
        assert len(run.trace) == trace.MAX_ROOTS
        assert [r["roots_dropped"] for r in run.stream("trace")] == [extra]
        note = (
            f"{extra} older root spans not retained (window "
            f"{trace.MAX_ROOTS}); totals cover the retained tail"
        )
        assert analyze.dropped_roots_note(run) == note
        assert note in report_sections(run_dir)["Hottest spans"]
        capsys.readouterr()
        for argv in (["trace", "--dir", run_dir], ["diff", run_dir, run_dir]):
            assert main(argv) == 0
            assert note in capsys.readouterr().out

    def test_nothing_dropped_prints_no_note(self, smoke_run, capsys):
        assert analyze.dropped_roots_note(rundir.load(smoke_run)) is None
        assert main(["trace", "--dir", smoke_run]) == 0
        assert "not retained" not in capsys.readouterr().out


# ------------------------------------------------------------------ #
# one percentile
# ------------------------------------------------------------------ #
#: (n, q) → nearest-rank value of the sample 1..n.
PERCENTILES = {
    (1, 0.1): 1, (1, 0.5): 1, (1, 0.95): 1,
    (3, 0.1): 1, (3, 0.5): 2, (3, 0.95): 3,
    (4, 0.1): 1, (4, 0.5): 2, (4, 0.95): 4,
    (21, 0.1): 3, (21, 0.5): 11, (21, 0.95): 20,
    # ceil(q·n), not round(): 243.2 → 244; and 0.7 * 10 is 7.000…01.
    (256, 0.95): 244, (10, 0.7): 7,
}


class TestOnePercentile:
    @pytest.mark.parametrize("n,q", sorted(PERCENTILES))
    def test_nearest_rank_table(self, n, q):
        sample = [float(v) for v in range(1, n + 1)]
        assert metrics.percentile(sample, q) == PERCENTILES[n, q]

    def test_empty_sample_is_nan(self):
        assert metrics.percentile([], 0.5) != metrics.percentile([], 0.5)

    @pytest.mark.parametrize("n", [1, 3, 4, 21])
    def test_watch_diff_slo_and_sampler_agree_with_the_table(self, n):
        """The fourth reader is the ``slow`` label that replaced the
        tail sampler's slow cut."""
        sample = [float(v) for v in range(1, n + 1)]
        p50, p95 = PERCENTILES[n, 0.5], PERCENTILES[n, 0.95]

        # watch (the queries section): latencies in seconds, printed in
        # ms with one decimal
        run = rundir.Run("synthetic", records=[
            {"stream": "query", "ts": 1.0, "elapsed_seconds": v / 1e3}
            for v in sample
        ], trace=[
            {"name": "work", "start_s": 0.0, "seconds": v} for v in sample
        ])
        assert f"p50 {p50:.1f} ms, p95 {p95:.1f} ms" in render_watch(run)

        # diff: p50/p95 per span name
        (row,) = analyze.diff_runs(run, run)["spans"]
        assert (row["p50_a"], row["p95_b"]) == (p50, p95)

        # SLO windows
        assert slo._aggregate(sample, "p50") == p50
        assert slo._aggregate(sample, "p10") == PERCENTILES[n, 0.1]

        # trace label: "slow" is strictly above the run's p95, so exactly
        # p95 is not slow and p95 + ε is (the largest of 21 traces; under
        # 20 traces the p95 is the largest one and nothing is slow)
        durations = sample[:-1] + [sample[-1] if n < 20 else p95 + 1e-9]
        labels = [
            entry["label"]
            for entry in analyze.retained_traces(rundir.Run("synthetic", trace=[
                {"name": "probe", "start_s": 0.0, "seconds": seconds,
                 "trace_id": f"{i:032x}"}
                for i, seconds in enumerate(durations)
            ]))
        ]
        assert labels == ["slow" if d > p95 else None for d in durations]
