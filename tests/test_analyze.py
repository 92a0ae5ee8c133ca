"""Trace analysis: critical paths, aggregation, and run-vs-run diffs.

Exercises :mod:`repro.obs.analyze` on synthetic span trees where the
right answers are computable by hand — in particular the interval-union
self-time attribution that collapses overlapping children to their max
instead of summing them — plus ``retained_traces`` (one entry per trace
id of ``trace.json``, each labelled when the run is read) and the
``diff_runs`` regression verdict.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import analyze
from repro.obs.rundir import Run, load


def node(name, start, seconds, children=(), **extra):
    record = {
        "name": name,
        "start_s": float(start),
        "seconds": float(seconds),
    }
    if children:
        record["children"] = list(children)
    record.update(extra)
    return record


# ------------------------------------------------------------------ #
# critical path
# ------------------------------------------------------------------ #
class TestCriticalPath:
    def test_descends_longest_child_chain(self):
        root = node("root", 0.0, 10.0, [
            node("fast", 0.0, 2.0),
            node("slow", 2.0, 7.0, [node("leaf", 2.5, 4.0)]),
        ])
        path = analyze.critical_path(root)
        assert [row["name"] for row in path] == ["root", "slow", "leaf"]
        # root self = 10 - (2 + 7) covered = 1; slow self = 7 - 4 = 3
        assert path[0]["self_s"] == pytest.approx(1.0)
        assert path[1]["self_s"] == pytest.approx(3.0)
        assert path[2]["self_s"] == pytest.approx(4.0)

    def test_parallel_lanes_collapse_to_max_not_sum(self):
        # Four children covering the same window charge the parent once:
        # self time is 10 - union([2,8]) = 4, not 10 - 4*6 (negative).
        lanes = [node("actor", 2.0, 6.0) for _ in range(4)]
        root = node("dispatch", 0.0, 10.0, lanes)
        path = analyze.critical_path(root)
        assert [row["name"] for row in path] == ["dispatch", "actor"]
        assert path[0]["self_s"] == pytest.approx(4.0)

    def test_staggered_lanes_union_not_sum(self):
        lanes = [
            node("actor", 1.0, 4.0),   # [1, 5]
            node("actor", 3.0, 4.0),   # [3, 7] → union [1, 7]
        ]
        root = node("dispatch", 0.0, 10.0, lanes)
        path = analyze.critical_path(root)
        assert path[0]["self_s"] == pytest.approx(10.0 - 6.0)

    def test_single_node_path(self):
        path = analyze.critical_path(node("only", 0.0, 1.5))
        assert path == [
            {"name": "only", "seconds": 1.5, "self_s": 1.5}
        ]


# ------------------------------------------------------------------ #
# aggregation
# ------------------------------------------------------------------ #
class TestAggregate:
    def test_rollup_counts_totals_and_self(self):
        entries = [{
            "trace_id": "a" * 32,
            "root": node("execute", 0.0, 10.0, [node("scan", 1.0, 4.0)]),
        }]
        rollup = analyze.aggregate_spans([e["root"] for e in entries])
        assert rollup["execute"]["count"] == 1
        assert rollup["execute"]["self_s"] == pytest.approx(6.0)
        assert rollup["scan"]["total_s"] == pytest.approx(4.0)


# ------------------------------------------------------------------ #
# loading + lookup
# ------------------------------------------------------------------ #
class TestLoading:
    def test_load_falls_back_to_trace_json(self, tmp_path):
        roots = [
            node("execute", 0.0, 0.2, trace_id="c" * 32),
            node("anon", 0.0, 0.1),  # no id → not a trace entry
        ]
        (tmp_path / "trace.json").write_text(json.dumps(roots))
        entries = analyze.retained_traces(load(str(tmp_path)))
        assert len(entries) == 1
        assert entries[0]["trace_id"] == "c" * 32
        assert entries[0]["label"] is None  # alone, it is its own p95

    def test_nested_trace_under_anonymous_root_is_found(self, tmp_path):
        nested = "e" * 32
        train = node("train", 0.0, 1.0, [
            node("train.preprocess", 0.0, 0.5, [
                node("execute", 0.1, 0.2, [
                    node("execute.pushdown", 0.1, 0.1, trace_id=nested),
                ], trace_id=nested),
            ]),
        ])
        query = node("session.query", 1.0, 0.01, trace_id="f" * 32)
        (tmp_path / "trace.json").write_text(json.dumps([train, query]))
        entries = analyze.retained_traces(load(str(tmp_path)))
        # One entry per id, rooted at its topmost span.
        assert [(e["trace_id"], e["root"]["name"]) for e in entries] == [
            (nested, "execute"), ("f" * 32, "session.query"),
        ]
        assert analyze.find_trace(entries, nested) is entries[0]
        code, text = analyze.render_analysis(
            load(str(tmp_path)), trace_id=nested[:8]
        )
        assert code == 0 and "critical path" in text

    def test_traces_json_of_an_older_run_is_ignored(self, tmp_path):
        roots = [node("execute", 0.0, 0.2, trace_id="c" * 32)]
        (tmp_path / "trace.json").write_text(json.dumps(roots))
        (tmp_path / "traces.json").write_text(json.dumps({"traces": [{
            "trace_id": "b" * 32, "reason": "slow",
            "duration_s": 0.5, "root": node("execute", 0.0, 0.5),
        }]}))
        run = load(str(tmp_path))
        assert "traces.json" not in run.artifacts
        assert [e["trace_id"] for e in analyze.retained_traces(run)] == [
            "c" * 32
        ]

    def test_empty_dir_loads_nothing(self, tmp_path):
        run = Run(str(tmp_path))  # nothing recorded
        assert analyze.retained_traces(run) == []
        assert analyze.format_label_counts([]) == (
            "0 traces (error ×0, low_quality ×0, slow ×0)"
        )

    def test_find_trace_exact_prefix_and_ambiguous(self):
        entries = [
            {"trace_id": "abcd" + "0" * 28},
            {"trace_id": "abce" + "0" * 28},
        ]
        assert analyze.find_trace(entries, "abcd" + "0" * 28) is entries[0]
        assert analyze.find_trace(entries, "abce") is entries[1]
        assert analyze.find_trace(entries, "abc") is None  # ambiguous
        assert analyze.find_trace(entries, "zzzz") is None

    def test_slowest_orders_by_duration(self):
        entries = [
            {"trace_id": "1", "duration_s": 0.1},
            {"trace_id": "2", "duration_s": 0.9},
            {"trace_id": "3", "duration_s": 0.5},
        ]
        assert [e["trace_id"] for e in analyze.slowest(entries, 2)] == ["2", "3"]


# ------------------------------------------------------------------ #
# labels
# ------------------------------------------------------------------ #
def labels_of(*roots):
    return [
        entry["label"]
        for entry in analyze.retained_traces(Run("mem", trace=list(roots)))
    ]


class TestLabels:
    def test_error_three_levels_deep_labels_the_trace(self):
        failed = node("session.query", 0.0, 0.01, [
            node("execute", 0.0, 0.01, [
                node("execute.hash_join", 0.0, 0.01, [
                    node("execute.pushdown", 0.0, 0.01, error="KeyError: x"),
                ]),
            ]),
        ], trace_id="a" * 32, attrs={"low_quality": 1})
        assert labels_of(failed) == ["error"]  # error outranks low_quality

    def test_slow_is_strictly_above_the_runs_p95(self):
        roots = [
            node("session.query", 0.0, seconds, trace_id=f"{i:032x}")
            for i, seconds in enumerate([0.001 * v for v in range(1, 21)])
        ]
        # Nearest-rank p95 of 1..20 ms is 19 ms: only the 20 ms trace.
        assert labels_of(*roots) == [None] * 19 + ["slow"]

    def test_counts_line(self):
        roots = [
            node("q", 0.0, 0.01, trace_id="1" * 32, error="boom"),
            node("q", 0.0, 0.01, trace_id="2" * 32, attrs={"low_quality": 1}),
            node("q", 0.0, 0.01, trace_id="3" * 32),
        ]
        entries = analyze.retained_traces(Run("mem", trace=roots))
        assert analyze.format_label_counts(entries) == (
            "3 traces (error ×1, low_quality ×1, slow ×0)"
        )


# ------------------------------------------------------------------ #
# run diffs
# ------------------------------------------------------------------ #
def write_run(run_dir, durations_by_name):
    os.makedirs(run_dir, exist_ok=True)
    roots = [
        node(name, 0.0, seconds)
        for name, values in durations_by_name.items()
        for seconds in values
    ]
    with open(os.path.join(run_dir, "trace.json"), "w") as handle:
        json.dump(roots, handle)


class TestDiffRuns:
    def test_identical_runs_have_no_regressions(self, tmp_path):
        a = str(tmp_path / "a")
        write_run(a, {"execute": [0.01, 0.02, 0.03]})
        diff = analyze.diff_runs(load(a), load(a))
        assert diff["verdict"] == "no regressions"
        assert all(row["verdict"] == "ok" for row in diff["spans"])

    def test_regression_requires_factor_and_floor(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        write_run(a, {
            "big": [0.010] * 10,      # regresses: ×2 and +10ms
            "tiny": [0.0001] * 10,    # ×2 but below the 0.5ms floor
        })
        write_run(b, {
            "big": [0.020] * 10,
            "tiny": [0.0002] * 10,
        })
        diff = analyze.diff_runs(load(a), load(b))
        by_name = {row["name"]: row for row in diff["spans"]}
        assert by_name["big"]["verdict"] == "REGRESSED"
        assert by_name["tiny"]["verdict"] == "ok"
        assert diff["regressions"] == 1
        assert diff["verdict"] == "1 span name(s) regressed"

    def test_improvement_and_only_one_side(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        write_run(a, {"hot": [0.1] * 5, "gone": [0.01]})
        write_run(b, {"hot": [0.01] * 5, "new": [0.01]})
        diff = analyze.diff_runs(load(a), load(b))
        by_name = {row["name"]: row for row in diff["spans"]}
        assert by_name["hot"]["verdict"] == "improved"
        assert by_name["gone"]["verdict"] == "only_a"
        assert by_name["new"]["verdict"] == "only_b"
        assert diff["verdict"] == "no regressions"  # only_* never regress


# ------------------------------------------------------------------ #
# rendering
# ------------------------------------------------------------------ #
class TestRendering:
    def test_format_trace_entry_mentions_reason_and_path(self):
        entry = {
            "trace_id": "d" * 32,
            "label": "slow",
            "duration_s": 0.25,
            "root": node("execute", 0.0, 0.25, trace_id="d" * 32),
        }
        text = analyze.format_trace_entry(entry)
        assert "d" * 32 in text
        assert "label: slow" in text
        assert "critical path:" in text
