"""Request-scoped causal tracing: context, stamping, SLO exemplars.

Covers the identity pipeline end to end (DESIGN.md §13):

* :mod:`repro.obs.context` — trace ids, activation, reuse;
* trace-id stamping into spans, telemetry records, ``QueryStats`` and
  the EXPLAIN ANALYZE footer;
* SLO exemplars — the trace ids of the worst recorded rows;
* deterministic ``telemetry.load_run`` ordering across rotated parts
  with colliding timestamps.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.db import Database, execute, explain, sql
from repro.obs import context, health, slo, telemetry, trace

from tests.test_columnstore import _comparable, make_table

N_ROWS = 6_000


@pytest.fixture(autouse=True)
def clean_obs():
    def scrub():
        obs.disable()
        trace.reset()
        telemetry.reset()
        telemetry.configure(None)

    scrub()
    yield
    scrub()


def run_scan(seed=41, where="score > 10 AND city != 'drab'"):
    table = make_table(seed=seed, n=N_ROWS)
    db = Database([table])
    return execute(db, sql(f"SELECT city, score, temp FROM t WHERE {where}"))


def normalize(rows):
    return [
        {key: _comparable(value) for key, value in row.items()}
        for row in rows
    ]


# ------------------------------------------------------------------ #
# context basics
# ------------------------------------------------------------------ #
class TestRequestContext:
    def test_trace_ids_are_128_bit_hex_and_unique(self):
        ids = {context.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 32 and int(i, 16) >= 0 for i in ids)

    def test_activation_is_scoped(self):
        assert context.current() is None
        request = context.RequestContext()
        with context.activate(request):
            assert context.current() is request
            assert context.current_trace_id() == request.trace_id
        assert context.current() is None
        assert context.current_trace_id() is None

    def test_ensure_reuses_active_context_without_clobbering(self):
        outer = context.RequestContext()
        trace_id = outer.trace_id
        with context.activate(outer):
            with context.ensure() as inner:
                assert inner is outer and inner.trace_id == trace_id
        with context.ensure() as fresh:
            assert fresh is not outer
            assert context.current() is fresh
        assert context.current() is None

    def test_span_ids_increment_within_trace(self):
        request = context.RequestContext()
        first, second = request.next_span_id(), request.next_span_id()
        assert first != second
        assert int(second, 16) == int(first, 16) + 1


# ------------------------------------------------------------------ #
# trace-id stamping: spans and telemetry
# ------------------------------------------------------------------ #
class TestStamping:
    def test_spans_carry_trace_and_span_ids_under_context(self):
        obs.enable()
        request = context.RequestContext()
        with context.activate(request):
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        roots = trace.tree()
        root = roots[-1]
        assert root["trace_id"] == request.trace_id
        assert root["children"][0]["trace_id"] == request.trace_id
        assert root["span_id"] != root["children"][0]["span_id"]

    def test_spans_outside_context_have_no_trace_id(self):
        obs.enable()
        with trace.span("anon"):
            pass
        assert "trace_id" not in trace.tree()[-1]

    def test_telemetry_records_stamped_with_trace_id(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        telemetry.configure(path)
        obs.enable()
        request = context.RequestContext()
        with context.activate(request):
            telemetry.emit("probe", value=1)
        telemetry.emit("probe", value=2)
        records = telemetry.load_run(path)
        assert records[0]["trace_id"] == request.trace_id
        assert "trace_id" not in records[1]

    def test_query_stats_and_explain_footer_carry_trace_id(self):
        obs.enable()
        table = make_table(seed=7, n=512)
        db = Database([table])
        plan = explain(db, sql("SELECT city FROM t WHERE score > 10"),
                       analyze=True)
        trace_id = plan.query_stats.get("trace_id")
        assert trace_id and len(trace_id) == 32
        assert f"trace: {trace_id}" in plan.format()

    def test_stats_trace_id_absent_when_disabled(self):
        table = make_table(seed=7, n=512)
        db = Database([table])
        result = execute(db, sql("SELECT city FROM t WHERE score > 10"))
        assert result.stats is None or result.stats.trace_id is None


# ------------------------------------------------------------------ #
# satellite pin: load_run ordering
# ------------------------------------------------------------------ #
class TestLoadRunOrdering:
    def test_colliding_timestamps_across_rotation_stay_stable(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "telemetry.jsonl")
        # Tiny byte cap: every record rotates into its own part file.
        monkeypatch.setattr(telemetry, "MAX_BYTES", 1)
        telemetry.configure(path)
        obs.enable()
        for seq in range(4):
            telemetry.emit("probe", ts=100.0, seq=seq)  # colliding ts
        telemetry.configure(None)
        first = telemetry.load_run(path)
        assert [r["seq"] for r in first] == [0, 1, 2, 3]
        # Deterministic: a second load yields byte-identical order.
        assert telemetry.load_run(path) == first

    def test_sort_is_stable_within_one_file(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        with open(path, "w") as handle:
            for seq, ts in enumerate([5.0, 1.0, 5.0, 1.0]):
                handle.write(json.dumps({"ts": ts, "seq": seq}) + "\n")
        ordered = telemetry.load_run(path)
        assert [r["seq"] for r in ordered] == [1, 3, 0, 2]


# ------------------------------------------------------------------ #
# propagation
# ------------------------------------------------------------------ #
class TestPropagation:
    def test_serial_execution_ignores_context_free_path(self):
        # An active request context does not perturb results.
        reference = run_scan(seed=52)
        obs.enable()
        with context.ensure():
            traced = run_scan(seed=52)
        assert normalize(reference.to_rows()) == normalize(traced.to_rows())


# ------------------------------------------------------------------ #
# SLO exemplar attachment
# ------------------------------------------------------------------ #
class TestSLOExemplars:
    @staticmethod
    def _run(rows):
        return obs.rundir.Run("mem", records=[
            {"stream": "slo", "spec": "query.p95 < 10ms"}, *rows,
        ])

    def test_burn_alert_carries_worst_exemplar_trace_ids(self):
        ids = [f"{i:032x}" for i in range(12)]
        run = self._run([
            {"stream": "query", "elapsed_seconds": 0.5 + i / 100, "trace_id": ids[i]}
            for i in range(12)  # 500ms+, violating; ids[11] is the slowest
        ])
        (burn,) = [a for a in health.alerts(run) if a.rule == "slo_burn"]
        assert ", ".join(ids[:-4:-1]) in burn.message
        (status,) = slo.statuses(run)
        assert status["exemplar_trace_ids"] == [ids[11], ids[10], ids[9]]

    def test_watch_renders_exemplar_ids_under_burn_line(self):
        from repro.obs.report import render_watch

        trace_id = "e" * 32
        frame = render_watch(self._run(
            [{"stream": "query", "elapsed_seconds": 0.5}] * 11
            + [{"stream": "query", "elapsed_seconds": 0.5, "trace_id": trace_id}]
        ))
        slo_section = frame.split("## Service-level objectives")[1].split("\n## ")[0]
        assert f"- worst traces of `query.p95 < 10ms`: `{trace_id[:16]}`" in slo_section
        assert "repro analyze --trace" in slo_section

    def test_no_exemplars_without_context(self):
        (status,) = slo.statuses(self._run(
            [{"stream": "query", "elapsed_seconds": 0.5}] * 12
        ))
        assert status["severity"] == health.CRIT
        assert status["exemplar_trace_ids"] == []
