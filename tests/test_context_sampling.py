"""Request-scoped causal tracing: context, stamping, exemplars.

Covers the identity pipeline end to end (DESIGN.md §13):

* :mod:`repro.obs.context` — trace ids, activation, reuse;
* trace-id stamping into spans, telemetry records, ``QueryStats`` and
  the EXPLAIN ANALYZE footer;
* metric exemplars — capture under an active context, bounded per
  bucket;
* deterministic ``telemetry.load_run`` ordering across rotated parts
  with colliding timestamps;
* ``Histogram.percentile`` interpolating inside the winning bucket
  rather than returning the bucket edge.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.db import Database, execute, explain, sql
from repro.obs import context, health, metrics, slo, telemetry, trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    EXEMPLARS_PER_BUCKET,
    Histogram,
)

from tests.test_columnstore import _comparable, make_table

N_ROWS = 6_000


@pytest.fixture(autouse=True)
def clean_obs():
    def scrub():
        obs.disable()
        trace.reset()
        metrics.reset()
        telemetry.reset()
        telemetry.configure(None)
        slo.clear()

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
        request = context.new_context(fingerprint="abc", tenant="t0")
        with context.activate(request):
            assert context.current() is request
            assert context.current_trace_id() == request.trace_id
        assert context.current() is None
        assert context.current_trace_id() is None

    def test_ensure_reuses_active_context_without_clobbering(self):
        outer = context.new_context(fingerprint="outer")
        with context.activate(outer):
            with context.ensure(fingerprint="inner", hop=2) as inner:
                assert inner is outer
                assert inner.baggage["fingerprint"] == "outer"
                assert inner.baggage["hop"] == 2
        with context.ensure(fingerprint="fresh") as fresh:
            assert fresh is not outer
            assert fresh.baggage["fingerprint"] == "fresh"

    def test_span_ids_increment_within_trace(self):
        request = context.new_context()
        first, second = request.next_span_id(), request.next_span_id()
        assert first != second
        assert int(second, 16) == int(first, 16) + 1


# ------------------------------------------------------------------ #
# trace-id stamping: spans and telemetry
# ------------------------------------------------------------------ #
class TestStamping:
    def test_spans_carry_trace_and_span_ids_under_context(self):
        obs.enable()
        request = context.new_context()
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
        request = context.new_context()
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
# metric exemplars
# ------------------------------------------------------------------ #
class TestExemplars:
    def test_observe_captures_exemplar_only_under_context(self):
        obs.enable()
        metrics.observe("lat", 0.5)
        hist = metrics.registry().histogram("lat")
        assert hist.worst_exemplars() == []
        request = context.new_context()
        with context.activate(request):
            metrics.observe("lat", 0.7)
        worst = hist.worst_exemplars()
        assert [e["trace_id"] for e in worst] == [request.trace_id]
        assert worst[0]["value"] == 0.7

    def test_bucket_reservoir_keeps_largest_values(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for i in range(10):
            # all land in the same bucket; ids encode the value
            hist.observe(2.0 + i * 0.1, trace_id=f"{i:032x}", ts=float(i))
        bucket = hist.exemplars[1]
        assert len(bucket) == EXEMPLARS_PER_BUCKET
        kept = sorted(value for value, _, _ in bucket)
        assert kept == [pytest.approx(2.8), pytest.approx(2.9)]

    def test_snapshot_shape_unchanged_by_exemplars(self):
        hist = Histogram()
        hist.observe(0.5, trace_id="ab" * 16, ts=1.0)
        assert set(hist.snapshot()) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }


# ------------------------------------------------------------------ #
# satellite pins: percentile interpolation, load_run ordering
# ------------------------------------------------------------------ #
class TestPercentileInterpolation:
    def test_single_sample_returns_the_sample_not_the_bucket_edge(self):
        hist = Histogram()
        hist.observe(0.012)  # 12ms; bucket upper bound is ~0.0316
        for q in (50.0, 95.0, 99.0):
            assert hist.percentile(q) == pytest.approx(0.012)
            assert hist.percentile(q) not in DEFAULT_BUCKETS

    def test_interpolates_inside_winning_bucket(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (1.2, 1.4, 1.6, 1.8):  # all in the (1, 2] bucket
            hist.observe(value)
        p50 = hist.percentile(50.0)
        assert 1.0 < p50 < 2.0
        assert p50 == pytest.approx(1.5)
        assert hist.percentile(100.0) == pytest.approx(1.8)

    def test_clamped_into_observed_min_max(self):
        hist = Histogram(bounds=(10.0,))
        hist.observe(3.0)
        hist.observe(4.0)
        assert 3.0 <= hist.percentile(50.0) <= 4.0


class TestLoadRunOrdering:
    def test_colliding_timestamps_across_rotation_stay_stable(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        # Tiny byte cap: every record rotates into its own part file.
        telemetry.configure(path, max_bytes=1, max_files=8)
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
        with context.ensure(fingerprint="serial"):
            traced = run_scan(seed=52)
        assert normalize(reference.to_rows()) == normalize(traced.to_rows())


# ------------------------------------------------------------------ #
# SLO exemplar attachment
# ------------------------------------------------------------------ #
class TestSLOExemplars:
    def test_burn_alert_carries_worst_exemplar_trace_ids(self):
        obs.enable()
        slo.configure(["custom.lat.p95 < 10ms"])
        request = context.new_context()
        with context.activate(request):
            for _ in range(12):
                metrics.observe("custom.lat", 0.5)  # 500ms, violating
        slo.publish()
        alerts = health.alerts(obs.rundir.Run("mem", records=telemetry.records()))
        burn = [a for a in alerts if a.rule == "slo_burn"]
        assert burn and request.trace_id in burn[0].message

        statuses = slo.active().evaluate()
        status = next(s for s in statuses if s["kind"] == "window")
        assert request.trace_id in status["exemplar_trace_ids"]

    def test_watch_renders_exemplar_ids_under_burn_line(self, tmp_path):
        from repro.obs.watch import render_watch

        trace_id = "e" * 32
        (tmp_path / "slo.json").write_text(json.dumps({"objectives": [{
            "kind": "window", "spec": "query.p95 < 1ms", "severity": "CRIT",
            "value": 0.5, "burn_rate": 50.0,
            "exemplar_trace_ids": [trace_id],
        }]}))
        frame = render_watch(obs.rundir.load(str(tmp_path)))
        assert f"worst traces: {trace_id[:16]}" in frame
        assert "repro analyze --trace" in frame

    def test_no_exemplars_without_context(self):
        obs.enable()
        slo.configure(["custom.lat.p95 < 10ms"])
        for _ in range(12):
            metrics.observe("custom.lat", 0.5)
        statuses = slo.active().evaluate()
        status = next(s for s in statuses if s["kind"] == "window")
        assert status["exemplar_trace_ids"] == []
