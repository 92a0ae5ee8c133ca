"""Answer-quality observability: shadow audits, quality SLOs, drift.

Covers the :mod:`repro.obs.quality` pipeline — rate validation, the
deterministic audit coin, the overhead budget governor, the read-time
``accounting`` fold over the ``query`` and ``quality`` rows — the
rolling calibration-drift rule :mod:`repro.obs.health` folds over the
session's ``query`` rows, plus the integration surfaces: the ``low_quality``
trace label ``repro analyze`` reads, lower-bound ``quality.recall``
SLO burn alerts with trace exemplars, the ``repro audit`` CLI, the
"Answer quality" report section, and the end-to-end acceptance path (a
seeded low-recall run whose CRIT burn alert names a trace id that
``repro analyze --trace`` resolves).
"""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import (
    analyze, context, health, quality, slo, telemetry, trace,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends disabled with empty state."""

    def scrub():
        quality.GOVERNOR.reset(0.0)
        obs.disable()
        trace.reset()
        telemetry.reset()
        telemetry.configure(None)

    scrub()
    yield
    scrub()


# ------------------------------------------------------------------ #
# rate validation
# ------------------------------------------------------------------ #
class TestValidateRate:
    @pytest.mark.parametrize("rate", [0, 1, 0.5, "0.25", True])
    def test_accepts_in_range(self, rate):
        value = quality.validate_rate(rate)
        assert 0.0 <= value <= 1.0
        assert isinstance(value, float)

    @pytest.mark.parametrize("rate", [-0.1, 1.0001, 17, float("nan")])
    def test_rejects_out_of_range(self, rate):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quality.validate_rate(rate)

    @pytest.mark.parametrize("rate", ["ten percent", None, [0.1]])
    def test_rejects_non_numbers(self, rate):
        with pytest.raises(ValueError, match="must be a number"):
            quality.validate_rate(rate)

    def test_error_names_the_source(self):
        with pytest.raises(ValueError, match="REPRO_AUDIT_RATE"):
            quality.validate_rate(2.0, source="REPRO_AUDIT_RATE")

    def test_rate_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT_RATE", raising=False)
        assert quality.rate_from_env() == quality.DEFAULT_AUDIT_RATE
        monkeypatch.setenv("REPRO_AUDIT_RATE", "0.42")
        assert quality.rate_from_env() == pytest.approx(0.42)
        monkeypatch.setenv("REPRO_AUDIT_RATE", "1.5")
        with pytest.raises(ValueError, match="REPRO_AUDIT_RATE"):
            quality.rate_from_env()


class TestRunRate:
    def test_a_run_records_its_rate_once(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with obs.run(run_dir, audit_rate=0.25):
            assert quality.GOVERNOR.rate == 0.25
        (row,) = obs.rundir.load(run_dir).stream("quality")
        assert (row["kind"], row["sample_rate"]) == ("config", 0.25)

    def test_a_bad_rate_raises_before_anything_is_enabled(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            obs.start_run(run_dir, audit_rate=1.5)
        assert not obs.STATE.enabled
        assert not os.path.exists(run_dir)


# ------------------------------------------------------------------ #
# the deterministic audit coin
# ------------------------------------------------------------------ #
class TestAuditCoin:
    def test_deterministic_and_edge_rates(self):
        tid = "a3f1b2c4d5e6f708a9b0c1d2e3f40516"
        assert quality._audit_keep(tid, 0.0) is False
        assert quality._audit_keep(tid, 1.0) is True
        first = quality._audit_keep(tid, 0.3)
        assert all(
            quality._audit_keep(tid, 0.3) == first for _ in range(10)
        )

    def test_reads_its_own_hash_window(self):
        # The coin reads hex chars [8:16] — flipping the first eight
        # must not change it.
        base = "00000000" + "12345678" + "0" * 16
        flipped = "ffffffff" + "12345678" + "0" * 16
        for rate in (0.1, 0.5, 0.9):
            assert quality._audit_keep(base, rate) == quality._audit_keep(
                flipped, rate
            )

    @pytest.mark.parametrize("rate", [0.1, 0.29, 0.57, 1.0])
    def test_admits_round_rate_of_every_window(self, rate):
        # Window i of the 10,000 residues: the coin admits exactly
        # round(rate * 10_000) of them (int() would admit 5699 at 0.57).
        admitted = sum(
            quality._audit_keep("0" * 8 + f"{i:08x}" + "0" * 16, rate)
            for i in range(10_000)
        )
        assert admitted == round(rate * 10_000)

    def test_realized_fraction_tracks_rate(self):
        import hashlib

        tids = [
            hashlib.md5(str(i).encode()).hexdigest() for i in range(2000)
        ]
        kept = sum(quality._audit_keep(t, 0.2) for t in tids)
        assert abs(kept / len(tids) - 0.2) < 0.05


# ------------------------------------------------------------------ #
# budget governor and the accounting fold
# ------------------------------------------------------------------ #
PASSING_TID = "deadbeef00000000deadbeefdeadbeef"  # coin window = 0


class Recorder:
    """Drives the governor the way the session does; folds the rows."""

    def __init__(self, recorded, rate=1.0):
        obs.enable()
        self.recorded = recorded
        self.governor = quality.start(rate)

    def query(self, elapsed=0.0, approximate=True, trace_id=PASSING_TID,
              predicted=0.9, observed=0.9):
        """One served answer: the decision, then its ``query`` row."""
        decision = self.governor.admit(trace_id, elapsed, approximate)
        telemetry.emit(
            "query", used_approximation=approximate, confidence=predicted,
            realized_frame_score=observed, elapsed_seconds=elapsed,
            **({"audit": decision} if decision else {}),
        )
        return decision

    def audit(self, recall=0.9, trace_id=None, **fields):
        fields.setdefault("predicted", 0.9)
        fields.setdefault("observed", 0.9)
        scope = context.RequestContext()
        scope.trace_id = trace_id or scope.trace_id
        with context.activate(scope):
            return self.governor.record_audit(recall=recall, **fields)

    def accounting(self):
        return quality.accounting(
            obs.rundir.Run("mem", records=self.recorded())
        )


class TestBudgetGovernor:
    def test_first_audit_always_allowed(self, recorded):
        recorder = Recorder(recorded)
        assert recorder.query() == quality.AUDITED
        counts = recorder.accounting()["counts"]
        assert counts["skipped_coin"] == counts["skipped_budget"] == 0

    def test_none_trace_id_never_audits(self, recorded):
        recorder = Recorder(recorded)
        assert recorder.query(trace_id=None) == quality.SKIPPED_COIN

    def test_budget_blocks_after_expensive_audit(self, recorded):
        recorder = Recorder(recorded)
        assert recorder.query(elapsed=1.0) == quality.AUDITED
        recorder.audit(cost_seconds=0.5)
        # 0.5s of audit over 1s of serving is 50x the 1% budget.
        assert recorder.query() == quality.SKIPPED_BUDGET
        assert recorder.accounting()["counts"]["skipped_budget"] == 1

    def test_budget_reserves_the_last_audit_cost(self, recorded):
        # Conservative admission: even when spent audit time fits the
        # budget, the governor must also reserve one more audit at the
        # last observed cost — otherwise each admission overshoots the
        # budget by a full audit.
        recorder = Recorder(recorded)
        assert recorder.query(elapsed=100.0) == quality.AUDITED
        recorder.audit(cost_seconds=0.9)
        # spent 0.9 <= 1.0 budget, but 0.9 + 0.9 reserved > 1.0: skip.
        assert recorder.query() == quality.SKIPPED_BUDGET
        # More serving grows the budget; 0.9 + 0.9 <= 2.0: admit.
        assert recorder.query(elapsed=100.0) == quality.AUDITED
        counts = recorder.accounting()["counts"]
        assert (counts["audits"], counts["skipped_budget"]) == (1, 1)

    def test_unlimited_budget_when_disabled(self, monkeypatch, recorded):
        monkeypatch.setattr(quality, "MAX_OVERHEAD", math.inf)
        recorder = Recorder(recorded)
        recorder.audit(cost_seconds=99.0)
        assert recorder.query(elapsed=1.0) == quality.AUDITED

    def test_coin_skip_counted(self, recorded):
        recorder = Recorder(recorded, rate=0.0001)
        losing = "00000000ffffffff0000000000000000"
        assert recorder.query(trace_id=losing) == quality.SKIPPED_COIN
        assert recorder.accounting()["counts"]["skipped_coin"] == 1

    def test_full_database_answers_serve_but_carry_no_decision(self, recorded):
        recorder = Recorder(recorded)
        assert recorder.query(elapsed=2.0, approximate=False) is None
        assert recorder.governor.serving_seconds == 2.0
        (row,) = [r for r in recorder.recorded() if r["stream"] == "query"]
        assert "audit" not in row
        summary = recorder.accounting()
        assert summary["sample_rate"] == 1.0
        assert summary["counts"]["queries"] == 1
        assert summary["counts"]["approx_queries"] == 0


class TestRecordAudit:
    def test_low_quality_flag_and_counters(self, recorded):
        recorder = Recorder(recorded)
        assert recorder.audit(
            recall=0.2, predicted=0.9, observed=0.1, agg_rel_error=0.5,
            cost_seconds=0.01, sql="SELECT 1", trace_id="ab" * 16,
        ) is True
        assert recorder.audit(recall=0.95, predicted=0.9, observed=0.92) is False
        summary = recorder.accounting()
        assert summary["counts"]["audits"] == 2
        assert summary["counts"]["low_quality"] == 1
        assert summary["mean_recall"] == pytest.approx((0.2 + 0.95) / 2)
        assert summary["mean_agg_rel_error"] == pytest.approx(0.5)
        assert summary["audit_log"][0]["trace_id"] == "ab" * 16
        assert summary["audit_log"][0]["low_quality"] is True

    def test_audit_log_is_bounded(self, monkeypatch, recorded):
        monkeypatch.setattr(quality, "MAX_AUDIT_ROWS", 4)
        recorder = Recorder(recorded)
        for i in range(10):
            recorder.audit(sql=f"q{i}")
        summary = recorder.accounting()
        assert summary["counts"]["audits"] == 10
        assert [row["sql"] for row in summary["audit_log"]] == [
            "q6", "q7", "q8", "q9",
        ]

    def test_overhead_fraction(self, recorded):
        recorder = Recorder(recorded)
        assert recorder.accounting()["overhead_fraction"] == 0.0
        recorder.query(elapsed=10.0, approximate=False)
        recorder.audit(cost_seconds=0.5)
        summary = recorder.accounting()
        assert summary["overhead_fraction"] == pytest.approx(0.05)
        assert summary["serving_seconds"] == pytest.approx(10.0)
        assert summary["audit_seconds"] == pytest.approx(0.5)


# ------------------------------------------------------------------ #
# calibration drift
# ------------------------------------------------------------------ #
class TestCalibrationDrift:
    """The live monitor only counts; drift is the fold over ``query`` rows."""

    def _drifts(self, *phases):
        """Drift alerts after ``(predicted, observed, n)`` phases of answers."""
        records = [
            {
                "stream": "query", "used_approximation": True,
                "confidence": predicted, "realized_frame_score": observed,
            }
            for predicted, observed, n in phases for _ in range(n)
        ]
        return [
            alert for alert in health.alerts(obs.rundir.Run("mem", records=records))
            if alert.rule == "quality_calibration_drift"
        ]

    def test_calibrated_answers_raise_nothing(self):
        assert self._drifts((0.9, 0.85, 40)) == []

    def test_warn_then_crit_escalation_with_dedup(self):
        warn = self._drifts((0.9, 0.65, 8))  # bias 0.25
        assert [a.severity for a in warn] == [health.WARN]
        assert warn[0].value == pytest.approx(0.25)
        # Same severity again: deduplicated, no second alert.
        assert len(self._drifts((0.9, 0.65, 12))) == 1
        both = self._drifts((0.9, 0.65, 12), (0.9, 0.40, 20))  # toward 0.50
        assert [a.severity for a in both] == [health.WARN, health.CRIT]

    def test_recovery_rearms_the_detector(self):
        # The window refills with calibrated pairs: the published level
        # resets, and the same bias alerts a second time.
        again = self._drifts((0.9, 0.65, 8), (0.9, 0.9, 32), (0.9, 0.65, 32))
        assert [a.severity for a in again] == [health.WARN, health.WARN]

    def test_drift_publishes_health_alert(self):
        (alert,) = self._drifts((0.9, 0.40, 8))
        assert alert.severity == health.CRIT
        assert alert.threshold == health.DRIFT_CRIT_BIAS
        assert "over-predicts" in alert.message
        assert "last 8 approximation answers" in alert.message

    def test_under_prediction_is_signed(self):
        (alert,) = self._drifts((0.5, 0.8, 8))  # bias -0.30
        assert alert.value == pytest.approx(-0.30)
        assert "under-predicts" in alert.message

    def test_live_monitor_counts_and_records_no_verdict(self, recorded):
        recorder = Recorder(recorded, rate=0.0)
        before = recorder.recorded()
        for _ in range(40):
            assert recorder.governor.admit(PASSING_TID, 0.0, True) == "coin"
        assert recorder.recorded() == before  # the governor records nothing
        for _ in range(40):
            recorder.query(predicted=0.9, observed=0.40)
        summary = recorder.accounting()
        assert summary["counts"]["approx_queries"] == 40
        assert summary["counts"]["skipped_coin"] == 40
        assert "drift_events" not in summary["counts"]
        assert "calibration_bias" not in summary
        assert summary["calibration_error"] == pytest.approx(0.5)

    def test_calibration_error_reads_the_trailing_window(self):
        records = [
            {"stream": "query", "confidence": 0.9, "realized_frame_score": 0.1}
        ] + [
            {"stream": "query", "confidence": 0.5, "realized_frame_score": 0.25}
        ] * quality.CALIBRATION_WINDOW
        summary = quality.accounting(obs.rundir.Run("mem", records=records))
        assert summary["calibration_error"] == pytest.approx(0.25)
        empty = quality.accounting(obs.rundir.Run("mem"))
        assert empty["calibration_error"] is None
        assert empty["mean_recall"] is None and empty["sample_rate"] is None


# ------------------------------------------------------------------ #
# the low_quality trace label
# ------------------------------------------------------------------ #
class TestLowQualityKeepReason:
    def _entries(self, *roots):
        run = obs.rundir.Run("mem", trace=[root.to_dict() for root in roots])
        return analyze.retained_traces(run)

    def _root(self, trace_id, duration=0.01, **attrs):
        span = trace.Span("session.query")
        span.trace_id = trace_id
        span.duration_s = duration
        span.attrs.update(attrs)
        return span

    def test_low_quality_trace_is_kept(self):
        # A fast low-quality trace next to a slow one: the audit verdict,
        # not its latency, is why it is worth a look.
        (flagged, slow) = self._entries(
            self._root("ab" * 16, low_quality=1), self._root("ef" * 16, 1.0)
        )
        assert flagged["label"] == "low_quality"
        assert slow["label"] is None  # the p95 of two is the slower one

    def test_error_outranks_low_quality(self):
        root = self._root("cd" * 16, low_quality=1)
        root.error = "boom"
        (entry,) = self._entries(root)
        assert entry["label"] == "error"


# ------------------------------------------------------------------ #
# lower-bound quality SLOs
# ------------------------------------------------------------------ #
class TestQualitySLO:
    def test_lower_bound_spec_parses(self):
        objective = slo.parse_objective("quality.recall.p10 > 0.85 @ 90%")
        assert objective.metric == "quality.recall"
        assert objective.agg == "p10"
        assert objective.op == ">"
        assert objective.threshold == pytest.approx(0.85)
        assert objective.target == pytest.approx(0.90)
        assert objective.complies(0.9) and not objective.complies(0.5)

    def test_recall_alias_resolves(self):
        objective = slo.parse_objective("recall.p10 > 0.85")
        assert objective.metric == "quality.recall"

    def test_low_recall_burns_with_smallest_sample_exemplars(self):
        # 11 audited answers, all violating; the worst (smallest) two
        # carry distinct trace ids that must surface as exemplars.
        worst = "11" * 16
        second = "22" * 16
        audits = [(0.05, worst), (0.10, second)] + [
            (0.3 + i * 0.01, None) for i in range(9)
        ]
        run = obs.rundir.Run("mem", records=[
            {"stream": "slo", "spec": "quality.recall.p10 > 0.85 @ 90%"},
            *[
                {"stream": "quality", "kind": "audit", "recall": recall,
                 "agg_rel_error": None,
                 **({"trace_id": trace_id} if trace_id else {})}
                for recall, trace_id in audits
            ],
        ])
        alerts = health.alerts(run)
        burn = [a for a in alerts if a.rule == "slo_burn"]
        assert burn and burn[0].severity == health.CRIT
        assert "quality.recall.p10" in burn[0].message
        assert f"worst traces: {worst}, {second} (" in burn[0].message
        assert "repro analyze --trace" in burn[0].message

    def test_quality_objectives_constants_parse(self):
        for spec in quality.QUALITY_OBJECTIVES:
            slo.parse_objective(spec)


# ------------------------------------------------------------------ #
# report section
# ------------------------------------------------------------------ #
class TestReportSection:
    def test_placeholder_when_no_audit_data(self):
        from repro.obs.report import section_quality

        lines = section_quality(obs.rundir.Run("unaudited"))
        text = "\n".join(lines)
        assert "## Answer quality" in text
        assert "No audit data recorded" in text
        assert "unverified" in text

    def test_calibration_table_renders(self):
        from repro.obs.report import section_quality

        records = [
            {
                "stream": "quality", "kind": "audit", "trace_id": "ab" * 16,
                "predicted": 0.9, "observed": 0.3, "recall": 0.3,
                "agg_rel_error": 0.4, "low_quality": True, "sql": "SELECT 1",
            },
            {
                "stream": "quality", "kind": "audit", "trace_id": "cd" * 16,
                "predicted": 0.2, "observed": 0.25, "recall": 0.95,
                "agg_rel_error": None, "low_quality": False, "sql": "SELECT 2",
            },
        ]
        records += [
            {"stream": "quality", "kind": "config", "sample_rate": 1.0},
            *[
                {"stream": "query", "used_approximation": approx,
                 "elapsed_seconds": 0.5,
                 **({"audit": "audited"} if approx else {})}
                for approx in (True, True, False, False)
            ],
        ]
        run = obs.rundir.Run("audited", records=records)
        text = "\n".join(section_quality(run))
        assert "4 queries observed (2 served from the approximation set), " \
            "2 shadow-audited (0 skipped by the sampling coin, 0 by the " \
            "overhead budget)" in text
        assert "sample rate 1.0, budget 1%" in text
        assert "mean 0.625" in text and "1 low-quality answers" in text
        assert "Calibration (predicted vs audited)" in text
        assert "[0.75, 1.00)" in text and "[0.00, 0.25)" in text
        assert "Worst audited answers" in text
        assert ("ab" * 16)[:16] in text
        assert "repro analyze --trace" in text


# ------------------------------------------------------------------ #
# end-to-end: seeded low recall trips the quality pipeline
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def low_recall_run(tmp_path_factory):
    """A recorded run whose approximation set was gutted to one row.

    Every answer is served from (and audited against) a one-row-per-
    table approximation set, so measured recall collapses while the
    estimator's confidence stays put: audits land low-quality, the
    ``quality.recall`` SLO burns, and calibration drifts.
    """
    from repro.core import ASQPConfig, ASQPSession, ASQPTrainer
    from repro.datasets import load_flights
    from repro.db import Database

    bundle = load_flights(scale=0.1, n_queries=12, n_aggregate_queries=4)
    config = ASQPConfig.light(
        memory_budget=120, frame_size=20, n_iterations=2,
        learning_rate=1e-3, seed=0,
    )
    obs.disable()
    model = ASQPTrainer(bundle.db, bundle.workload, config).train()
    session = ASQPSession(model, auto_fine_tune=False)
    session.approx_db = Database(
        [table.take(np.arange(min(1, len(table)))) for table in session.approx_db],
        name="gutted",
    )
    run_dir = str(tmp_path_factory.mktemp("low_recall"))
    outcomes = []
    # The budget governor would throttle a rate-1.0 audit storm; this
    # scenario wants every answer audited.
    with pytest.MonkeyPatch.context() as patch, obs.run(
        run_dir,
        slo_objectives=quality.QUALITY_OBJECTIVES,
        audit_rate=1.0,
    ):
        patch.setattr(quality, "MAX_OVERHEAD", math.inf)
        for query in bundle.workload:
            outcomes.append(session.query(query, confidence_threshold=0.0))
    return run_dir, outcomes


class TestLowRecallAcceptance:
    def test_every_answer_audited_and_low_quality(self, low_recall_run):
        _, outcomes = low_recall_run
        # >= MIN_SAMPLES so the SLO burn window can fire at all.
        assert len(outcomes) >= slo.MIN_SAMPLES
        audited = [o for o in outcomes if o.audit is not None]
        assert len(audited) == len(outcomes)
        assert all(o.audit.recall < 0.8 for o in audited)
        assert all(o.audit.low_quality for o in audited)

    def test_accounting_folds_every_audit(self, low_recall_run):
        run_dir, outcomes = low_recall_run
        assert not os.path.exists(os.path.join(run_dir, "quality.json"))
        summary = quality.accounting(obs.rundir.load(run_dir))
        counts = summary["counts"]
        assert counts["audits"] == len(outcomes)
        assert counts["low_quality"] == len(outcomes)
        assert summary["sample_rate"] == 1.0
        assert summary["mean_recall"] < 0.5
        assert summary["audit_log"]
        assert all(row["trace_id"] for row in summary["audit_log"])
        assert (
            counts["audits"] + counts["skipped_coin"] + counts["skipped_budget"]
            == counts["approx_queries"]
        )

    def _alerts(self, run_dir):
        return health.alerts(obs.rundir.load(run_dir))

    def test_recall_slo_burns_crit_with_resolvable_exemplar(
        self, low_recall_run
    ):
        run_dir, _ = low_recall_run
        burns = [
            a for a in self._alerts(run_dir)
            if a.rule == "slo_burn" and "quality.recall" in a.message
        ]
        assert burns, "expected a quality.recall SLO burn alert"
        assert burns[0].severity == health.CRIT
        match = re.search(r"worst traces: ([0-9a-f]{32})", burns[0].message)
        assert match, burns[0].message
        trace_id = match.group(1)
        assert main(["analyze", "--dir", run_dir, "--trace", trace_id]) == 0

    def test_calibration_drift_alert_fired(self, low_recall_run):
        from repro.obs.report import section_quality

        run_dir, _ = low_recall_run
        drift = [
            a for a in self._alerts(run_dir)
            if a.rule == "quality_calibration_drift"
        ]
        assert drift, "expected a calibration-drift health alert"
        # The answer-quality views count the same escalations.
        text = "\n".join(section_quality(obs.rundir.load(run_dir)))
        assert f"{len(drift)} drift escalations" in text

    def test_traces_kept_for_low_quality(self, low_recall_run):
        run_dir, outcomes = low_recall_run
        entries = analyze.retained_traces(obs.rundir.load(run_dir))
        labels = [entry["label"] for entry in entries]
        assert labels.count("low_quality") == len(outcomes)

    def test_audit_cli_prints_calibration_table(
        self, low_recall_run, capsys
    ):
        run_dir, _ = low_recall_run
        assert main(["audit", "--dir", run_dir]) == 0
        out = capsys.readouterr().out
        assert "Calibration" in out
        assert "predicted bin" in out
        assert "Worst" in out
        assert "repro analyze --trace" in out

    def test_watch_shows_quality_and_keep_reasons(
        self, low_recall_run, capsys
    ):
        run_dir, _ = low_recall_run
        assert main(["watch", "--dir", run_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "## Answer quality" in out
        assert "audits" in out
        assert "low_quality" in out

    def test_report_renders_answer_quality_section(self, low_recall_run):
        from repro.obs.report import render_markdown

        run_dir, _ = low_recall_run
        text = render_markdown(obs.rundir.load(run_dir))
        assert "## Answer quality" in text
        assert "Calibration (predicted vs audited)" in text
        assert "Worst audited answers" in text


# ------------------------------------------------------------------ #
# the audited recall is the Eq. 1 term of core/metric.py
# ------------------------------------------------------------------ #
def test_audit_recall_equals_the_metric_per_query_score(tmp_path):
    """Every audit row's recall is ``metric.per_query_scores`` of its query.

    Rate 1.0 with the budget unbounded, every answer forced onto the
    approximation set: each served query has exactly one audit row, in
    serving order, measured against the session's approximation DB.
    """
    from repro.core import ASQPConfig, ASQPSession, ASQPTrainer, metric
    from repro.datasets import load_flights
    from repro.datasets.workloads import Workload

    bundle = load_flights(scale=0.1, n_queries=8, n_aggregate_queries=3)
    config = ASQPConfig.light(
        memory_budget=120, frame_size=20, n_iterations=2,
        learning_rate=1e-3, seed=0,
    )
    model = ASQPTrainer(bundle.db, bundle.workload, config).train()
    session = ASQPSession(model, auto_fine_tune=False)
    queries = list(bundle.workload)
    run_dir = str(tmp_path / "run")
    with pytest.MonkeyPatch.context() as patch, obs.run(run_dir, audit_rate=1.0):
        patch.setattr(quality, "MAX_OVERHEAD", math.inf)
        for query in queries:
            session.query(query, confidence_threshold=0.0)
    rows = quality.audits(obs.rundir.load(run_dir))
    expected = metric.per_query_scores(
        bundle.db, session.approx_db, Workload(queries), config.frame_size
    )
    assert [row["sql"] for row in rows] == [q.to_sql()[:200] for q in queries]
    assert [row["recall"] for row in rows] == list(expected)


# ------------------------------------------------------------------ #
# repro audit CLI on empty / missing runs
# ------------------------------------------------------------------ #
class TestAuditCLI:
    def test_missing_run_dir(self, tmp_path, capsys):
        code = main(["audit", "--dir", str(tmp_path / "nope")])
        assert code != 0

    def test_no_audit_data_is_explicit(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        with obs.run(run_dir, audit_rate=0.0):
            pass
        code = main(["audit", "--dir", run_dir])
        assert code == 1
        out = capsys.readouterr().out
        assert "No audit data recorded" in out
        assert "unverified" in out
        assert main(["watch", "--dir", run_dir, "--once"]) == 0
        assert "unverified" in capsys.readouterr().out

    def test_help_documents_default_rate(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "--help"])
        out = capsys.readouterr().out
        assert "REPRO_AUDIT_RATE" in out
        assert "0.1" in out
