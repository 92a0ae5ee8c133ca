"""Tests for the health rules (a fold over recorded rows) and the fused report."""

import json
import math

import pytest

from repro import obs
from repro.bench.reporting import config_hash, run_provenance, save_results
from repro.core import ASQPConfig, ASQPSession, ASQPTrainer
from repro.obs import health, telemetry, trace
from repro.obs.health import CRIT, WARN, HealthMonitor
from repro.obs.report import build_report, render_markdown
from repro.obs.rundir import Run, load


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    trace.reset()
    telemetry.reset()
    telemetry.configure(None)
    yield
    obs.disable()
    trace.reset()
    telemetry.reset()
    telemetry.configure(None)


def _update(iteration=0, **overrides):
    """A healthy train.update record; override fields to trip rules."""
    record = {
        "iteration": iteration,
        "mean_episode_reward": 0.5,
        "policy_loss": -0.01,
        "value_loss": 0.2,
        "entropy": 3.0,
        "kl_divergence": 0.01,
        "clip_fraction": 0.1,
        "explained_variance": 0.3,
        "grad_norm": 1.0,
    }
    record.update(overrides)
    return record


# ------------------------------------------------------------------ #
# individual rules
# ------------------------------------------------------------------ #
class TestHealthRules:
    def test_healthy_run_stays_quiet(self):
        monitor = HealthMonitor()
        for i in range(8):
            assert monitor.observe_update(_update(i)) == []

    def test_non_finite_is_crit(self):
        monitor = HealthMonitor()
        alerts = monitor.observe_update(_update(policy_loss=math.nan))
        assert [a.severity for a in alerts] == [CRIT]
        assert alerts[0].rule == "non_finite"

    def test_kl_warn_then_crit(self):
        monitor = HealthMonitor()
        warn = monitor.observe_update(_update(kl_divergence=0.7))
        crit = monitor.observe_update(_update(kl_divergence=2.5))
        assert [a.severity for a in warn] == [WARN]
        assert [a.severity for a in crit] == [CRIT]
        assert all(a.rule == "kl_spike" for a in warn + crit)

    def test_clip_saturation_levels(self):
        monitor = HealthMonitor()
        assert monitor.observe_update(_update(clip_fraction=0.6))[0].severity == WARN
        assert monitor.observe_update(_update(clip_fraction=0.95))[0].severity == CRIT

    def test_entropy_collapse_vs_initial(self):
        monitor = HealthMonitor()
        assert monitor.observe_update(_update(entropy=4.0)) == []
        # 1% of the initial entropy → collapse warning.
        alerts = monitor.observe_update(_update(entropy=0.04))
        assert [a.rule for a in alerts] == ["entropy_collapse"]
        assert alerts[0].severity == WARN

    def test_grad_norm_spike_needs_window(self):
        monitor = HealthMonitor()
        # Below min_window no relative rule can fire, even for a big jump.
        assert monitor.observe_update(_update(grad_norm=100.0)) == []
        monitor = HealthMonitor()
        for i in range(3):
            monitor.observe_update(_update(i, grad_norm=1.0))
        warn = monitor.observe_update(_update(3, grad_norm=20.0))
        crit = monitor.observe_update(_update(4, grad_norm=500.0))
        assert [a.rule for a in warn] == ["grad_norm_spike"]
        assert warn[0].severity == WARN
        assert any(a.severity == CRIT and a.rule == "grad_norm_spike" for a in crit)

    def test_critic_useless_window_mean(self):
        monitor = HealthMonitor()
        alerts = []
        for i in range(3):
            alerts += monitor.observe_update(_update(i, explained_variance=-0.9))
        assert any(a.rule == "critic_useless" for a in alerts)

    def test_reward_collapse(self):
        monitor = HealthMonitor()
        for i, reward in enumerate([0.1, 0.9, 1.0]):
            monitor.observe_update(_update(i, mean_episode_reward=reward))
        alerts = monitor.observe_update(_update(3, mean_episode_reward=0.2))
        assert [a.rule for a in alerts] == ["reward_collapse"]

    def test_calibration_warn(self):
        monitor = HealthMonitor()
        alerts = []
        for _ in range(3):
            alerts += monitor.observe_calibration(0.95, 0.1)
        assert any(a.rule == "estimator_miscalibrated" for a in alerts)
        assert all(a.severity == WARN for a in alerts)

    def test_well_calibrated_is_quiet(self):
        monitor = HealthMonitor()
        for _ in range(10):
            assert monitor.observe_calibration(0.8, 0.75) == []

    def test_miscalibration_alerts_once_per_crossing(self):
        def miscalibrated(records):
            return [
                rule for _, rule in _rules(records)
                if rule == "estimator_miscalibrated"
            ]

        bad, good = _query(0.95, 0.1), _query(0.8, 0.8)
        assert len(miscalibrated([bad] * 50)) == 1
        # A full window of good queries brings the mean back under the
        # bound and re-arms the rule.
        assert len(miscalibrated([bad] * 20 + [good] * 20 + [bad] * 20)) == 2

    def test_drift_is_informational_warn(self):
        monitor = HealthMonitor()
        alerts = monitor.observe_drift(
            {"pending_count": 3, "mean_deviation": 0.91}
        )
        assert [a.severity for a in alerts] == [WARN]
        assert "0.91" in alerts[0].message

    def test_counts_and_summary(self):
        monitor = HealthMonitor()
        found = monitor.observe_update(_update(kl_divergence=2.5))
        found += monitor.observe_update(_update(kl_divergence=0.7))
        assert health.counts(found) == {WARN: 1, CRIT: 1}
        assert health.counts([]) == {WARN: 0, CRIT: 0}

    def test_kl_thresholds_are_the_module_constants(self):
        monitor = HealthMonitor()
        warn = monitor.observe_update(_update(kl_divergence=health.KL_WARN + 0.01))
        crit = monitor.observe_update(_update(kl_divergence=health.KL_CRIT + 0.01))
        assert [(a.severity, a.threshold) for a in warn + crit] == [
            (WARN, health.KL_WARN), (CRIT, health.KL_CRIT),
        ]
        assert monitor.observe_update(_update(kl_divergence=health.KL_WARN)) == []


# ------------------------------------------------------------------ #
# the fold over a run's recorded rows
# ------------------------------------------------------------------ #
def _query(confidence, realized, approx=True, **fields):
    return {
        "stream": "query", "confidence": confidence,
        "realized_frame_score": realized, "used_approximation": approx,
        **fields,
    }


def _rules(records):
    return [(a.severity, a.rule) for a in health.alerts(Run("mem", records=records))]


class TestReplay:
    def test_replay_derives_same_alerts(self):
        records = [
            {"stream": "train.update", **_update(0, kl_divergence=2.5)},
            {"stream": "train.update", **_update(1)},
            {"stream": "log", "event": "noise"},
            _query(0.9, 0.85),
            {"stream": "drift", "pending_count": 3, "mean_deviation": 0.9},
        ]
        assert _rules(records) == [(CRIT, "kl_spike"), (WARN, "interest_drift")]

    def test_query_drift_flag_is_not_a_second_source(self):
        """One drift event is one alert: the ``drift`` row, not ``query.drift``."""
        records = [
            {"stream": "drift", "pending_count": 2, "mean_deviation": 0.8},
            _query(0.5, 0.5, drift=True),
        ]
        assert _rules(records) == [(WARN, "interest_drift")]

    def test_replay_empty(self):
        assert health.alerts(Run("mem")) == []

    def test_alerts_are_pure_and_emit_nothing(self, recorded):
        obs.enable()
        run = Run("mem", records=[
            {"stream": "train.update", **_update(0, kl_divergence=2.5)},
            {"stream": "drift", "pending_count": 2, "mean_deviation": 0.8},
        ])
        first = health.alerts(run)
        assert first and health.alerts(run) == first
        assert recorded() == []


class TestCalibrationDriftRule:
    """The rule over ``query`` rows: window 32, min 8, WARN 0.20, CRIT 0.35
    (escalation, dedup and re-arm: ``tests/test_quality.py``)."""

    def _drifts(self, pairs):
        records = [_query(predicted, observed) for predicted, observed in pairs]
        return [
            a for a in health.alerts(Run("mem", records=records))
            if a.rule == "quality_calibration_drift"
        ]

    def test_quiet_below_the_minimum_window_and_when_calibrated(self):
        assert self._drifts([(0.9, 0.4)] * (health.DRIFT_MIN_WINDOW - 1)) == []
        assert len(self._drifts([(0.9, 0.4)] * health.DRIFT_MIN_WINDOW)) == 1
        assert self._drifts([(0.9, 0.85)] * 40) == []

    def test_full_database_answers_do_not_count(self):
        records = [_query(0.9, 0.4, approx=False) for _ in range(40)]
        assert "quality_calibration_drift" not in [
            rule for _, rule in _rules(records)
        ]

    def test_window_is_the_last_32_answers(self):
        run = Run("mem", records=(
            [_query(0.9, 0.1)] * 10 + [_query(0.9, 0.8)] * health.DRIFT_WINDOW
        ))
        assert health.calibration_bias(run) == pytest.approx(0.1)
        assert health.calibration_bias(Run("mem")) is None


class TestSLORule:
    """One alert per recorded objective whose final status has a severity."""

    @staticmethod
    def _spec(spec):
        return {"stream": "slo", "spec": spec}

    @staticmethod
    def _queries(seconds, n, **fields):
        return [{"stream": "query", "elapsed_seconds": seconds, **fields}] * n

    def test_recorded_severities_are_ignored_the_final_status_decides(self):
        """A status row an older run recorded is read for its spec only."""
        recorded = [
            {**self._spec("query.p95 < 10ms"), "name": "query.p95",
             "severity": severity}
            for severity in (None, WARN, CRIT)
        ]
        assert _rules(recorded + self._queries(0.001, 20)) == []
        assert _rules(recorded + self._queries(0.5, 20)) == [(CRIT, "slo_burn")]

    def test_objectives_alert_independently(self):
        rows = [
            self._spec("query.p95 < 10ms"),
            self._spec("train.update.p50 < 10ms @ 90%"),
            *self._queries(0.5, 20),
            *[{"stream": "train.update", "update_seconds": seconds}
              for seconds in [0.001] * 7 + [0.5] * 3],
        ]
        # query: 100% bad = 100x burn; train.update: 30% bad of a 10%
        # budget = 3x burn, between WARN (2x) and CRIT (10x).
        assert _rules(rows) == [(CRIT, "slo_burn"), (WARN, "slo_burn")]

    def test_messages_are_built_from_the_row(self):
        trace_id = "ab" * 16
        burn, violation = health.alerts(Run(
            "mem",
            records=[
                self._spec("query.p95 < 10ms"),
                self._spec("estimator.calibration_error < 0.1"),
                *self._queries(0.5, 19),
                *self._queries(0.5, 1, trace_id=trace_id),
                {"stream": "estimator", "calibration_error": 0.401},
            ],
        ))
        assert burn.message == (
            "SLO 'query.p95 < 10ms' burning error budget: 100% of the last "
            "20 samples violate the threshold (burn rate 100.0x slow / "
            "100.0x fast, query.p95 = 0.5 vs 0.01); worst traces: "
            f"{trace_id} (repro analyze --trace <id>)"
        )
        assert (burn.value, burn.threshold) == (0.5, 0.01)
        assert violation.rule == "slo_violation"
        assert violation.severity == CRIT
        assert violation.message == (
            "SLO 'estimator.calibration_error < 0.1' violated: "
            "0.401 vs threshold 0.1"
        )

    def test_slo_alerts_follow_the_rows_alerts(self):
        rows = [
            self._spec("query.p95 < 10ms"),
            *self._queries(0.5, 20),
            {"stream": "drift", "pending_count": 2, "mean_deviation": 0.8},
        ]
        assert _rules(rows) == [(WARN, "interest_drift"), (CRIT, "slo_burn")]


# ------------------------------------------------------------------ #
# end to end: destabilized PPO must trip a CRIT alert
# ------------------------------------------------------------------ #
class TestTrainingHealthEndToEnd:
    def _train(self, tmp_path, learning_rate):
        from repro.datasets import load_flights

        run_dir = str(tmp_path / "run")
        with obs.run(run_dir):
            bundle = load_flights(scale=0.12, n_queries=6, n_aggregate_queries=2)
            config = ASQPConfig.light(
                memory_budget=120, frame_size=20, n_iterations=3,
                learning_rate=learning_rate, seed=0,
            )
            model = ASQPTrainer(bundle.db, bundle.workload, config).train()
            session = ASQPSession(model, auto_fine_tune=False)
            for query in list(bundle.workload)[:2]:
                session.query(query)
        return health.alerts(load(run_dir))

    def test_destabilized_run_emits_crit(self, tmp_path):
        """lr x100 blows up the KL; the recorded run must read CRIT."""
        found = self._train(tmp_path, learning_rate=1e-3 * 100)
        crits = [a for a in found if a.severity == CRIT]
        assert len(crits) >= 1
        assert any(a.rule == "kl_spike" for a in crits)

    def test_stable_run_stays_crit_free(self, tmp_path):
        found = self._train(tmp_path, learning_rate=1e-3)
        assert health.counts(found)[CRIT] == 0


# ------------------------------------------------------------------ #
# the fused report
# ------------------------------------------------------------------ #
@pytest.fixture
def recorded_run(tmp_path):
    """A synthetic run directory covering every telemetry stream."""
    run_dir = str(tmp_path / "run")
    with obs.run(run_dir):
        with trace.span("train"):
            with trace.span("train.update"):
                pass
        for i, kl in enumerate([0.01, 2.5, 0.02]):
            telemetry.emit("train.update", **_update(i, kl_divergence=kl))
        telemetry.emit(
            "query",
            sql="SELECT * FROM t",
            used_approximation=True,
            confidence=0.9,
            realized_frame_score=0.8,
            rows=12,
            drift=False,
        )
        telemetry.emit(
            "plan",
            sql="SELECT a | b FROM t",  # pipe must survive the markdown table
            total_seconds=0.01,
            max_q_error=1.5,
            operators=[
                {"op": "scan", "label": "t", "estimated_rows": 10,
                 "actual_rows": 8, "q_error": 1.25, "seconds": 0.001},
            ],
        )
    return run_dir


class TestReport:
    def test_markdown_sections(self, recorded_run, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "bench"))
        markdown = render_markdown(load(recorded_run))
        for heading in (
            "# repro diagnostic report",
            "## Run summary",
            "## Health alerts",
            "## Training trajectory",
            "## Query plans",
            "## Queries & estimator calibration",
            "## Hottest spans",
            "## Bench trajectory",
        ):
            assert heading in markdown
        # The fold found the KL spike in the recorded updates.
        assert "CRIT" in markdown
        assert "kl_spike" in markdown

    def test_build_report_writes_markdown(self, recorded_run):
        path = build_report(recorded_run)
        assert path.endswith("report.md")
        with open(path) as handle:
            assert "# repro diagnostic report" in handle.read()

    def test_report_on_empty_dir(self, tmp_path, monkeypatch):
        # A run that recorded nothing yet (rundir.load refuses a
        # directory with no artifact at all — see tests/test_rundir.py).
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "nobench"))
        markdown = render_markdown(Run(str(tmp_path / "nothing")))
        assert "No `train.update` records" in markdown
        assert "HEALTHY" in markdown

    def test_bench_trajectory_includes_provenance(self, recorded_run, tmp_path, monkeypatch):
        bench_dir = tmp_path / "bench"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(bench_dir))
        save_results("fig9", {"value": 1.0})
        markdown = render_markdown(load(recorded_run))
        assert "fig9" in markdown
        assert f"| {run_provenance()['git_sha']} |" in markdown


# ------------------------------------------------------------------ #
# bench provenance
# ------------------------------------------------------------------ #
class TestProvenance:
    def test_run_provenance_fields(self):
        provenance = run_provenance()
        assert set(provenance) == {"git_sha", "bench_scale", "config_hash"}
        assert provenance["git_sha"]  # short sha or "unknown", never empty
        assert len(provenance["config_hash"]) == 12

    def test_duration_optional(self):
        assert "duration_seconds" not in run_provenance()

    def test_config_hash_stable(self):
        assert config_hash() == config_hash()

    def test_save_results_embeds_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_results("exp", {"rows": [1, 2]})
        with open(path) as handle:
            record = json.load(handle)
        assert record["experiment"] == "exp"
        assert record["provenance"]["config_hash"] == config_hash()
