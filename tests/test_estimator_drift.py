"""Unit tests for repro.core.estimator and repro.core.drift."""

import numpy as np
import pytest

from repro.core import AnswerabilityEstimator, DriftDetector
from repro.core import estimator as estimator_module
from repro.db import compute_database_stats, sql
from repro.embedding import QueryEmbedder


@pytest.fixture
def embedder(mini_db):
    return QueryEmbedder(stats=compute_database_stats(mini_db))


@pytest.fixture
def training_queries():
    return [
        sql("SELECT * FROM movies WHERE movies.year > 2000"),
        sql("SELECT * FROM movies WHERE movies.year > 2005"),
        sql("SELECT * FROM movies WHERE movies.genre = 'drama'"),
        sql("SELECT * FROM movies WHERE movies.genre = 'action'"),
        sql("SELECT * FROM movies WHERE movies.rating > 7.0"),
    ]


@pytest.fixture
def estimator(embedder, training_queries):
    embeddings = embedder.embed_workload(training_queries)
    scores = [0.9, 0.8, 0.7, 0.6, 0.9]
    return AnswerabilityEstimator(
        embedder, embeddings, scores,
        calibration_embeddings=embeddings,
    )


class TestEstimator:
    def test_training_query_fully_familiar(self, estimator, training_queries):
        estimate = estimator.estimate(training_queries[0])
        assert estimate.familiarity == pytest.approx(1.0)
        assert estimate.confidence == pytest.approx(estimate.competence)

    def test_training_query_competence_near_own_score(self, estimator, training_queries):
        estimate = estimator.estimate(training_queries[0])
        assert estimate.competence > 0.7  # own score is 0.9

    def test_unrelated_query_low_confidence(self, estimator):
        foreign = sql("SELECT * FROM cast_info WHERE cast_info.actor = 'zzz'")
        estimate = estimator.estimate(foreign)
        assert estimate.confidence < 0.3
        assert not estimate.answerable

    def test_deviation_complements_familiarity(self, estimator, training_queries):
        known = estimator.deviation_confidence(training_queries[0])
        foreign = estimator.deviation_confidence(
            sql("SELECT * FROM cast_info WHERE cast_info.actor = 'zzz'")
        )
        assert known < 0.2
        assert foreign > 0.6

    def test_threshold_controls_answerable(
        self, embedder, training_queries, monkeypatch
    ):
        monkeypatch.setattr(estimator_module, "ANSWERABLE_AT", 0.9)
        embeddings = embedder.embed_workload(training_queries)
        strict = AnswerabilityEstimator(
            embedder, embeddings, [0.6] * 5,
            calibration_embeddings=embeddings,
        )
        assert not strict.estimate(training_queries[0]).answerable

    def test_mismatched_construction(self, embedder):
        with pytest.raises(ValueError):
            AnswerabilityEstimator(embedder, np.zeros((2, 32)), [0.5])

    def test_empty_construction(self, embedder):
        with pytest.raises(ValueError):
            AnswerabilityEstimator(embedder, np.zeros((0, 32)), [])

    def test_single_representative_fallback(self, embedder, training_queries):
        embeddings = embedder.embed_workload(training_queries[:1])
        estimator = AnswerabilityEstimator(embedder, embeddings, [0.8])
        estimate = estimator.estimate(training_queries[0])
        assert 0.0 <= estimate.confidence <= 1.0

    def test_confidence_bounded(self, estimator, training_queries):
        for q in training_queries:
            c = estimator.estimate(q).confidence
            assert 0.0 <= c <= 1.0


class TestDriftDetector:
    def _q(self, i):
        return sql(f"SELECT * FROM movies WHERE movies.year > {2000 + i}")

    def test_fires_after_trigger_count(self):
        detector = DriftDetector(confidence_threshold=0.8, trigger_count=3)
        assert detector.observe(self._q(0), 0.9) is None
        assert detector.observe(self._q(1), 0.95) is None
        event = detector.observe(self._q(2), 0.85)
        assert event is not None
        assert len(event.queries) == 3
        assert detector.events_fired == 1

    def test_low_confidence_does_not_count(self):
        detector = DriftDetector(trigger_count=2)
        assert detector.observe(self._q(0), 0.5) is None
        assert detector.observe(self._q(1), 0.79) is None
        assert detector.pending_count == 0

    def test_threshold_is_strict(self):
        detector = DriftDetector(confidence_threshold=0.8, trigger_count=1)
        assert detector.observe(self._q(0), 0.8) is None  # must exceed
        assert detector.observe(self._q(0), 0.81) is not None

    def test_pending_clears_after_fire(self):
        detector = DriftDetector(trigger_count=2)
        detector.observe(self._q(0), 0.9)
        event = detector.observe(self._q(1), 0.9)
        assert event is not None
        assert detector.pending_count == 0

    def test_interleaved_familiar_queries_keep_pending(self):
        detector = DriftDetector(trigger_count=2)
        detector.observe(self._q(0), 0.9)
        detector.observe(self._q(1), 0.1)  # familiar, ignored
        assert detector.pending_count == 1
        assert detector.observe(self._q(2), 0.9) is not None

    def test_reset(self):
        detector = DriftDetector(trigger_count=3)
        detector.observe(self._q(0), 0.9)
        detector.reset()
        assert detector.pending_count == 0

    def test_detector_rearms_after_event(self):
        """After firing, accumulation restarts from zero — a second event
        needs trigger_count fresh deviating queries."""
        detector = DriftDetector(trigger_count=2)
        detector.observe(self._q(0), 0.9)
        assert detector.observe(self._q(1), 0.9) is not None
        assert detector.observe(self._q(2), 0.9) is None  # only 1 pending
        event = detector.observe(self._q(3), 0.9)
        assert event is not None
        assert len(event.queries) == 2
        assert detector.events_fired == 2

    def test_pending_count_never_exceeds_trigger(self):
        """pending_count saturates at trigger_count − 1: the trigger fires
        the instant the count is reached, so pendings can't pile up."""
        detector = DriftDetector(trigger_count=3)
        for i in range(20):
            detector.observe(self._q(i), 0.95)
            assert detector.pending_count <= 2
        assert detector.events_fired == 6  # 20 // 3
        assert detector.pending_count == 2

    def test_alternating_high_low_deviation(self):
        """Low-deviation queries neither count nor reset the pendings, so
        a strictly alternating stream still fires every 2*trigger queries."""
        detector = DriftDetector(trigger_count=3)
        events = []
        for i in range(12):
            deviation = 0.9 if i % 2 == 0 else 0.1
            event = detector.observe(self._q(i), deviation)
            if event is not None:
                events.append((i, event))
        assert [i for i, _ in events] == [4, 10]  # every 3rd high-deviation
        for _, event in events:
            assert all(c > 0.8 for c in event.confidences)

    def test_reset_mid_accumulation_discards_partial_evidence(self):
        detector = DriftDetector(trigger_count=3)
        detector.observe(self._q(0), 0.9)
        detector.observe(self._q(1), 0.9)
        detector.reset()
        detector.observe(self._q(2), 0.9)
        detector.observe(self._q(3), 0.9)
        assert detector.pending_count == 2  # pre-reset pendings are gone
        assert detector.events_fired == 0
        assert detector.observe(self._q(4), 0.9) is not None

    def test_event_confidences_match_queries(self):
        detector = DriftDetector(trigger_count=2)
        detector.observe(self._q(0), 0.85)
        event = detector.observe(self._q(1), 0.95)
        assert event.confidences == [0.85, 0.95]
        assert len(event.queries) == len(event.confidences)


class TestCalibrationDegenerate:
    """_calibrate and calibration_error on degenerate workloads."""

    def _constant_estimator(self, embedder, training_queries, score):
        embeddings = embedder.embed_workload(training_queries)
        return AnswerabilityEstimator(
            embedder, embeddings, [score] * len(training_queries),
            calibration_embeddings=embeddings,
        )

    def test_constant_scores_still_normalized(self, embedder, training_queries):
        """All-equal training scores must not break the familiarity scale."""
        estimator = self._constant_estimator(embedder, training_queries, 0.7)
        assert estimator._sim_high > estimator._sim_low
        for query in training_queries:
            estimate = estimator.estimate(query)
            assert 0.0 <= estimate.confidence <= 1.0
            assert estimate.competence == pytest.approx(0.7)

    def test_all_zero_scores(self, embedder, training_queries):
        estimator = self._constant_estimator(embedder, training_queries, 0.0)
        estimate = estimator.estimate(training_queries[0])
        assert estimate.confidence == 0.0
        assert not estimate.answerable

    def test_identical_embeddings_fallback_window(self, embedder, training_queries):
        """Duplicate representatives: every LOO similarity is ~1.0, which
        would collapse the [low, high] window; _calibrate must keep a
        positive span so familiarity stays defined."""
        one = embedder.embed(training_queries[0])[None, :]
        embeddings = np.repeat(one, 4, axis=0)
        estimator = AnswerabilityEstimator(embedder, embeddings, [0.5] * 4)
        assert estimator._sim_high - estimator._sim_low >= 0.05
        estimate = estimator.estimate(training_queries[0])
        assert estimate.familiarity == pytest.approx(1.0)
        assert 0.0 <= estimate.confidence <= 1.0

    def test_single_representative_uses_default_window(self, embedder, training_queries):
        embeddings = embedder.embed_workload(training_queries[:1])
        estimator = AnswerabilityEstimator(embedder, embeddings, [0.9])
        assert (estimator._sim_low, estimator._sim_high) == (0.25, 0.75)

    def test_calibration_error_bounds(self, estimator):
        error = estimator.calibration_error()
        assert 0.0 <= error <= 1.0

    def test_calibration_error_single_representative_is_zero(
        self, embedder, training_queries
    ):
        embeddings = embedder.embed_workload(training_queries[:1])
        estimator = AnswerabilityEstimator(embedder, embeddings, [0.9])
        assert estimator.calibration_error() == 0.0

    def test_calibration_error_perfect_when_scores_match_confidence(
        self, embedder, training_queries
    ):
        """Duplicated representatives with equal scores: each LOO estimate
        sees an identical twin, so confidence == score == error 0 — unless
        the score itself can't be reproduced (score > max confidence)."""
        one = embedder.embed(training_queries[0])[None, :]
        embeddings = np.repeat(one, 3, axis=0)
        estimator = AnswerabilityEstimator(embedder, embeddings, [1.0, 1.0, 1.0])
        assert estimator.calibration_error() == pytest.approx(0.0, abs=1e-9)

    def test_calibration_error_detects_overconfident_scores(
        self, embedder, training_queries
    ):
        """Scores the neighbours can't predict show up as calibration error."""
        embeddings = embedder.embed_workload(training_queries)
        alternating = [1.0 if i % 2 == 0 else 0.0 for i in range(len(embeddings))]
        noisy = AnswerabilityEstimator(
            embedder, embeddings, alternating,
            calibration_embeddings=embeddings,
        )
        smooth = AnswerabilityEstimator(
            embedder, embeddings, [0.5] * len(embeddings),
            calibration_embeddings=embeddings,
        )
        assert noisy.calibration_error() > smooth.calibration_error()
