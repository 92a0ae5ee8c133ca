"""Integration tests: the full system, end to end, on each dataset.

Small RL budgets keep these fast; learning quality is the benchmarks' job.
The assertions here are about cross-module contracts: trained subsets are
real sub-databases, Eq. 1 agrees across code paths, the ablation variants
all train, and the session lifecycle (estimate → answer → drift →
fine-tune) holds together.
"""

import numpy as np
import pytest

from repro.core import (
    ASQPConfig,
    ASQPSystem,
    ASQPTrainer,
    CoverageTracker,
    score,
)
from repro.db import execute, sql


def _config(**overrides):
    defaults = dict(
        memory_budget=100,
        n_iterations=4,
        n_actors=2,
        episodes_per_actor=1,
        action_space_target=60,
        n_query_representatives=8,
        n_candidate_rollouts=2,
        learning_rate=1e-3,
        seed=21,
    )
    defaults.update(overrides)
    return ASQPConfig(**defaults)


@pytest.mark.parametrize("bundle_fixture", ["tiny_imdb", "tiny_mas", "tiny_flights"])
def test_end_to_end_per_dataset(bundle_fixture, request):
    bundle = request.getfixturevalue(bundle_fixture)
    train, test = bundle.workload.split(0.3, np.random.default_rng(1))
    model = ASQPTrainer(bundle.db, train, _config()).train()
    approx = model.approximation_set()
    assert 0 < approx.total_size() <= 100

    sub = approx.to_database(bundle.db)
    # Every kept tuple is a real base tuple.
    for table in sub:
        base = set(bundle.db.table(table.name).row_ids.tolist())
        assert set(table.row_ids.tolist()) <= base

    value = score(bundle.db, sub, test, frame_size=50)
    assert 0.0 <= value <= 1.0


def test_tracker_score_agrees_with_executed_score(tiny_imdb):
    """Eq. 1 via CoverageTracker tracks Eq. 1 via query execution.

    The tracker works at provenance granularity while executed scoring
    deduplicates projected tuples (shrinking numerator *and* denominator),
    so the two agree exactly for SELECT-* queries and stay close otherwise.
    """
    train, _ = tiny_imdb.workload.split(0.3, np.random.default_rng(2))
    model = ASQPTrainer(tiny_imdb.db, train, _config()).train()
    approx = model.approximation_set()

    tracker = CoverageTracker(model.coverages)
    tracker.add_keys(approx.keys())
    incremental = tracker.batch_score()

    from repro.datasets import Workload

    rep_workload = Workload(
        list(model.preprocessed.representatives),
        np.asarray([coverage.weight for coverage in model.coverages]),
    )
    executed = score(
        tiny_imdb.db, approx.to_database(tiny_imdb.db), rep_workload, frame_size=50
    )
    assert abs(incremental - executed) < 0.25


@pytest.mark.parametrize("environment", ["gsl", "drp", "drp+gsl"])
def test_ablation_environments_train(tiny_flights, environment):
    config = _config(environment=environment, drp_horizon=10)
    model = ASQPTrainer(tiny_flights.db, tiny_flights.workload, config).train()
    assert model.approximation_set().total_size() > 0


@pytest.mark.parametrize("use_ppo,use_ac", [(True, True), (False, True), (False, False)])
def test_ablation_agents_train(tiny_flights, use_ppo, use_ac):
    config = _config(use_ppo_clip=use_ppo, use_actor_critic=use_ac)
    model = ASQPTrainer(tiny_flights.db, tiny_flights.workload, config).train()
    assert len(model.history) > 0
    assert model.approximation_set().total_size() > 0


def test_trained_beats_empty_and_is_bounded_by_full(tiny_imdb):
    train, test = tiny_imdb.workload.split(0.3, np.random.default_rng(3))
    model = ASQPTrainer(tiny_imdb.db, train, _config(memory_budget=200)).train()
    sub = model.approximation_database()
    trained_score = score(tiny_imdb.db, sub, test, 50)
    empty_score = score(tiny_imdb.db, tiny_imdb.db.subset({}), test, 50)
    full_score = score(tiny_imdb.db, tiny_imdb.db, test, 50)
    assert empty_score <= trained_score <= full_score
    assert full_score == pytest.approx(1.0)
    assert trained_score > 0.0


def test_session_full_lifecycle(tiny_flights):
    config = _config(fine_tune_iterations=1, seed=33)
    session = ASQPSystem(config).fit(tiny_flights.db, tiny_flights.workload)
    session.drift_detector.trigger_count = 2

    # Phase 1: known queries answered (either path), outcomes sane.
    for query in list(tiny_flights.workload)[:5]:
        outcome = session.query(query)
        assert outcome.elapsed_seconds < 5.0

    # Phase 2: drifted queries eventually trigger fine-tuning.
    drifted = [
        sql("SELECT * FROM carriers WHERE carriers.low_cost = 1"),
        sql("SELECT * FROM carriers WHERE carriers.low_cost = 0"),
        sql("SELECT carriers.name FROM carriers WHERE carriers.code = 'AA'"),
    ]
    fine_tuned = False
    for query in drifted:
        outcome = session.query(query)
        fine_tuned = fine_tuned or outcome.fine_tuned
    assert fine_tuned

    # Phase 3: after fine-tuning the drifted interest is more answerable.
    estimate = session.estimator.estimate(drifted[0])
    assert estimate.familiarity > 0.5

    # The refreshed approximation set is still a genuine sub-database.
    for table in session.approx_db:
        base = set(tiny_flights.db.table(table.name).row_ids.tolist())
        assert set(table.row_ids.tolist()) <= base


def test_aggregate_queries_answerable_from_subset(tiny_flights):
    session = ASQPSystem(_config(seed=44)).fit(tiny_flights.db, tiny_flights.workload)
    agg = tiny_flights.aggregate_workload.queries[0]
    outcome = session.query(agg, confidence_threshold=0.0)  # force approx path
    assert outcome.used_approximation
    assert hasattr(outcome.result, "rows")
