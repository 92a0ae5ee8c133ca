"""Invariants of a fitted model, on drawn databases and workloads.

``hypothesis`` draws the three tiny tables of the sqlite oracle at drawn
sizes and contents, and a workload of its one-, two- and three-table
queries. Each draw is fitted for one or two iterations, saved, loaded and
fine-tuned. The approximation set stays within ``k`` at every stage, and
the loaded model is the in-memory one: the same coverages, action space,
selected set and greedy roll-out, every key of which the database holds.

The scores: the estimator's training scores
(:meth:`TrainedModel.training_scores`) are a :class:`CoverageTracker`'s
per-query scores of the selected set, before and after a fine-tune and on
a loaded model; held-out and training Eq. 1 lie in [0, 1]; and with no
coverage sampled, the tracker's training score is ``metric.score`` of the
representatives on the approximation database.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.core import (
    ASQPConfig, ASQPSession, ASQPTrainer, load_model, metric, save_model,
)
from repro.core.reward import CoverageTracker
from repro.datasets.workloads import Workload
from repro.db import Column, Database, Table, TableSchema, sql
from tests.test_action_env import actions_of
from tests.test_sqlite_oracle import TINY_SCHEMA, _from_where, _tiny_column


@st.composite
def _database(draw):
    """The three tiny tables with drawn row counts and contents."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    tables = []
    for table_name, columns in TINY_SCHEMA.items():
        n = draw(st.integers(1, 30))
        schema = TableSchema(
            table_name,
            [Column(name, ctype, nullable=nullable) for name, ctype, nullable in columns],
        )
        tables.append(Table(schema, {
            name: _tiny_column(name, ctype, nullable, n, rng)
            for name, ctype, nullable in columns
        }))
    return Database(tables, name="drawn")


@st.composite
def _workload(draw, min_size):
    """SELECT * queries; the first scans a whole table, so some
    representative returns rows and pre-processing has actions."""
    table = draw(st.sampled_from(sorted(TINY_SCHEMA)))
    texts = [f"SELECT * FROM {table}"]
    for _ in range(draw(st.integers(min_size, 5))):
        _, from_where = draw(_from_where())
        texts.append(f"SELECT *{from_where}")
    return Workload([sql(text) for text in texts])


def _keys_held(db, keys):
    return all(
        db.has_table(table) and row_id in set(db.table(table).row_ids.tolist())
        for table, row_id in keys
    )


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    db=_database(),
    workload=_workload(min_size=1),
    drift=_workload(min_size=0),
    k=st.integers(1, 40),
    iterations=st.integers(1, 2),
)
def test_save_load_keeps_the_model_and_the_budget(
    tmp_path_factory, db, workload, drift, k, iterations
):
    config = ASQPConfig(
        memory_budget=k, n_iterations=iterations, n_actors=2, episodes_per_actor=1,
        action_space_target=12, group_size=2, n_candidate_rollouts=1,
        query_batch_size=4, fine_tune_iterations=1, seed=3,
    )
    model = ASQPTrainer(db, workload, config).train()
    assert model.approximation_set().total_size() <= k

    directory = str(tmp_path_factory.mktemp("model"))
    save_model(model, directory)
    loaded = load_model(directory, db)
    assert loaded.approximation_set().total_size() <= k

    assert len(loaded.coverages) == len(model.coverages)
    for ours, theirs in zip(loaded.coverages, model.coverages):
        assert not theirs.sampled  # the tiny tables stay under the cap
        assert (ours.weight, ours.denominator, ours.tables, ours.sampled) == (
            theirs.weight, theirs.denominator, theirs.tables, theirs.sampled
        )
        np.testing.assert_array_equal(ours.ids, theirs.ids)
        for column, table in zip(ours.ids.T, ours.tables):
            assert np.isin(column, db.table(table).row_ids).all()
    assert actions_of(loaded.action_space) == actions_of(model.action_space)
    assert loaded.approximation_set().keys() == model.approximation_set().keys()
    assert (
        loaded.approximation_set(greedy=False).keys()
        == model.approximation_set(greedy=False).keys()
    )
    assert _keys_held(db, [key for keys, _ in actions_of(loaded.action_space) for key in keys])
    assert _keys_held(db, loaded.approximation_set().keys())

    loaded.fine_tune(drift.queries)
    assert loaded.approximation_set().total_size() <= k
    assert _keys_held(db, loaded.approximation_set().keys())


def _tracker(model):
    """A fresh tracker over the model's coverages, holding its selected set."""
    tracker = CoverageTracker(model.coverages)
    tracker.add_keys(model.approximation_set().keys())
    return tracker


def _assert_training_scores(model):
    """``training_scores`` is the tracker's per-query scores, bit for bit."""
    tracker = _tracker(model)
    expected = np.asarray([tracker.query_score(q) for q in range(tracker.n_queries)])
    scores = model.training_scores()
    assert scores.dtype == np.float64
    assert scores.tobytes() == expected.tobytes()
    assert ((0.0 <= scores) & (scores <= 1.0)).all()


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    db=_database(),
    workload=_workload(min_size=1),
    held_out=_workload(min_size=0),
    drift=_workload(min_size=0),
    k=st.integers(1, 40),
)
def test_training_scores_are_the_trackers_and_eq1_is_a_ratio(
    tmp_path_factory, db, workload, held_out, drift, k
):
    config = ASQPConfig(
        memory_budget=k, n_iterations=1, n_actors=2, episodes_per_actor=1,
        action_space_target=12, group_size=2, n_candidate_rollouts=1,
        query_batch_size=4, fine_tune_iterations=1, seed=5,
    )
    model = ASQPTrainer(db, workload, config).train()
    _assert_training_scores(model)

    approx_db = model.approximation_database()
    frame = config.frame_size
    assert 0.0 <= metric.score(db, approx_db, held_out, frame) <= 1.0
    representatives = Workload(
        model.preprocessed.representatives, [c.weight for c in model.coverages]
    )
    training = metric.score(db, approx_db, representatives, frame)
    assert 0.0 <= training <= 1.0
    assert not any(c.sampled for c in model.coverages)
    assert _tracker(model).batch_score() == pytest.approx(training, rel=1e-12, abs=1e-12)

    directory = str(tmp_path_factory.mktemp("model"))
    save_model(model, directory)
    loaded = load_model(directory, db)
    session = ASQPSession(loaded, auto_fine_tune=False)
    assert loaded._coverage_index is None  # the open builds no index
    assert loaded.training_scores().tobytes() == model.training_scores().tobytes()
    assert session.approximation_set.keys() == model.approximation_set().keys()

    for fitted in (model, loaded):
        fitted.fine_tune(drift.queries)
        _assert_training_scores(fitted)
