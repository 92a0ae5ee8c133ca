"""Tests for preprocess, trainer, inference and agent expansion.

These run the real pipeline on the tiny IMDB bundle with very small RL
settings — they verify wiring and invariants, not learning quality (the
benchmarks cover that).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ASQPAgent,
    ASQPConfig,
    ASQPTrainer,
    CoverageTracker,
    generate_approximation_set,
    preprocess,
)
from repro.core import trainer as trainer_module
from repro.core.preprocess import provenance_ids
from repro.db import execute, sql
from tests.test_action_env import actions_of, as_rows, space_of


def provenance_rows(db, query):
    """The distinct provenance of ``query`` on ``db`` as key tuples."""
    return as_rows(*provenance_ids(db, query))


def _tiny_config(**overrides):
    defaults = dict(
        memory_budget=80,
        n_iterations=3,
        n_actors=2,
        episodes_per_actor=1,
        action_space_target=50,
        n_query_representatives=6,
        n_candidate_rollouts=2,
        learning_rate=1e-3,
        seed=7,
    )
    defaults.update(overrides)
    return ASQPConfig(**defaults)


@pytest.fixture(scope="module")
def trained(tiny_imdb):
    config = _tiny_config()
    return ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()


class TestProvenance:
    def test_single_table_provenance(self, mini_db):
        rows = provenance_rows(mini_db, sql("SELECT * FROM movies WHERE movies.genre = 'drama'"))
        assert rows == [(("movies", 0),), (("movies", 2),), (("movies", 5),)]

    def test_join_provenance_pairs(self, mini_db):
        rows = provenance_rows(
            mini_db,
            sql("SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id "
                "AND cast_info.actor = 'ann'"),
        )
        assert all(len(row) == 2 for row in rows)
        tables = {key[0] for row in rows for key in row}
        assert tables == {"cast_info", "movies"}

    def test_provenance_distinct(self, mini_db):
        rows = provenance_rows(mini_db, sql("SELECT movies.genre FROM movies"))
        assert len(rows) == 6  # provenance-distinct even if values repeat


class TestPreprocess:
    def test_outputs_consistent(self, tiny_imdb):
        config = _tiny_config()
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, config)
        assert prep.n_representatives <= 6
        assert len(prep.coverages) == prep.n_representatives
        assert len(prep.representative_embeddings) == prep.n_representatives
        assert len(prep.action_space) > 0
        assert abs(sum(c.weight for c in prep.coverages) - 1.0) < 1e-9
        assert set(prep.timings) >= {
            "stats", "query_preprocessing", "execute_relaxed",
            "build_action_space", "coverage",
        }

    def test_action_tuples_exist_in_database(self, tiny_imdb):
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _tiny_config())
        for keys, _ in actions_of(prep.action_space)[:20]:
            for table_name, row_id in keys:
                table = tiny_imdb.db.table(table_name)
                assert row_id in set(table.row_ids.tolist())

    def test_training_fraction_limits_queries(self, tiny_imdb):
        config = _tiny_config(training_fraction=0.3)
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, config)
        expected = max(2, int(round(len(tiny_imdb.workload) * 0.3)))
        assert len(prep.training_queries) == expected

    def test_deterministic_given_seed(self, tiny_imdb):
        a = preprocess(tiny_imdb.db, tiny_imdb.workload, _tiny_config())
        b = preprocess(tiny_imdb.db, tiny_imdb.workload, _tiny_config())
        assert [q.name for q in a.representatives] == [q.name for q in b.representatives]
        assert len(a.action_space) == len(b.action_space)


class TestTrainer:
    def test_history_recorded(self, trained):
        assert 1 <= len(trained.history) <= 3
        record = trained.history[0]
        assert record.iteration == 0
        assert np.isfinite(record.policy_loss)

    def test_setup_time_positive(self, trained):
        assert trained.setup_seconds > 0

    def test_approximation_set_respects_budget(self, trained):
        approx = trained.approximation_set()
        assert 0 < approx.total_size() <= 80

    def test_approximation_database_queryable(self, trained, tiny_imdb):
        db = trained.approximation_database()
        result = execute(db, sql("SELECT * FROM title"))
        assert len(result) <= 80

    def test_training_scores_in_unit_interval(self, trained):
        scores = trained.training_scores()
        assert len(scores) == len(trained.coverages)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_early_stopping(self, tiny_imdb, monkeypatch):
        # An impossible improvement: every iteration after the first is stale.
        monkeypatch.setattr(trainer_module, "EARLY_STOPPING_MIN_DELTA", 100.0)
        config = _tiny_config(n_iterations=30, early_stopping_patience=1)
        model = ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()
        assert len(model.history) <= 3

    def test_more_actors_than_a_thousand(self, tiny_imdb):
        # One environment seed per actor, however many actors there are.
        config = _tiny_config(n_actors=1025, n_iterations=1, memory_budget=5)
        model = ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()
        assert len(model.history) == 1


class TestInference:
    def test_greedy_deterministic(self, trained):
        a = generate_approximation_set(
            trained.agent.actor, trained.action_space, trained.config, greedy=True
        )
        b = generate_approximation_set(
            trained.agent.actor, trained.action_space, trained.config, greedy=True
        )
        assert a.keys() == b.keys()

    def test_sampled_respects_budget(self, trained, rng):
        config = dataclasses.replace(trained.config, memory_budget=25)
        approx = generate_approximation_set(
            trained.agent.actor, trained.action_space, config, rng=rng, greedy=False
        )
        assert approx.total_size() <= 25

    def test_mismatched_space_rejected(self, trained, tiny_imdb):
        bogus = space_of([((("title", 0),), -1)])
        with pytest.raises(ValueError, match="does not match"):
            generate_approximation_set(trained.agent.actor, bogus, trained.config)


class TestAgentExpansion:
    def test_expand_preserves_old_behaviour_shape(self, rng):
        config = _tiny_config()
        agent = ASQPAgent(10, config, rng)
        old_weights = agent.actor.net.weights[0].copy()
        agent.expand_action_space(15)
        assert agent.actor.n_actions == 15
        assert np.allclose(agent.actor.net.weights[0][:10, :], old_weights)
        if agent.critic is not None:
            assert agent.critic.net.layer_sizes[0] == 15

    def test_expand_noop_same_size(self, rng):
        agent = ASQPAgent(10, _tiny_config(), rng)
        weights_before = agent.actor.net.weights[0]
        agent.expand_action_space(10)
        assert agent.actor.net.weights[0] is weights_before

    def test_shrink_rejected(self, rng):
        agent = ASQPAgent(10, _tiny_config(), rng)
        with pytest.raises(ValueError, match="shrink"):
            agent.expand_action_space(5)


class TestFineTune:
    def test_fine_tune_extends_model(self, tiny_imdb):
        config = _tiny_config(fine_tune_iterations=2)
        model = ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()
        n_cov = len(model.coverages)
        n_actions = len(model.action_space)
        new_query = sql("SELECT * FROM person WHERE person.gender = 'f'")
        model.fine_tune([new_query])
        assert len(model.coverages) == n_cov + 1
        assert len(model.action_space) >= n_actions
        assert model.agent.n_actions == len(model.action_space)
        assert model.fine_tune_count == 1

    def test_fine_tune_rebuilds_the_coverage_index(self, tiny_imdb):
        """A stale index (built for the shorter list) must not survive."""
        config = _tiny_config(fine_tune_iterations=1)
        model = ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()
        before = model.coverage_index()
        assert model.coverage_index() is before  # one index, reused
        assert len(model.training_scores()) == len(model.coverages)
        model.fine_tune([sql("SELECT * FROM person WHERE person.gender = 'f'")])
        after = model.coverage_index()
        assert after is not before
        assert len(after.row_counts) == len(model.coverages) == len(before.row_counts) + 1
        # Scores over the shared index equal a from-scratch tracker's.
        approx = model.approximation_set()
        fresh = CoverageTracker(model.coverages)
        fresh.add_keys(approx.keys())
        expected = [fresh.query_score(q) for q in range(fresh.n_queries)]
        assert model.training_scores(approx).tolist() == expected
        assert model.training_scores().tolist() == expected

    def test_fine_tune_empty_noop(self, trained):
        count = trained.fine_tune_count
        trained.fine_tune([])
        assert trained.fine_tune_count == count


class TestSelectedSet:
    """The default ``approximation_set()`` call selects once per policy."""

    def test_training_clears_the_selected_set(self, tiny_imdb):
        config = _tiny_config(fine_tune_iterations=1)
        model = ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()
        first = model.approximation_set()
        assert model.selected is first
        assert model.approximation_set() is first
        steps = (
            lambda: trainer_module.run_training_loop(
                model, 1, np.random.default_rng(3)
            ),
            lambda: model.fine_tune(
                [sql("SELECT * FROM person WHERE person.gender = 'f'")]
            ),
        )
        for step in steps:
            step()
            assert model.selected is None
            kept = model.approximation_set()
            model.selected = None
            assert kept.keys() == model.approximation_set().keys()

    def test_non_default_calls_leave_it_alone(self, trained):
        trained.selected = None
        trained.approximation_set(greedy=False)
        assert trained.selected is None
        selected = trained.approximation_set()
        assert trained.approximation_set(greedy=False) is not selected
        assert trained.selected is selected

    def test_single_rollout_is_kept_too(self, tiny_imdb):
        config = _tiny_config(n_iterations=1, n_candidate_rollouts=0)
        model = ASQPTrainer(tiny_imdb.db, tiny_imdb.workload, config).train()
        approx = model.approximation_set()
        assert model.selected is approx
        assert model.approximation_set(greedy=False).keys() == approx.keys()


class TestCalibratedScale:
    def test_scale_at_least_one(self, trained):
        scale = trained.calibrated_count_scale()
        assert scale >= 1.0  # a subset can never contain more than the data

    def test_default_when_no_ratios(self, trained):
        # Force the no-ratio path by temporarily blanking the reps.
        reps = trained.preprocessed.representatives
        trained.preprocessed.representatives = []
        try:
            assert trained.calibrated_count_scale(default=7.5) == 7.5
        finally:
            trained.preprocessed.representatives = reps
