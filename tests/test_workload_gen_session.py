"""Tests for repro.core.workload_gen and repro.core.session."""

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core import (
    ASQPConfig,
    ASQPSession,
    ASQPSystem,
    ASQPTrainer,
    WorkloadGenerator,
)
from repro.db import execute, sql


def generate_workload(db, n_queries, rng, name_prefix="gen"):
    return WorkloadGenerator(db, rng).generate(n_queries, name_prefix=name_prefix)


class TestWorkloadGenerator:
    def test_generates_requested_count(self, mini_db, rng):
        workload = generate_workload(mini_db, 12, rng)
        assert len(workload) == 12

    def test_queries_are_executable(self, mini_db, rng):
        workload = generate_workload(mini_db, 15, rng)
        for query in workload:
            execute(mini_db, query)  # must not raise

    def test_some_queries_nonempty(self, tiny_flights, rng):
        workload = generate_workload(tiny_flights.db, 20, rng)
        sizes = [len(execute(tiny_flights.db, q)) for q in workload]
        assert sum(1 for s in sizes if s > 0) >= len(sizes) // 3

    def test_join_template_uses_foreign_keys(self, tiny_imdb, rng):
        workload = generate_workload(tiny_imdb.db, 40, rng)
        joined = [q for q in workload if len(q.tables) == 2]
        assert joined, "expected at least one FK-join query"
        for q in joined:
            assert len(q.joins) == 1

    def test_refinement_biases_generation(self, tiny_flights):
        rng = np.random.default_rng(0)
        generator = WorkloadGenerator(tiny_flights.db, rng)
        user_query = sql("SELECT * FROM flights WHERE flights.dep_delay > 30.0")
        generator.refine_with_user_queries([user_query] * 5)
        workload = generator.generate(40)
        hits = sum(
            1 for q in workload if "dep_delay" in q.predicate.to_sql()
        )
        # dep_delay is one of ~8 numeric targets; bias should raise its share
        assert hits >= 8

    def test_deterministic_given_seed(self, mini_db):
        a = generate_workload(mini_db, 10, np.random.default_rng(3))
        b = generate_workload(mini_db, 10, np.random.default_rng(3))
        assert [q.to_sql() for q in a] == [q.to_sql() for q in b]

    def test_names_prefixed(self, mini_db, rng):
        workload = generate_workload(mini_db, 5, rng, name_prefix="xyz")
        assert all(q.name.startswith("xyz_") for q in workload)


def _session_config(**overrides):
    defaults = dict(
        memory_budget=60,
        n_iterations=2,
        n_actors=2,
        episodes_per_actor=1,
        action_space_target=40,
        n_query_representatives=5,
        n_candidate_rollouts=1,
        fine_tune_iterations=1,
        learning_rate=1e-3,
        seed=11,
    )
    defaults.update(overrides)
    return ASQPConfig(**defaults)


@pytest.fixture(scope="module")
def session(tiny_flights):
    return ASQPSystem(_session_config()).fit(tiny_flights.db, tiny_flights.workload)


class TestSession:
    def test_approximation_within_budget(self, session):
        assert 0 < session.approximation_set.total_size() <= 60

    def test_query_returns_outcome(self, session, tiny_flights):
        outcome = session.query(tiny_flights.workload.queries[0])
        assert outcome.elapsed_seconds >= 0
        assert 0 <= outcome.estimate.confidence <= 1

    def test_disallow_full_database_forces_approx(self, session, tiny_flights):
        outcome = session.query(
            tiny_flights.workload.queries[1], allow_full_database=False
        )
        assert outcome.used_approximation

    def test_confidence_threshold_override(self, session, tiny_flights):
        # Threshold 0 answers everything from the approximation set.
        outcome = session.query(
            tiny_flights.workload.queries[2], confidence_threshold=0.0
        )
        assert outcome.used_approximation
        # Threshold above 1 always goes to the database.
        outcome = session.query(
            tiny_flights.workload.queries[2], confidence_threshold=1.01
        )
        assert not outcome.used_approximation

    def test_aggregate_query_path(self, session, tiny_flights):
        outcome = session.query(tiny_flights.aggregate_workload.queries[0])
        assert hasattr(outcome.result, "rows")

    def test_approx_results_subset_of_full(self, session, tiny_flights):
        from repro.db import execute as run

        query = tiny_flights.workload.queries[0].with_limit(None)
        approx_keys = set(run(session.approx_db, query).tuple_keys())
        full_keys = set(run(session.model.db, query).tuple_keys())
        assert approx_keys <= full_keys


class TestSessionRollouts:
    def test_open_and_refresh_reuse_the_selected_set(self, tiny_flights, monkeypatch):
        """Alg. 2 runs once per trained policy, not once per open or refresh."""
        model = ASQPTrainer(
            tiny_flights.db, tiny_flights.workload, _session_config(seed=5)
        ).train()
        model.approximation_set()
        rollouts = []
        generate = trainer_module.generate_approximation_set

        def counting(*args, **kwargs):
            rollouts.append(kwargs["greedy"])
            return generate(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "generate_approximation_set", counting)
        opened = ASQPSession(model, auto_fine_tune=False)
        assert rollouts == []
        opened.refresh()
        assert rollouts == []
        model.fine_tune(list(tiny_flights.workload.queries[:3]))
        opened.refresh()
        assert len(rollouts) == model.config.n_candidate_rollouts + 1
        assert opened.approximation_set.keys() == model.approximation_set().keys()
        np.testing.assert_array_equal(
            opened.estimator.scores, model.training_scores()
        )
        assert len(rollouts) == model.config.n_candidate_rollouts + 1  # read back


class TestOneEstimatePerRequest:
    def test_embeds_once_and_hands_drift_the_same_deviation(
        self, session, tiny_flights, monkeypatch
    ):
        """The drift deviation comes from the estimate already in hand."""
        from repro.core import ASQPSession
        from repro.core.drift import DriftDetector
        from repro.embedding import QueryEmbedder

        opened = ASQPSession(session.model, auto_fine_tune=False)
        embeds, observed = [], []
        embed, observe = QueryEmbedder.embed, DriftDetector.observe

        def counting_embed(self, query):
            embeds.append(query)
            return embed(self, query)

        def recording_observe(self, query, deviation):
            observed.append(deviation)
            return observe(self, query, deviation)

        monkeypatch.setattr(QueryEmbedder, "embed", counting_embed)
        monkeypatch.setattr(DriftDetector, "observe", recording_observe)
        queries = [*tiny_flights.workload, *tiny_flights.aggregate_workload]
        queries.append(sql("SELECT * FROM carriers WHERE carriers.low_cost = 1"))
        for query in queries:
            opened.query(query)
        assert embeds == queries
        monkeypatch.undo()
        expected = [opened.estimator.deviation_confidence(q) for q in queries]
        assert observed == expected  # float equality: bit for bit
        assert len(set(observed)) > 1


class TestSessionDrift:
    def test_drift_triggers_fine_tune(self, tiny_flights):
        config = _session_config(seed=13)
        session = ASQPSystem(config).fit(tiny_flights.db, tiny_flights.workload)
        session.drift_detector.trigger_count = 2
        foreign = [
            sql("SELECT * FROM carriers WHERE carriers.low_cost = 1"),
            sql("SELECT * FROM carriers WHERE carriers.low_cost = 0"),
            sql("SELECT * FROM carriers WHERE carriers.name LIKE 'Air%'"),
        ]
        fired = False
        for query in foreign:
            outcome = session.query(query)
            fired = fired or outcome.fine_tuned
        assert fired
        assert session.model.fine_tune_count >= 1

    def test_auto_fine_tune_disabled(self, tiny_flights):
        config = _session_config(seed=14)
        session = ASQPSystem(config).fit(
            tiny_flights.db, tiny_flights.workload, auto_fine_tune=False
        )
        session.drift_detector.trigger_count = 1
        outcome = session.query(sql("SELECT * FROM carriers WHERE carriers.low_cost = 1"))
        assert not outcome.fine_tuned
        assert session.model.fine_tune_count == 0


class TestNoWorkloadMode:
    def test_fit_without_workload(self, tiny_flights):
        session = ASQPSystem(_session_config(seed=15)).fit(
            tiny_flights.db, workload=None, n_generated_queries=10
        )
        assert session.workload_generator is not None
        assert session.approximation_set.total_size() > 0

    def test_generated_session_answers_queries(self, tiny_flights):
        session = ASQPSystem(_session_config(seed=16)).fit(
            tiny_flights.db, workload=None, n_generated_queries=10
        )
        outcome = session.query(tiny_flights.workload.queries[0])
        assert outcome is not None


class TestAdaptiveBudget:
    def test_fit_within_budget_returns_session(self, tiny_flights):
        system = ASQPSystem(_session_config(seed=19))
        session = system.fit_within_budget(
            tiny_flights.db, tiny_flights.workload, time_budget_seconds=10.0
        )
        assert session.approximation_set.total_size() > 0

    def test_small_budget_picks_light_settings(self, tiny_flights):
        system = ASQPSystem(_session_config(seed=20))
        session = system.fit_within_budget(
            tiny_flights.db, tiny_flights.workload, time_budget_seconds=0.01
        )
        # A near-zero budget lands at the light end of the spectrum.
        assert session.model.config.training_fraction <= 0.5

    def test_invalid_budget(self, tiny_flights):
        system = ASQPSystem(_session_config())
        with pytest.raises(ValueError):
            system.fit_within_budget(tiny_flights.db, tiny_flights.workload, 0.0)


class TestRepeatedQueries:
    def test_repeat_query_answers_alike(self, session, tiny_flights):
        q = tiny_flights.workload.queries[0]
        first = session.query(q)
        second = session.query(q)
        assert second.estimate is first.estimate
        assert second.used_approximation == first.used_approximation
        assert second.result is not first.result
        assert sorted(second.result.provenance_keys()) == sorted(
            first.result.provenance_keys()
        )
        target = session.approx_db if first.used_approximation else session.model.db
        assert q in target.plans

    def test_refresh_starts_without_plans(self, tiny_flights):
        model = ASQPSystem(_session_config(seed=24)).fit(
            tiny_flights.db, tiny_flights.workload
        ).model
        session = ASQPSession(model, auto_fine_tune=False)
        q = tiny_flights.workload.queries[0]
        before = session.query(q)
        session.refresh()
        assert not session.approx_db.plans
        after = session.query(q)
        assert after.estimate == before.estimate
        assert after.estimate is not before.estimate
