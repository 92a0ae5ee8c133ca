"""Prepared plans and remembered estimates: reusing them changes no answer."""

import numpy as np
import pytest

from repro import obs
from repro.core import AnswerabilityEstimator
from repro.db import (
    Column,
    ColumnType,
    Database,
    SPJQuery,
    Table,
    TableSchema,
    compute_database_stats,
    execute,
    execute_aggregate,
    explain,
    sql,
)
from repro.db.database import PREPARED_QUERIES
from repro.embedding import QueryEmbedder
from repro.obs import trace

JOIN_SQL = (
    "SELECT movies.title, cast_info.actor FROM movies, cast_info "
    "WHERE movies.id = cast_info.movie_id AND movies.year > 2000 "
    "AND cast_info.actor != 'bob' ORDER BY movies.title"
)
GROUP_SQL = (
    "SELECT movies.genre, COUNT(*), AVG(movies.rating) FROM movies "
    "WHERE movies.year >= 2005 GROUP BY movies.genre"
)


def _answer(result):
    return result.to_rows(), {t: ids.tolist() for t, ids in result.row_ids.items()}


class TestPreparedPlans:
    def test_equal_query_reuses_the_plan(self, mini_db):
        first = execute(mini_db, sql(JOIN_SQL))
        (plan,) = mini_db.plans.values()
        second = execute(mini_db, sql(JOIN_SQL))  # equal, not the same object
        assert list(mini_db.plans.values()) == [plan]
        assert second is not first
        assert _answer(second) == _answer(first)
        assert [row["movies.title"] for row in first.to_rows()] == [
            "Beta", "Delta", "Gamma", "Zeta",
        ]

    def test_aggregate_repeats_alike(self, mini_db):
        first = execute_aggregate(mini_db, sql(GROUP_SQL)).rows
        assert execute_aggregate(mini_db, sql(GROUP_SQL)).rows == first
        assert len(mini_db.plans) == 1
        assert [row["movies.genre"] for row in first] == ["action", "drama", "scifi"]

    def test_observed_results_are_not_shared(self):
        schema = TableSchema(
            "points", [Column("id", ColumnType.INT), Column("x", ColumnType.FLOAT)]
        )
        db = Database([Table(schema, {"id": [1, 2, 3], "x": [0.5, 1.5, 2.5]})])
        query = sql("SELECT * FROM points")
        obs.enable()
        try:
            first = execute(db, query)
            stats = first.stats
            trace_id = stats.trace_id
            second = execute(db, query)
        finally:
            obs.disable()
            trace.reset()
        assert second is not first
        assert first.stats is stats and stats.trace_id == trace_id
        assert second.stats is not stats and second.stats.trace_id != trace_id
        assert first._decoded is not second._decoded and not first._decoded
        assert first.column("x").tolist() == [0.5, 1.5, 2.5]

    def test_store_keeps_the_newest_up_to_its_bound(self, mini_db):
        years = mini_db.table("movies").column("year")
        cutoffs = range(1980, 1980 + PREPARED_QUERIES + 20)
        queries = [sql(f"SELECT movies.id FROM movies WHERE movies.year > {y}") for y in cutoffs]
        for cutoff, query in zip(cutoffs, queries):
            assert len(execute(mini_db, query)) == int(np.sum(years > cutoff))
        assert len(mini_db.plans) == PREPARED_QUERIES
        assert queries[0] not in mini_db.plans and queries[-1] in mini_db.plans
        assert len(execute(mini_db, queries[0])) == int(np.sum(years > 1980))
        assert len(mini_db.plans) == PREPARED_QUERIES

    def test_explain_prepares_nothing(self, mini_db):
        explain(mini_db, sql(JOIN_SQL))
        explain(mini_db, sql(GROUP_SQL), analyze=True)
        assert not mini_db.plans

    def test_unhashable_query_runs_unprepared(self, mini_db):
        query = SPJQuery(tables=["movies"])
        assert len(execute(mini_db, query)) == len(execute(mini_db, query)) == 6
        assert not mini_db.plans


@pytest.fixture
def embedder(mini_db):
    return QueryEmbedder(stats=compute_database_stats(mini_db))


def _estimator(embedder, queries, scores):
    return AnswerabilityEstimator(embedder, embedder.embed_workload(queries), scores)


_TRAINING = [
    sql("SELECT * FROM movies WHERE movies.year > 2000"),
    sql("SELECT * FROM movies WHERE movies.genre = 'drama'"),
    sql("SELECT * FROM movies WHERE movies.rating > 7.0"),
]
_ASKED = sql("SELECT * FROM movies WHERE movies.year > 2004")


class TestRememberedEstimates:
    def test_repeat_embeds_nothing(self, embedder, monkeypatch):
        estimator = _estimator(embedder, _TRAINING, [0.9, 0.7, 0.8])
        first = estimator.estimate(_ASKED)
        calls = []
        monkeypatch.setattr(embedder, "embed", lambda query: calls.append(query))
        assert estimator.estimate(sql(_ASKED.to_sql())) is first
        assert estimator.deviation_confidence(_ASKED) == first.deviation
        assert calls == []
