"""Unit tests for repro.embedding.relaxation.

Core invariant: a relaxed query's result is a superset of the original
query's result (relaxation only loosens conditions).
"""

import pytest

from repro.db import (
    Between,
    Comparison,
    InSet,
    compute_database_stats,
    execute,
    sql,
)
from repro.embedding import QueryRelaxer, relaxation


@pytest.fixture
def relaxer(mini_db):
    return QueryRelaxer(compute_database_stats(mini_db))


class TestRangeWidening:
    def test_between_widens(self, relaxer):
        q = sql("SELECT * FROM movies WHERE movies.year BETWEEN 2005 AND 2010")
        relaxed = relaxer.relax(q)
        (part,) = [p for p in [relaxed.predicate] if isinstance(p, Between)]
        assert part.low < 2005 and part.high > 2010

    def test_threshold_loosens_gt(self, relaxer):
        q = sql("SELECT * FROM movies WHERE movies.year > 2010")
        relaxed = relaxer.relax(q)
        assert isinstance(relaxed.predicate, Comparison)
        assert relaxed.predicate.value < 2010

    def test_threshold_loosens_lt(self, relaxer):
        q = sql("SELECT * FROM movies WHERE movies.year < 2005")
        relaxed = relaxer.relax(q)
        assert relaxed.predicate.value > 2005

    def test_numeric_equality_becomes_range(self, relaxer):
        q = sql("SELECT * FROM movies WHERE movies.year = 2005")
        relaxed = relaxer.relax(q)
        assert isinstance(relaxed.predicate, Between)


class TestEqualityGeneralization:
    def test_categorical_equality_becomes_in(self, relaxer):
        q = sql("SELECT * FROM movies WHERE movies.genre = 'scifi'")
        relaxed = relaxer.relax(q)
        assert isinstance(relaxed.predicate, InSet)
        assert "scifi" in relaxed.predicate.values
        assert len(relaxed.predicate.values) > 1

    def test_siblings_are_popular_values(self, relaxer):
        q = sql("SELECT * FROM movies WHERE movies.genre = 'scifi'")
        relaxed = relaxer.relax(q)
        assert "drama" in relaxed.predicate.values  # the most popular genre

    def test_disabled_siblings(self, mini_db, monkeypatch):
        monkeypatch.setattr(relaxation, "EQUALITY_SIBLINGS", 0)
        relaxer = QueryRelaxer(compute_database_stats(mini_db))
        q = sql("SELECT * FROM movies WHERE movies.genre = 'scifi'")
        relaxed = relaxer.relax(q)
        assert isinstance(relaxed.predicate, Comparison)


class TestSupersetInvariant:
    QUERIES = [
        "SELECT * FROM movies WHERE movies.year BETWEEN 2004 AND 2012",
        "SELECT * FROM movies WHERE movies.genre = 'drama' AND movies.rating > 6.0",
        "SELECT * FROM movies WHERE movies.year > 2005",
        "SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id "
        "AND cast_info.actor = 'ann' AND movies.year < 2010",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_relaxed_result_superset(self, mini_db, relaxer, text):
        q = sql(text)
        original = set(execute(mini_db, q).provenance_keys())
        relaxed = set(execute(mini_db, relaxer.relax(q)).provenance_keys())
        assert original <= relaxed

    def test_limit_lifted(self, mini_db, relaxer):
        q = sql("SELECT * FROM movies WHERE movies.year > 2000 LIMIT 1")
        assert relaxer.relax(q).limit is None


class TestAggregateInput:
    def test_aggregate_is_stripped_then_relaxed(self, relaxer):
        agg = sql("SELECT genre, COUNT(*) FROM movies WHERE year > 2005 GROUP BY genre")
        relaxed = relaxer.relax(agg)
        assert not relaxed.is_aggregate
        assert relaxed.predicate.value < 2005
