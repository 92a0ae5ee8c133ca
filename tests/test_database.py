"""Unit tests for repro.db.database."""

import pytest

from repro.db import Database, SchemaError, sql, execute


class TestDatabase:
    def test_table_registry(self, mini_db, movies):
        assert mini_db.table_names == ["movies", "cast_info"]
        assert mini_db.table("movies") is movies
        assert "movies" in mini_db
        assert "nope" not in mini_db

    def test_duplicate_table_rejected(self, movies):
        db = Database([movies])
        with pytest.raises(SchemaError, match="already has"):
            db.add_table(movies)

    def test_unknown_table_lookup(self, mini_db):
        with pytest.raises(SchemaError, match="available"):
            mini_db.table("nope")

    def test_total_rows(self, mini_db):
        assert mini_db.total_rows() == 13

    def test_iteration(self, mini_db):
        assert [t.name for t in mini_db] == ["movies", "cast_info"]


class TestSubset:
    def test_subset_keeps_listed_rows(self, mini_db):
        sub = mini_db.subset({"movies": [0, 2], "cast_info": [1]})
        assert len(sub.table("movies")) == 2
        assert len(sub.table("cast_info")) == 1

    def test_missing_table_becomes_empty(self, mini_db):
        sub = mini_db.subset({"movies": [0]})
        assert len(sub.table("cast_info")) == 0

    def test_unknown_table_rejected(self, mini_db):
        with pytest.raises(SchemaError, match="unknown table"):
            mini_db.subset({"bogus": [0]})

    def test_subset_is_queryable(self, mini_db):
        sub = mini_db.subset({"movies": [3], "cast_info": [4]})
        q = sql(
            "SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id"
        )
        assert len(execute(sub, q)) == 1

    def test_subset_duplicated_ids_deduped(self, mini_db):
        sub = mini_db.subset({"movies": [1, 1, 1]})
        assert len(sub.table("movies")) == 1


class TestScale:
    def test_scale_multiplies_rows(self, mini_db):
        big = mini_db.scale(3)
        assert big.total_rows() == 3 * mini_db.total_rows()

    def test_scale_one_is_identity_size(self, mini_db):
        assert mini_db.scale(1).total_rows() == mini_db.total_rows()

    def test_scale_rejects_nonpositive(self, mini_db):
        with pytest.raises(ValueError):
            mini_db.scale(0)

    def test_scaled_rows_get_fresh_ids(self, mini_db):
        big = mini_db.scale(2)
        ids = big.table("movies").row_ids
        assert len(set(ids.tolist())) == len(ids)

    def test_scaled_query_results_scale(self, mini_db):
        q = sql("SELECT * FROM movies WHERE genre = 'drama'")
        n1 = len(execute(mini_db, q))
        n2 = len(execute(mini_db.scale(2), q))
        assert n2 == 2 * n1

    def test_scaled_join_results_scale_linearly(self, mini_db):
        """Copy i of a table joins only copy i of another."""
        q = sql("SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id")
        n1 = len(execute(mini_db, q))
        assert n1 == 7
        assert len(execute(mini_db.scale(3), q)) == 3 * n1
