"""Unit tests for repro.db.table."""

import numpy as np
import pytest

from repro.db import Column, ColumnType, SchemaError, Table, TableSchema


class TestConstruction:
    def test_basic(self, movies):
        assert len(movies) == 6
        assert movies.name == "movies"
        assert list(movies.row_ids) == [0, 1, 2, 3, 4, 5]

    def test_missing_column_rejected(self, movie_schema):
        with pytest.raises(SchemaError, match="missing"):
            Table(movie_schema, {"id": [1]})

    def test_extra_column_rejected(self, movie_schema):
        with pytest.raises(SchemaError, match="unknown"):
            Table(
                movie_schema,
                {
                    "id": [1], "title": ["x"], "year": [2000],
                    "rating": [5.0], "genre": ["g"], "bogus": [0],
                },
            )

    def test_ragged_columns_rejected(self, movie_schema):
        with pytest.raises(SchemaError, match="expected"):
            Table(
                movie_schema,
                {
                    "id": [1, 2], "title": ["x"], "year": [2000],
                    "rating": [5.0], "genre": ["g"],
                },
            )

    def test_row_id_length_mismatch_rejected(self, movie_schema):
        with pytest.raises(SchemaError, match="row ids"):
            Table(
                movie_schema,
                {
                    "id": [1], "title": ["x"], "year": [2000],
                    "rating": [5.0], "genre": ["g"],
                },
                row_ids=np.asarray([0, 1]),
            )

    def test_columns_read_only(self, movies):
        with pytest.raises(ValueError):
            movies.column("year")[0] = 1234


class TestAccess:
    def test_row(self, movies):
        row = movies.row(1)
        assert row["title"] == "Beta"
        assert row["year"] == 2005

    def test_row_out_of_range(self, movies):
        with pytest.raises(IndexError):
            movies.row(10)

    def test_rows_iterates_all(self, movies):
        assert len(list(movies.rows())) == 6

    def test_column_unknown(self, movies):
        with pytest.raises(SchemaError):
            movies.column("nope")


class TestDerivation:
    def test_take_preserves_row_ids(self, movies):
        sub = movies.take(np.asarray([3, 1]))
        assert list(sub.row_ids) == [3, 1]
        assert list(sub.column("title")) == ["Delta", "Beta"]

    def test_filter_mask(self, movies):
        sub = movies.filter_mask(movies.column("year") > 2006)
        assert set(sub.column("title")) == {"Gamma", "Delta", "Zeta"}

    def test_filter_mask_length_check(self, movies):
        with pytest.raises(ValueError, match="mask length"):
            movies.filter_mask(np.asarray([True]))

    def test_subset_by_row_ids(self, movies):
        sub = movies.subset_by_row_ids([0, 5])
        assert list(sub.column("title")) == ["Alpha", "Zeta"]

    def test_subset_of_subset_keeps_base_ids(self, movies):
        mid = movies.take(np.asarray([2, 3, 4]))
        sub = mid.subset_by_row_ids([3])
        assert list(sub.row_ids) == [3]
        assert list(sub.column("title")) == ["Delta"]

    def test_subset_with_unknown_ids_is_empty_selection(self, movies):
        sub = movies.subset_by_row_ids([99])
        assert len(sub) == 0

    def test_take_empty(self, movies):
        sub = movies.take(np.asarray([], dtype=np.int64))
        assert len(sub) == 0
        assert sub.schema is movies.schema


class TestHtmlRepr:
    def test_table_html(self, movies):
        html = movies._repr_html_()
        assert "<table>" in html and "movies — 6 rows" in html
        assert "Alpha" in html

    def test_escaping(self, movie_schema):
        from repro.db import Table

        table = Table(movie_schema, {
            "id": [1], "title": ["<script>"], "year": [2000],
            "rating": [1.0], "genre": ["a&b"],
        })
        html = table._repr_html_()
        assert "&lt;script&gt;" in html
        assert "a&amp;b" in html

    def test_result_set_html(self, mini_db):
        from repro.db import execute, sql

        html = execute(mini_db, sql("SELECT movies.title FROM movies"))._repr_html_()
        assert "movies.title" in html

    def test_aggregate_html(self, mini_db):
        from repro.db import execute_aggregate, sql

        result = execute_aggregate(
            mini_db, sql("SELECT genre, COUNT(*) FROM movies GROUP BY genre")
        )
        html = result._repr_html_()
        assert "count(*)" in html and "3 groups" in html
