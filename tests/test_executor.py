"""Unit tests for repro.db.executor."""

import numpy as np
import pytest

from repro.db import (
    Comparison,
    Database,
    ExecutionError,
    JoinCondition,
    Or,
    ResultSet,
    SPJQuery,
    execute,
    execute_aggregate,
    explain,
    sql,
    timed_execute,
)


class TestSingleTable:
    def test_full_scan(self, mini_db):
        result = execute(mini_db, sql("SELECT * FROM movies"))
        assert len(result) == 6

    def test_filter(self, mini_db):
        result = execute(mini_db, sql("SELECT * FROM movies WHERE year > 2006"))
        assert len(result) == 3

    def test_projection_limits_columns(self, mini_db):
        result = execute(mini_db, sql("SELECT movies.title FROM movies"))
        assert set(result.columns) == {"movies.title"}

    def test_order_by_and_limit(self, mini_db):
        result = execute(
            mini_db, sql("SELECT movies.title FROM movies ORDER BY movies.rating DESC LIMIT 2")
        )
        assert list(result.column("movies.title")) == ["Delta", "Beta"]

    def test_order_by_string_column(self, mini_db):
        result = execute(mini_db, sql("SELECT * FROM movies ORDER BY movies.title LIMIT 3"))
        titles = list(result.column("movies.title"))
        assert titles == sorted(titles)

    def test_distinct(self, mini_db):
        result = execute(mini_db, sql("SELECT DISTINCT movies.genre FROM movies"))
        assert len(result) == 3

    def test_limit_zero(self, mini_db):
        result = execute(mini_db, sql("SELECT * FROM movies LIMIT 0"))
        assert len(result) == 0

    def test_unknown_table(self, mini_db):
        with pytest.raises(ExecutionError, match="unknown table"):
            execute(mini_db, sql("SELECT * FROM nope"))

    def test_row_ids_track_provenance(self, mini_db):
        result = execute(mini_db, sql("SELECT * FROM movies WHERE year = 2005"))
        assert sorted(result.row_ids["movies"]) == [1, 4]


class TestJoins:
    def test_two_way_join(self, mini_db):
        q = sql(
            "SELECT movies.title, cast_info.actor FROM movies, cast_info "
            "WHERE movies.id = cast_info.movie_id"
        )
        result = execute(mini_db, q)
        assert len(result) == 7  # every cast row joins exactly one movie

    def test_join_with_filter_pushdown(self, mini_db):
        q = sql(
            "SELECT movies.title, cast_info.actor FROM movies, cast_info "
            "WHERE movies.id = cast_info.movie_id AND cast_info.actor = 'ann'"
        )
        result = execute(mini_db, q)
        assert sorted(result.column("movies.title")) == ["Alpha", "Beta", "Zeta"]

    def test_join_result_provenance_spans_tables(self, mini_db):
        q = sql(
            "SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id"
        )
        result = execute(mini_db, q)
        assert set(result.row_ids) == {"movies", "cast_info"}

    def test_residual_multi_table_predicate(self, mini_db):
        q = sql(
            "SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id "
            "AND (movies.year > 2015 OR cast_info.actor = 'cid')"
        )
        result = execute(mini_db, q)
        titles = set(result.column("movies.title"))
        assert titles == {"Delta", "Gamma"}

    def test_cross_join_without_condition(self, mini_db):
        q = SPJQuery(tables=("movies", "cast_info"))
        result = execute(mini_db, q)
        assert len(result) == 6 * 7

    def test_join_on_empty_side(self, mini_db):
        q = sql(
            "SELECT * FROM movies, cast_info WHERE movies.id = cast_info.movie_id "
            "AND movies.year > 3000"
        )
        assert len(execute(mini_db, q)) == 0

    def test_join_matches_manual_computation(self, mini_db):
        q = sql(
            "SELECT movies.title, cast_info.actor FROM movies, cast_info "
            "WHERE movies.id = cast_info.movie_id AND movies.genre = 'drama'"
        )
        result = execute(mini_db, q)
        expected = {("Alpha", "ann"), ("Alpha", "bob"), ("Gamma", "cid"), ("Zeta", "ann")}
        got = {
            (t, a)
            for t, a in zip(result.column("movies.title"), result.column("cast_info.actor"))
        }
        assert got == expected


class TestSubsetMonotonicity:
    def test_subset_results_are_subset_of_full(self, mini_db):
        q = sql(
            "SELECT movies.title, cast_info.actor FROM movies, cast_info "
            "WHERE movies.id = cast_info.movie_id"
        )
        full_keys = set(execute(mini_db, q).tuple_keys())
        sub = mini_db.subset({"movies": [0, 1, 2], "cast_info": [0, 1, 2, 3]})
        sub_keys = set(execute(sub, q).tuple_keys())
        assert sub_keys <= full_keys


class TestAggregates:
    def test_count_star(self, mini_db):
        result = execute_aggregate(mini_db, sql("SELECT COUNT(*) FROM movies"))
        assert result.rows[0]["count(*)"] == 6.0

    def test_group_by_counts(self, mini_db):
        result = execute_aggregate(
            mini_db, sql("SELECT genre, COUNT(*) FROM movies GROUP BY genre")
        )
        mapping = {row["genre"]: row["count(*)"] for row in result.rows}
        assert mapping == {"drama": 3.0, "action": 2.0, "scifi": 1.0}

    def test_avg_min_max_sum(self, mini_db):
        result = execute_aggregate(
            mini_db,
            sql("SELECT AVG(rating) AS a, MIN(rating) AS lo, MAX(rating) AS hi, "
                "SUM(year) AS sy FROM movies"),
        )
        row = result.rows[0]
        assert row["lo"] == 5.5 and row["hi"] == 9.0
        assert row["sy"] == float(1999 + 2005 + 2010 + 2020 + 2005 + 2015)
        assert abs(row["a"] - np.mean([7.1, 8.2, 5.5, 9.0, 6.0, 7.7])) < 1e-9

    def test_filtered_aggregate(self, mini_db):
        result = execute_aggregate(
            mini_db, sql("SELECT COUNT(*) FROM movies WHERE genre = 'drama'")
        )
        assert result.rows[0]["count(*)"] == 3.0

    def test_aggregate_over_join(self, mini_db):
        result = execute_aggregate(
            mini_db,
            sql("SELECT cast_info.actor, COUNT(*) FROM movies, cast_info "
                "WHERE movies.id = cast_info.movie_id GROUP BY cast_info.actor"),
        )
        mapping = {row["cast_info.actor"]: row["count(*)"] for row in result.rows}
        assert mapping["ann"] == 3.0

    def test_empty_group_result(self, mini_db):
        result = execute_aggregate(
            mini_db, sql("SELECT genre, COUNT(*) FROM movies WHERE year > 3000 GROUP BY genre")
        )
        assert len(result) == 0

    def test_global_aggregate_on_empty_selection(self, mini_db):
        result = execute_aggregate(
            mini_db, sql("SELECT COUNT(*) FROM movies WHERE year > 3000")
        )
        assert result.rows[0]["count(*)"] == 0.0

    def test_as_mapping(self, mini_db):
        result = execute_aggregate(
            mini_db, sql("SELECT genre, COUNT(*) FROM movies GROUP BY genre")
        )
        mapping = result.as_mapping()
        assert mapping[("drama",)]["count(*)"] == 3.0


class TestResultSet:
    def test_tuple_keys_distinct_identity(self, mini_db):
        result = execute(mini_db, sql("SELECT movies.genre FROM movies"))
        keys = result.tuple_keys()
        assert len(keys) == 6
        assert len(set(keys)) == 3

    def test_provenance_keys(self, mini_db):
        result = execute(mini_db, sql("SELECT * FROM movies WHERE year = 1999"))
        assert result.provenance_keys() == [(0,)]

    @staticmethod
    def _loop_keys(result):
        """Row keys as the per-row loop built them, numpy scalars and all."""
        arrays = [result.column(ref) for ref in sorted(result.columns)]
        tables = sorted(result.row_ids)
        return (
            [tuple(arr[i] for arr in arrays) for i in range(result.n_rows)],
            [
                tuple(int(result.row_ids[t][i]) for t in tables)
                for i in range(result.n_rows)
            ],
        )

    def test_row_keys_match_the_per_row_loop(self, mini_db):
        query = sql(
            "SELECT movies.title, movies.rating, cast_info.actor "
            "FROM movies, cast_info WHERE movies.id = cast_info.movie_id"
        )
        result = execute(mini_db, query)
        tuple_keys, provenance_keys = self._loop_keys(result)
        assert result.tuple_keys() == tuple_keys
        assert result.provenance_keys() == provenance_keys
        assert set(result.tuple_keys()) == set(tuple_keys)

    def test_row_keys_with_nan_cells_and_no_columns(self):
        nan_cells = ResultSet(
            columns={"t.x": np.asarray([1.0, np.nan, np.nan, -0.0, 0.0])},
            row_ids={"t": np.arange(5)},
            n_rows=5,
        )
        loop, _ = self._loop_keys(nan_cells)
        keys = nan_cells.tuple_keys()
        assert len(keys) == 5
        for got, want in zip(keys, loop):
            np.testing.assert_array_equal(got, want)
            assert got == want or np.isnan(want[0])
            assert got != want or hash(got) == hash(want)
        # NaN never equals NaN: every NaN row stays its own distinct key.
        assert len(set(keys)) == len(set(loop)) == 4
        empty = ResultSet(columns={}, row_ids={}, n_rows=3)
        assert empty.tuple_keys() == empty.provenance_keys() == [(), (), ()]
        assert self._loop_keys(empty) == ([(), (), ()], [(), (), ()])

    def test_to_rows(self, mini_db):
        rows = execute(mini_db, sql("SELECT movies.title FROM movies LIMIT 1")).to_rows()
        assert rows == [{"movies.title": "Alpha"}]

    def test_column_bare_name_lookup(self, mini_db):
        result = execute(mini_db, sql("SELECT movies.title FROM movies"))
        assert len(result.column("title")) == 6

    def test_string_columns_stay_encoded_until_read(self, mini_db):
        query = sql(
            "SELECT movies.title, movies.year, cast_info.actor "
            "FROM movies, cast_info "
            "WHERE movies.id = cast_info.movie_id AND movies.genre = 'drama'"
        )
        for result in (execute(mini_db, query), explain(mini_db, query, analyze=True).result):
            assert set(result.encodings) == {"movies.title", "cast_info.actor"}
            for ref in result.encodings:
                assert result.columns[ref].dtype.kind == "i"
            assert sorted(result.provenance_keys()) == [(0, 0), (1, 0), (3, 2), (6, 5)]
            assert result._decoded == {}
            titles = result.column("title")
            assert list(result._decoded) == ["movies.title"]
            assert result.column("movies.title") is titles
            context = result.decoded_context()
            assert "cast_info.actor" in context and len(context) == 3
            assert context["movies.title"] is titles
            assert list(result._decoded) == ["movies.title"]
            assert sorted(titles) == ["Alpha", "Alpha", "Gamma", "Zeta"]
            assert result.columns["movies.title"].dtype.kind == "i"
            assert sorted(row["cast_info.actor"] for row in result.to_rows()) == [
                "ann", "ann", "bob", "cid",
            ]


class TestTimedExecute:
    def test_returns_elapsed_and_throughput(self, mini_db):
        result, elapsed, rows_per_second = timed_execute(
            mini_db, sql("SELECT * FROM movies")
        )
        assert len(result) == 6
        assert elapsed >= 0.0
        assert rows_per_second == pytest.approx(len(result) / elapsed)

    def test_named_fields(self, mini_db):
        timing = timed_execute(mini_db, sql("SELECT * FROM movies LIMIT 0"))
        assert timing.result.n_rows == 0
        assert timing.rows_per_second == 0.0
