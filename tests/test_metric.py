"""Unit tests for repro.core.metric (Eq. 1, Eq. 2, diversity)."""

import numpy as np
import pytest

from repro.core import (
    ApproximationSet,
    aggregate_relative_error,
    pairwise_jaccard_diversity,
    per_query_scores,
    query_score,
    relative_error,
    result_diversity,
    score,
    workload_result_keys,
)
from repro.datasets import Workload
from repro.db import sql


class TestQueryScore:
    def test_full_coverage(self):
        assert query_score(10, 10, frame_size=50) == 1.0

    def test_frame_caps_denominator(self):
        # 200 result rows, F=50: 50 covered rows suffice.
        assert query_score(200, 50, frame_size=50) == 1.0
        assert query_score(200, 25, frame_size=50) == 0.5

    def test_small_result_needs_everything(self):
        assert query_score(4, 2, frame_size=50) == 0.5

    def test_empty_full_result_scores_one(self):
        assert query_score(0, 0) == 1.0

    def test_capped_at_one(self):
        assert query_score(10, 100, frame_size=50) == 1.0


class TestScore:
    def _workload(self):
        return Workload([
            sql("SELECT * FROM movies WHERE movies.genre = 'drama'"),
            sql("SELECT * FROM movies WHERE movies.year > 2004"),
        ])

    def test_full_database_scores_one(self, mini_db):
        assert score(mini_db, mini_db, self._workload()) == pytest.approx(1.0)

    def test_empty_subset_scores_zero(self, mini_db):
        empty = mini_db.subset({})
        assert score(mini_db, empty, self._workload()) == pytest.approx(0.0)

    def test_partial_subset(self, mini_db):
        # movies 0, 2 are drama (of 3); movies 1, 2 in year range (of 5... )
        sub = mini_db.subset({"movies": [0, 2]})
        value = score(mini_db, sub, self._workload(), frame_size=50)
        assert 0.0 < value < 1.0

    def test_monotone_in_subset(self, mini_db):
        small = mini_db.subset({"movies": [0]})
        large = mini_db.subset({"movies": [0, 2, 3]})
        workload = self._workload()
        assert score(mini_db, large, workload) >= score(mini_db, small, workload)

    def test_precomputed_keys_match(self, mini_db):
        workload = self._workload()
        keys = workload_result_keys(mini_db, workload)
        sub = mini_db.subset({"movies": [0, 2]})
        assert score(mini_db, sub, workload) == pytest.approx(
            score(mini_db, sub, workload, full_keys=keys)
        )

    def test_weights_respected(self, mini_db):
        queries = [
            sql("SELECT * FROM movies WHERE movies.genre = 'drama'"),
            sql("SELECT * FROM movies WHERE movies.genre = 'scifi'"),
        ]
        # Subset covers all of scifi (movie 3), none of drama.
        sub = mini_db.subset({"movies": [3]})
        lopsided = Workload(queries, np.asarray([0.0, 1.0]))
        assert score(mini_db, sub, lopsided) == pytest.approx(1.0)

    def test_fabricated_tuples_do_not_count(self, mini_db, movies):
        """A fake database whose rows satisfy predicates must score 0."""
        from repro.db import Database, Table

        fake_movies = Table(
            movies.schema,
            {
                "id": [100], "title": ["Fake"], "year": [2010],
                "rating": [9.9], "genre": ["drama"],
            },
        )
        fake = Database([fake_movies, mini_db.table("cast_info").take(np.asarray([], dtype=np.int64))])
        workload = Workload([sql("SELECT * FROM movies WHERE movies.genre = 'drama'")])
        assert score(mini_db, fake, workload) == pytest.approx(0.0)

    def test_rows_with_null_floats_count(self):
        """A row holding a NULL float is in q(S) ∩ q(T): the two executions'
        NaN cells are one value to the keys, not two unequal ones."""
        from repro.db import Column, ColumnType, Database, Table, TableSchema

        schema = TableSchema("p", [
            Column("id", ColumnType.INT),
            Column("x", ColumnType.FLOAT, nullable=True),
        ])
        db = Database([Table(schema, {"id": [0, 1, 2], "x": [np.nan, 1.5, np.nan]})])
        workload = Workload([sql("SELECT * FROM p"), sql("SELECT p.x FROM p")])
        assert per_query_scores(db, db, workload).tolist() == [1.0, 1.0]
        half = db.subset({"p": [0]})
        assert per_query_scores(db, half, workload).tolist() == [1 / 3, 1 / 2]

    def test_sum_past_one_by_rounding_is_one(self, mini_db):
        query = sql("SELECT * FROM movies WHERE movies.genre = 'drama'")
        workload = Workload([query] * 6)
        assert sum(workload.spj_only().weights) > 1.0  # renormalised sixths
        assert score(mini_db, mini_db, workload) == 1.0

    def test_per_query_scores_shape(self, mini_db):
        workload = self._workload()
        values = per_query_scores(mini_db, mini_db, workload)
        assert values.shape == (2,)
        assert np.allclose(values, 1.0)


class TestRelativeError:
    def test_exact(self):
        assert relative_error(10, 10) == 0.0

    def test_simple(self):
        assert relative_error(8, 10) == pytest.approx(0.2)

    def test_zero_truth(self):
        assert relative_error(0, 0) == 0.0
        assert relative_error(5, 0) == 1.0

    def test_nan_prediction(self):
        assert relative_error(float("nan"), 10) == 1.0

    def test_capped_at_one(self):
        assert relative_error(100, 1) == 1.0


class TestAggregateRelativeError:
    def test_full_database_zero_error(self, mini_db):
        q = sql("SELECT genre, COUNT(*) FROM movies GROUP BY genre")
        assert aggregate_relative_error(mini_db, mini_db, q) == 0.0

    def test_missing_group_costs_one(self, mini_db):
        q = sql("SELECT genre, COUNT(*) FROM movies GROUP BY genre")
        sub = mini_db.subset({"movies": [0]})  # only drama present
        error = aggregate_relative_error(mini_db, sub, q)
        # action and scifi groups missing entirely -> error ~ (2/3 + drama error)/...
        assert error > 0.5

    def test_count_scaling(self, mini_db):
        q = sql("SELECT COUNT(*) FROM movies")
        sub = mini_db.subset({"movies": [0, 1, 2]})  # half the rows
        unscaled = aggregate_relative_error(mini_db, sub, q)
        scaled = aggregate_relative_error(mini_db, sub, q, scale_counts=2.0)
        assert unscaled == pytest.approx(0.5)
        assert scaled == pytest.approx(0.0)

    def test_avg_never_scaled(self, mini_db):
        q = sql("SELECT AVG(rating) FROM movies")
        error = aggregate_relative_error(mini_db, mini_db, q, scale_counts=2.0)
        assert error == 0.0


class TestDiversity:
    def test_identical_sets_zero(self):
        assert pairwise_jaccard_diversity([{1, 2}, {1, 2}]) == 0.0

    def test_disjoint_sets_one(self):
        assert pairwise_jaccard_diversity([{1}, {2}, {3}]) == 1.0

    def test_single_set_zero(self):
        assert pairwise_jaccard_diversity([{1, 2}]) == 0.0

    def test_empty_pair_zero(self):
        assert pairwise_jaccard_diversity([set(), set()]) == 0.0

    def test_result_diversity_on_database(self, mini_db):
        workload = Workload([
            sql("SELECT movies.title FROM movies WHERE movies.genre = 'drama'"),
            sql("SELECT movies.title FROM movies WHERE movies.genre = 'action'"),
        ])
        assert result_diversity(mini_db, workload) == 1.0

    def test_result_diversity_overlapping_queries(self, mini_db):
        workload = Workload([
            sql("SELECT movies.title FROM movies WHERE movies.year > 2000"),
            sql("SELECT movies.title FROM movies WHERE movies.year > 2010"),
        ])
        value = result_diversity(mini_db, workload)
        assert 0.0 < value < 1.0
