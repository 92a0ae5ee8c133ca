"""Unit tests for repro.core.reward (incremental coverage tracking).

The central invariant: the tracker's incremental score must equal the
score computed by executing queries on the materialized sub-database.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ApproximationSet,
    CoverageTracker,
    QueryCoverage,
    build_coverage,
    score,
)
from repro.core.reward import CoverageIndex
from repro.datasets import Workload
from repro.db import sql


def coverage_from_rows(name, weight, denominator, rows):
    """A ``QueryCoverage`` from ``((table, row_id), ...)`` rows over the same
    tables — the inverse of ``as_rows(coverage.tables, coverage.ids)``."""
    tables = tuple(table for table, _ in sorted(rows[0])) if rows else ()
    assert all(tuple(table for table, _ in sorted(row)) == tables for row in rows)
    ids = [[row_id for _, row_id in sorted(row)] for row in rows]
    return QueryCoverage(
        name, weight, denominator, tables,
        np.asarray(ids, dtype=np.int64).reshape(len(rows), len(tables)),
    )


@pytest.fixture
def coverages():
    # Query A needs rows (t,0),(t,1); query B needs joined pairs.
    return [
        coverage_from_rows("A", 0.5, 2, [(("t", 0),), (("t", 1),)]),
        coverage_from_rows("B", 0.5, 2, [(("t", 0), ("u", 7)), (("t", 2), ("u", 8))]),
    ]


class TestCoverageTracker:
    def test_initially_zero(self, coverages):
        tracker = CoverageTracker(coverages)
        assert tracker.batch_score() == 0.0

    def test_single_tuple_partial(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0)])
        assert tracker.query_score(0) == 0.5
        assert tracker.query_score(1) == 0.0  # join partner missing

    def test_join_requirement_needs_all_keys(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0)])
        tracker.add_keys([("u", 7)])
        assert tracker.query_score(1) == 0.5

    def test_full_coverage(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0), ("t", 1), ("t", 2), ("u", 7), ("u", 8)])
        assert tracker.batch_score() == pytest.approx(1.0)

    def test_remove_reverses_add(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0), ("u", 7)])
        before = tracker.batch_score()
        tracker.add_keys([("t", 1)])
        tracker.remove_keys([("t", 1)])
        assert tracker.batch_score() == pytest.approx(before)

    def test_refcounted_duplicates(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0)])
        tracker.add_keys([("t", 0)])
        tracker.remove_keys([("t", 0)])
        assert tracker.query_score(0) == 0.5  # still present once
        tracker.remove_keys([("t", 0)])
        assert tracker.query_score(0) == 0.0

    def test_remove_absent_is_noop(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.remove_keys([("t", 99)])
        assert tracker.batch_score() == 0.0

    def test_irrelevant_key_no_effect(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("zzz", 1)])
        assert tracker.batch_score() == 0.0

    def test_reset(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0), ("t", 1)])
        tracker.reset()
        assert tracker.batch_score() == 0.0
        tracker.add_keys([("t", 0)])
        assert tracker.query_score(0) == 0.5

    def test_batch_score_subset_renormalizes(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0), ("t", 1)])
        assert tracker.batch_score([0]) == pytest.approx(1.0)
        assert tracker.batch_score([1]) == pytest.approx(0.0)

    def test_empty_query_scores_one(self):
        tracker = CoverageTracker(
            [QueryCoverage(name="empty", weight=1.0, denominator=0)]
        )
        assert tracker.batch_score() == pytest.approx(1.0)

    def test_score_with_keys_preserves_state(self, coverages):
        tracker = CoverageTracker(coverages)
        tracker.add_keys([("t", 0)])
        before = tracker.batch_score()
        probe = tracker.score_with_keys([("t", 0), ("t", 1), ("t", 2), ("u", 7), ("u", 8)])
        assert probe == pytest.approx(1.0)
        assert tracker.batch_score() == pytest.approx(before)

    def test_denominator_caps_coverage(self):
        coverage = QueryCoverage("big", 1.0, 2, ("t",), np.arange(10).reshape(-1, 1))
        tracker = CoverageTracker([coverage])
        tracker.add_keys([("t", 0), ("t", 1)])
        assert tracker.batch_score() == pytest.approx(1.0)


class TestTrackerMatchesExecution:
    """Incremental coverage == executing the query on the sub-database."""

    QUERIES = [
        "SELECT * FROM movies WHERE movies.genre = 'drama'",
        "SELECT * FROM movies WHERE movies.year > 2004",
        "SELECT movies.title, cast_info.actor FROM movies, cast_info "
        "WHERE movies.id = cast_info.movie_id AND cast_info.actor = 'ann'",
    ]

    @pytest.mark.parametrize("selection", [
        {"movies": [0, 1], "cast_info": [0, 2]},
        {"movies": [0, 1, 2, 3, 4, 5], "cast_info": [0, 1, 2, 3, 4, 5, 6]},
        {"movies": [3]},
        {},
    ])
    def test_equivalence(self, mini_db, selection, rng):
        queries = [sql(text) for text in self.QUERIES]
        workload = Workload(queries)
        coverages = [
            build_coverage(mini_db, q, 1.0 / len(queries), frame_size=50, rng=rng)
            for q in queries
        ]
        tracker = CoverageTracker(coverages)
        approx = ApproximationSet.from_mapping(selection)
        tracker.add_keys(approx.keys())
        executed = score(mini_db, approx.to_database(mini_db), workload, frame_size=50)
        assert tracker.batch_score() == pytest.approx(executed, abs=1e-9)


def test_coverage_structures_bytes_per_requirement_row():
    """What the coverages and their ``CoverageIndex`` hold for 50k
    requirement rows over 3 tables (``tracemalloc``, bytes per row).

    Measured 82; the row-id matrices hold 24 of it and the index's int64
    arrays the rest. Rows held as ``(table, row id)`` tuples with a dict
    entry per distinct key measured 470 per row.
    """
    n_queries, rows_per_query = 10, 5_000
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        coverages = [
            QueryCoverage(
                f"q{q}", 1.0 / n_queries, 100, ("a", "b", "c"),
                rng.integers(0, 20_000, size=(rows_per_query, 3)),
            )
            for q in range(n_queries)
        ]
        index = CoverageIndex(coverages)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index.row_counts.sum() == n_queries * rows_per_query
    assert held / (n_queries * rows_per_query) <= 100
