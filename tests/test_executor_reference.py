"""Differential testing: the executor vs a naive reference evaluator.

A nested-loop, row-at-a-time evaluator is trivially correct; hypothesis
generates small random databases and SPJ queries, and the vectorized
executor must produce exactly the same multiset of result rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    InSet,
    JoinCondition,
    SPJQuery,
    Table,
    TableSchema,
    conjoin,
    execute,
)

_GENRES = ["a", "b", "c"]


def _build_db(left_rows, right_rows) -> Database:
    left_schema = TableSchema(
        "l",
        [Column("id", ColumnType.INT), Column("x", ColumnType.INT),
         Column("g", ColumnType.STR)],
    )
    right_schema = TableSchema(
        "r",
        [Column("id", ColumnType.INT), Column("l_id", ColumnType.INT),
         Column("y", ColumnType.INT)],
    )
    left = Table(left_schema, {
        "id": [row[0] for row in left_rows],
        "x": [row[1] for row in left_rows],
        "g": [row[2] for row in left_rows],
    })
    right = Table(right_schema, {
        "id": [row[0] for row in right_rows],
        "l_id": [row[1] for row in right_rows],
        "y": [row[2] for row in right_rows],
    })
    return Database([left, right])


def _reference_single(left_rows, predicate) -> list[tuple]:
    out = []
    for lid, x, g in left_rows:
        ctx = {"l.id": np.asarray([lid]), "l.x": np.asarray([x]),
               "l.g": np.asarray([g], dtype=object)}
        if predicate.evaluate(ctx)[0]:
            out.append((lid, x, g))
    return sorted(out)


def _reference_join(left_rows, right_rows, predicate) -> list[tuple]:
    out = []
    for lid, x, g in left_rows:
        for rid, l_id, y in right_rows:
            if l_id != lid:
                continue
            ctx = {
                "l.id": np.asarray([lid]), "l.x": np.asarray([x]),
                "l.g": np.asarray([g], dtype=object),
                "r.id": np.asarray([rid]), "r.l_id": np.asarray([l_id]),
                "r.y": np.asarray([y]),
            }
            if predicate.evaluate(ctx)[0]:
                out.append((lid, x, g, rid, l_id, y))
    return sorted(out)


_left_rows = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-5, 5), st.sampled_from(_GENRES)),
    min_size=1, max_size=12,
)
_right_rows = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-5, 5)),
    min_size=1, max_size=12,
)


def _predicates():
    comparison = st.builds(
        Comparison,
        st.sampled_from(["l.x", "l.id"]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(-5, 5),
    )
    between = st.builds(
        lambda lo, hi: Between("l.x", min(lo, hi), max(lo, hi)),
        st.integers(-5, 5), st.integers(-5, 5),
    )
    inset = st.builds(
        lambda vs: InSet("l.g", vs),
        st.sets(st.sampled_from(_GENRES), min_size=1, max_size=3),
    )
    atom = st.one_of(comparison, between, inset)
    return st.lists(atom, min_size=0, max_size=3).map(conjoin)


@given(rows=_left_rows, predicate=_predicates())
@settings(max_examples=80, deadline=None)
def test_single_table_matches_reference(rows, predicate):
    db = _build_db(rows, [(0, 0, 0)])
    query = SPJQuery(tables=("l",), predicate=predicate)
    result = execute(db, query)
    got = sorted(
        zip(
            (int(v) for v in result.column("l.id")),
            (int(v) for v in result.column("l.x")),
            (str(v) for v in result.column("l.g")),
        )
    )
    assert got == _reference_single(rows, predicate)


@given(left=_left_rows, right=_right_rows, predicate=_predicates())
@settings(max_examples=60, deadline=None)
def test_join_matches_reference(left, right, predicate):
    db = _build_db(left, right)
    query = SPJQuery(
        tables=("l", "r"),
        joins=(JoinCondition("l.id", "r.l_id"),),
        predicate=predicate,
    )
    result = execute(db, query)
    got = sorted(
        zip(
            (int(v) for v in result.column("l.id")),
            (int(v) for v in result.column("l.x")),
            (str(v) for v in result.column("l.g")),
            (int(v) for v in result.column("r.id")),
            (int(v) for v in result.column("r.l_id")),
            (int(v) for v in result.column("r.y")),
        )
    )
    assert got == _reference_join(left, right, predicate)


@given(left=_left_rows, right=_right_rows, predicate=_predicates())
@settings(max_examples=40, deadline=None)
def test_subset_monotonicity_random(left, right, predicate):
    """q(S) ⊆ q(T) for random sub-databases (SPJ monotonicity)."""
    db = _build_db(left, right)
    query = SPJQuery(
        tables=("l", "r"),
        joins=(JoinCondition("l.id", "r.l_id"),),
        predicate=predicate,
    )
    full = set(execute(db, query).provenance_keys())
    rng = np.random.default_rng(0)
    keep_l = [i for i in range(len(left)) if rng.random() < 0.6]
    keep_r = [i for i in range(len(right)) if rng.random() < 0.6]
    sub = db.subset({"l": keep_l, "r": keep_r})
    partial = set(execute(sub, query).provenance_keys())
    assert partial <= full


# ------------------------------------------------------------------ #
# byte-identical: vectorized kernels vs per-row reference kernels
# ------------------------------------------------------------------ #

from contextlib import contextmanager  # noqa: E402

from repro.db import QueryError, execute_aggregate, sql  # noqa: E402
from repro.db import executor, kernels  # noqa: E402
from tests.test_aggregate_reference import reference_aggregate  # noqa: E402
from tests.test_kernels import (  # noqa: E402
    reference_distinct_positions,
    reference_join_positions,
)


@contextmanager
def reference_kernels():
    """Route the executor through the per-row kernels and the per-group
    aggregation, which it resolves at call time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "join_positions", reference_join_positions)
        patch.setattr(kernels, "distinct_positions", reference_distinct_positions)
        patch.setattr(executor, "_aggregate", reference_aggregate)
        yield


def _assert_byte_identical(db, query):
    """The vectorized executor must equal the per-row one exactly:
    same columns, same row ids, same values, same row *order*."""
    with reference_kernels():
        expected = execute(db, query)
    got = execute(db, query)
    assert got.n_rows == expected.n_rows
    assert set(got.columns) == set(expected.columns)
    for ref in expected.columns:
        np.testing.assert_array_equal(got.column(ref), expected.column(ref))
    assert set(got.row_ids) == set(expected.row_ids)
    for table in expected.row_ids:
        np.testing.assert_array_equal(got.row_ids[table], expected.row_ids[table])


@given(left=_left_rows, right=_right_rows, predicate=_predicates(),
       distinct=st.booleans())
@settings(max_examples=80, deadline=None)
def test_vectorized_join_byte_identical(left, right, predicate, distinct):
    db = _build_db(left, right)
    query = SPJQuery(
        tables=("l", "r"),
        joins=(JoinCondition("l.id", "r.l_id"),),
        predicate=predicate,
        distinct=distinct,
    )
    _assert_byte_identical(db, query)


@given(rows=_left_rows, predicate=_predicates())
@settings(max_examples=60, deadline=None)
def test_vectorized_distinct_byte_identical(rows, predicate):
    db = _build_db(rows, [(0, 0, 0)])
    query = SPJQuery(
        tables=("l",),
        projection=("l.g",),
        predicate=predicate,
        distinct=True,
    )
    _assert_byte_identical(db, query)


@given(left=_left_rows, right=_right_rows)
@settings(max_examples=40, deadline=None)
def test_vectorized_aggregate_identical(left, right):
    db = _build_db(left, right)
    query = sql(
        "SELECT l.g, COUNT(*), SUM(r.y) FROM l, r "
        "WHERE l.id = r.l_id GROUP BY l.g"
    )
    with reference_kernels():
        expected = execute_aggregate(db, query)
    got = execute_aggregate(db, query)
    assert got.rows == expected.rows


def test_fully_hit_probe_side_is_not_copied():
    """A unique-key join that every probe row hits keeps the probe side's
    columns as they are (their arrays, not a gather by the identity); the
    build side is gathered."""
    db = _build_db(
        [(i, 10 * i, "ab"[i % 2]) for i in range(5)],
        [(100 + j, j % 5, j * j) for j in range(12)],
    )
    query = SPJQuery(
        tables=("l", "r"), joins=(JoinCondition("l.id", "r.l_id"),),
        projection=("r.y", "l.x"),
    )
    result = execute(db, query)
    assert np.shares_memory(result.columns["r.y"], db.table("r").raw_column("y"))
    assert not np.shares_memory(result.columns["l.x"], db.table("l").raw_column("x"))
    np.testing.assert_array_equal(result.column("r.y"), [j * j for j in range(12)])
    np.testing.assert_array_equal(result.column("l.x"), [10 * (j % 5) for j in range(12)])
    # One probe row misses: the probe side is gathered like the build side.
    db = _build_db(
        [(i, 10 * i, "a") for i in range(5)],
        [(100 + j, 9 if j == 3 else j % 5, j) for j in range(8)],
    )
    result = execute(db, query)
    assert not np.shares_memory(result.columns["r.y"], db.table("r").raw_column("y"))
    np.testing.assert_array_equal(result.column("r.y"), [0, 1, 2, 4, 5, 6, 7])


def test_ambiguous_bare_column_raises():
    db = _build_db([(1, 2, "a")], [(3, 1, 4)])
    query = SPJQuery(tables=("l", "r"), joins=(JoinCondition("l.id", "r.l_id"),))
    result = execute(db, query)
    # both l.id and r.id match the bare name "id"
    with pytest.raises(QueryError, match="ambiguous"):
        result.column("id")
    np.testing.assert_array_equal(result.column("y"), [4])
