"""Property-based SQL round-trip: ``sql(q.to_sql())`` preserves semantics.

Model persistence depends on this (queries are stored as SQL text), so the
round-trip must hold for everything the workload generators can emit.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_imdb
from repro.db import (
    Between,
    Column,
    ColumnType,
    Comparison,
    Database,
    InSet,
    Like,
    Not,
    Or,
    SPJQuery,
    Table,
    TableSchema,
    conjoin,
    execute,
    sql,
)


def _db() -> Database:
    schema = TableSchema(
        "t",
        [Column("id", ColumnType.INT), Column("x", ColumnType.INT),
         Column("y", ColumnType.FLOAT), Column("g", ColumnType.STR)],
    )
    rng = np.random.default_rng(0)
    n = 60
    return Database([
        Table(schema, {
            "id": np.arange(n),
            "x": rng.integers(-10, 10, n),
            "y": np.round(rng.normal(0, 3, n), 2),
            "g": [str(v) for v in rng.choice(["aa", "bb", "cc", "d'd"], n)],
        })
    ])


_DB = _db()


def _atoms():
    numeric_comparison = st.builds(
        Comparison,
        st.sampled_from(["t.x", "t.id"]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(-12, 12),
    )
    float_comparison = st.builds(
        Comparison,
        st.just("t.y"),
        st.sampled_from(["<", ">"]),
        st.floats(-5, 5).map(lambda v: round(v, 2)),
    )
    string_equality = st.builds(
        Comparison, st.just("t.g"), st.just("="),
        st.sampled_from(["aa", "bb", "d'd"]),
    )
    between = st.builds(
        lambda lo, hi: Between("t.x", min(lo, hi), max(lo, hi)),
        st.integers(-12, 12), st.integers(-12, 12),
    )
    inset = st.builds(
        lambda values: InSet("t.g", values),
        st.sets(st.sampled_from(["aa", "bb", "cc", "d'd"]), min_size=1, max_size=3),
    )
    like = st.builds(Like, st.just("t.g"), st.sampled_from(["a%", "%b", "_c", "d%"]))
    return st.one_of(
        numeric_comparison, float_comparison, string_equality, between, inset, like
    )


def _predicates():
    atom = _atoms()
    negated = atom.map(Not)
    disjunction = st.lists(atom, min_size=2, max_size=3).map(Or)
    part = st.one_of(atom, negated, disjunction)
    return st.lists(part, min_size=0, max_size=3).map(conjoin)


@given(predicate=_predicates())
@settings(max_examples=120, deadline=None)
def test_predicate_roundtrip_same_results(predicate):
    query = SPJQuery(tables=("t",), predicate=predicate)
    reparsed = sql(query.to_sql())
    original = execute(_DB, query).provenance_keys()
    round_tripped = execute(_DB, reparsed).provenance_keys()
    assert original == round_tripped


@given(
    predicate=_predicates(),
    limit=st.one_of(st.none(), st.integers(0, 20)),
    descending=st.booleans(),
    distinct=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_modifier_roundtrip(predicate, limit, descending, distinct):
    query = SPJQuery(
        tables=("t",),
        predicate=predicate,
        projection=("t.g", "t.x"),
        order_by="t.x",
        descending=descending,
        limit=limit,
        distinct=distinct,
    )
    reparsed = sql(query.to_sql())
    assert reparsed.limit == limit
    assert reparsed.descending == descending
    assert reparsed.distinct == distinct
    original = execute(_DB, query).tuple_keys()
    round_tripped = execute(_DB, reparsed).tuple_keys()
    assert original == round_tripped


def test_join_query_roundtrip(mini_db):
    query = sql(
        "SELECT movies.title, cast_info.actor FROM movies, cast_info "
        "WHERE movies.id = cast_info.movie_id AND movies.year > 2000"
    )
    reparsed = sql(query.to_sql())
    assert reparsed.joins == query.joins
    a = sorted(execute(mini_db, query).tuple_keys())
    b = sorted(execute(mini_db, reparsed).tuple_keys())
    assert a == b


def test_aggregate_roundtrip(mini_db):
    from repro.db import execute_aggregate

    query = sql(
        "SELECT genre, COUNT(*), AVG(rating) AS ar FROM movies "
        "WHERE year > 2000 GROUP BY genre"
    )
    reparsed = sql(query.to_sql())
    assert reparsed.is_aggregate
    assert execute_aggregate(mini_db, query).as_mapping() == \
        execute_aggregate(mini_db, reparsed).as_mapping()


# ------------------------------------------------------------------ #
# `col = col` atoms that are not lifted to a join compare the columns
# ------------------------------------------------------------------ #
@pytest.mark.parametrize(
    "text, n_rows",
    [
        ("SELECT title.id FROM title WHERE title.kind = title.kind", 900),
        ("SELECT title.id FROM title WHERE title.votes = title.id", 0),
        (
            "SELECT title.id FROM title, movie_companies"
            " WHERE title.id = movie_companies.movie_id"
            " OR title.votes > 100000000",
            1350,
        ),
    ],
)
def test_column_equality_atom_compares_columns(text, n_rows):
    db = load_imdb(scale=0.3).db
    query = sql(text)
    assert not query.joins
    assert "'" not in query.to_sql()
    assert sorted(query.predicate.columns()) == sorted(
        set(re.findall(r"[a-z_]+\.[a-z_]+", text.split("WHERE")[1]))
    )
    assert query.predicate.tokens()
    assert len(execute(db, query)) == n_rows
    reparsed = sql(query.to_sql())
    assert reparsed == query
    assert len(execute(db, reparsed)) == n_rows
