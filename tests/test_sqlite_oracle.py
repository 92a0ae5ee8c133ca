"""An oracle that is not our code: every workload query against sqlite3.

Each bundled dataset is loaded at scale 0.35 into an in-memory stdlib
``sqlite3`` database, one row per base row with its row id as
``_rid INTEGER PRIMARY KEY`` and ``INT_NULL`` / NaN stored as NULL.
Then, for every query of the workloads:

* SPJ — ``SELECT DISTINCT t1._rid, t2._rid, …`` under the query's own
  WHERE clause is the set of provenance rows ``provenance_ids`` returns,
  and each output row's projected values, read through
  ``ResultSet.to_rows()`` (the dictionary columns decode there), are
  sqlite's for the same base rows;
* aggregate — sqlite's ``GROUP BY`` rows are ``execute_aggregate``'s,
  floats compared with ``math.isclose`` and an aggregate over no rows
  (sqlite's NULL, the engine's NaN) read as "no value".

A metamorphic check of Eq. 1 follows: raising the frame size ``F``
above every ``|q(T)|`` changes neither the executed score
(``metric.query_score`` via ``metric.score``) nor a tracker's
``batch_score``.

Last, ``hypothesis`` draws queries the workloads do not write over a tiny
three-table database with NULLs in every nullable column: one table, or a
chain of two or three tables (parent's primary key to child's foreign key,
then child to item by item's foreign key or on a column unique on neither
side), conjunctions of comparisons, ``IN``, ``BETWEEN``, ``LIKE``, ``IS
[NOT] NULL`` and ``col = col``, some negated or OR-ed in pairs; SPJ
queries (provenance as above, ``DISTINCT`` projections over string
columns and over numeric ones, and ``ORDER BY … LIMIT`` up to the rows
tied at the cut) and ``GROUP BY`` on INT, FLOAT and STR columns with
COUNT(*), COUNT, SUM, AVG, MIN and MAX, over one table or a join. The
joins' unique-key index, the columns a join leaves behind, the grouping
on dictionary codes and a NULL key's one group are thus checked by
sqlite, as are the plan golden's hand-written queries
(``tests/test_plan_explain.py``) on its own databases.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sqlite3
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoverageTracker, metric
from repro.core.preprocess import build_coverage, provenance_ids
from repro.datasets import load_flights, load_imdb, load_mas
from repro.db import (
    INT_NULL,
    Column,
    ColumnType,
    Database,
    Table,
    TableSchema,
    execute,
    execute_aggregate,
    sql,
)
from tests.test_plan_explain import _HAND_QUERIES, _golden_queries

SCALE = 0.35
LOADERS = {"imdb": load_imdb, "mas": load_mas, "flights": load_flights}
_SQL_TYPES = {ColumnType.INT: "INTEGER", ColumnType.FLOAT: "REAL", ColumnType.STR: "TEXT"}


def _stored(value):
    """A column value as sqlite stores it: the engine's NULLs become NULL."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if value == INT_NULL and isinstance(value, int):
        return None
    return value


def _plain(value):
    """A numpy scalar as its Python value; the empty string as NULL."""
    value = value.item() if isinstance(value, np.generic) else value
    return None if value == "" else value


def _sqlite(db):
    """An in-memory sqlite copy of ``db``: ``_rid`` + every column, NULLs
    (``INT_NULL``, NaN, a nullable column's empty string) as NULL."""
    connection = sqlite3.connect(":memory:")
    connection.execute("PRAGMA case_sensitive_like = ON")
    for table_name in db.table_names:
        table = db.table(table_name)
        columns = table.schema.columns
        definitions = ", ".join(
            f"{column.name} {_SQL_TYPES[column.ctype]}" for column in columns
        )
        connection.execute(
            f"CREATE TABLE {table_name} (_rid INTEGER PRIMARY KEY, {definitions})"
        )
        values = [table.row_ids.tolist()]
        for column in columns:
            array = table.column(column.name)
            nulls = column.null_mask(array) if column.nullable else np.zeros(len(array), bool)
            values.append([
                None if null else _stored(value)
                for value, null in zip(array.tolist(), nulls.tolist())
            ])
        marks = ", ".join("?" * (len(columns) + 1))
        connection.executemany(
            f"INSERT INTO {table_name} VALUES ({marks})", zip(*values)
        )
    return connection


@functools.lru_cache(maxsize=None)
def _loaded(name):
    """(bundle, sqlite connection) of one dataset at :data:`SCALE`."""
    bundle = LOADERS[name](scale=SCALE)
    return bundle, _sqlite(bundle.db)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_spj_query_has_sqlites_provenance(name):
    bundle, connection = _loaded(name)
    assert len(bundle.workload) > 0
    for query in bundle.workload:
        tables, ids = provenance_ids(bundle.db, query)
        rid_query = dataclasses.replace(
            query, projection=tuple(f"{t}._rid" for t in tables), distinct=True
        )
        expected = sorted(connection.execute(rid_query.to_sql()).fetchall())
        assert sorted(map(tuple, ids.tolist())) == expected, query.to_sql()


def _as_stored(column, value):
    """One engine value as :func:`_sqlite` stores it."""
    value = value.item() if isinstance(value, np.generic) else value
    null = column.nullable and column.null_mask(np.asarray([value]))[0]
    return None if null else _stored(value)


def _values(db, result, refs):
    """One tuple per output row: the values of ``refs`` read through
    ``to_rows()``, as sqlite stores them."""
    columns = [db.table(ref.split(".")[0]).schema.column(ref.split(".")[1]) for ref in refs]
    return [
        tuple(_as_stored(column, row[ref]) for ref, column in zip(refs, columns))
        for row in result.to_rows()
    ]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_spj_query_has_sqlites_values(name):
    bundle, connection = _loaded(name)
    queries = bundle.workload.spj_only()
    assert len(queries) > 0
    for query in queries:
        result = execute(bundle.db, query)
        tables = sorted(result.row_ids)
        refs = list(query.projection)
        assert list(result.columns) == refs
        got = sorted(zip(result.provenance_keys(), _values(bundle.db, result, refs)))
        rids = ", ".join(f"{t}._rid" for t in tables)
        text = query.to_sql().replace("SELECT ", f"SELECT {rids}, ", 1)
        want = sorted(
            (tuple(row[: len(tables)]), tuple(row[len(tables):]))
            for row in connection.execute(text).fetchall()
        )
        assert got == want, query.to_sql()


def _same_value(got, want) -> bool:
    if want is None:
        return got is None or (isinstance(got, float) and math.isnan(got))
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def _assert_sqlites_groups(db, connection, query, text):
    """``execute_aggregate``'s groups are sqlite's answer to ``text``."""
    result = execute_aggregate(db, query)
    assert result.group_columns == tuple(query.group_by)
    got = sorted(
        (
            tuple(row[c] for c in result.group_columns),
            tuple(row[a] for a in result.agg_names),
        )
        for row in result.rows
    )
    n_groups = len(query.group_by)
    want = sorted(
        (tuple(row[:n_groups]), tuple(row[n_groups:]))
        for row in connection.execute(text).fetchall()
    )
    assert [key for key, _ in got] == [key for key, _ in want], text
    for (_, got_values), (_, want_values) in zip(got, want):
        assert all(map(_same_value, got_values, want_values)), text


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_aggregate_query_has_sqlites_groups(name):
    bundle, connection = _loaded(name)
    assert len(bundle.aggregate_workload) > 0
    for query in bundle.aggregate_workload:
        _assert_sqlites_groups(bundle.db, connection, query, query.to_sql())


def _limitless(text: str) -> str:
    head, _, tail = text.rpartition(" LIMIT ")
    return head if head and tail.strip().isdigit() else text


@pytest.mark.parametrize("name", sorted(_HAND_QUERIES))
def test_plan_golden_hand_queries_have_sqlites_answers(name):
    """The plan golden's hand-written queries, on its own databases: an
    aggregate's groups are sqlite's; an SPJ answer is sqlite's multiset of
    rows, in sqlite's order of the ORDER BY key where there is one, and
    under a LIMIT the first rows of sqlite's order (a LIMIT without ORDER
    BY: as many rows, each one of sqlite's unlimited answer)."""
    db = _golden_queries(name)[0]
    connection = _sqlite(db)
    for text in _HAND_QUERIES[name]:
        query = sql(text)
        if query.is_aggregate:
            _assert_sqlites_groups(db, connection, query, text)
            continue
        result = execute(db, query)
        refs = list(result.columns)
        text = text.replace("SELECT *", "SELECT " + ", ".join(refs), 1)
        got = _values(db, result, refs)
        want = connection.execute(text).fetchall()
        assert len(got) == len(want), text
        if query.limit is None:
            assert sorted(got, key=repr) == sorted(want, key=repr), text
        else:
            unlimited = Counter(connection.execute(_limitless(text)).fetchall())
            assert not Counter(got) - unlimited, text
        if query.order_by:
            key = refs.index(result.resolve(query.order_by))
            assert [row[key] for row in got] == [row[key] for row in want], text


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_eq1_does_not_change_for_f_above_every_result_size(name):
    bundle, _ = _loaded(name)
    db, workload = bundle.db, bundle.workload.spj_only()
    rng = np.random.default_rng(0)
    kept = {
        t: np.sort(rng.choice(len(db.table(t)), len(db.table(t)) // 2, replace=False))
        for t in db.table_names
    }
    subset = db.subset(kept)
    keys = [(t, int(rid)) for t, ids in kept.items() for rid in ids]
    largest = max(len(provenance_ids(db, q)[1]) for q in workload)

    def scores(frame_size):
        coverages = [
            build_coverage(db, q, w, frame_size, rng=np.random.default_rng(1))
            for q, w in zip(workload, workload.weights)
        ]
        tracker = CoverageTracker(coverages)
        tracker.add_keys(keys)
        return metric.score(db, subset, workload, frame_size), tracker.batch_score()

    at_largest = scores(largest)
    for frame_size in (largest + 1, 10 * largest):
        assert scores(frame_size) == at_largest


# ------------------------------------------------------------------ #
# generated queries over a tiny database with NULLs
# ------------------------------------------------------------------ #
WORDS = ("apple", "apricot", "banana", "berry", "cherry", "Apple", "a_b")

#: table -> ((column, type, nullable), ...); child.parent_id references
#: parent.id and item.child_id child.id (some ids past the last: misses).
TINY_SCHEMA = {
    "parent": (
        ("id", ColumnType.INT, False),
        ("name", ColumnType.STR, True),
        ("year", ColumnType.INT, True),
        ("score", ColumnType.FLOAT, True),
    ),
    "child": (
        ("id", ColumnType.INT, False),
        ("parent_id", ColumnType.INT, True),
        ("tag", ColumnType.STR, True),
        ("year", ColumnType.INT, True),
        ("value", ColumnType.FLOAT, True),
    ),
    "item": (
        ("id", ColumnType.INT, False),
        ("child_id", ColumnType.INT, True),
        ("label", ColumnType.STR, True),
        ("year", ColumnType.INT, True),
        ("weight", ColumnType.FLOAT, True),
    ),
}
TINY_ROWS = {"parent": 14, "child": 40, "item": 60}


def _tiny_column(name, ctype, nullable, n, rng):
    if name == "id":
        return list(range(n))
    if name.endswith("_id"):
        referenced = name[: -len("_id")]
        values = rng.integers(0, TINY_ROWS[referenced] + 2, n).tolist()
    elif ctype is ColumnType.STR:
        values = [WORDS[i] for i in rng.integers(0, len(WORDS), n)]
    elif ctype is ColumnType.INT:
        values = rng.integers(0, 6, n).tolist()
    else:
        values = np.round(rng.uniform(-2.0, 2.0, n), 1).tolist()
    null = {ColumnType.INT: INT_NULL, ColumnType.FLOAT: float("nan"), ColumnType.STR: ""}
    return [null[ctype] if nullable and rng.random() < 0.2 else v for v in values]


@functools.lru_cache(maxsize=None)
def _tiny():
    """(database, sqlite connection) of the three tiny tables."""
    rng = np.random.default_rng(0)
    tables = []
    for table_name, columns in TINY_SCHEMA.items():
        schema = TableSchema(
            table_name,
            [Column(name, ctype, nullable=nullable) for name, ctype, nullable in columns],
        )
        tables.append(Table(schema, {
            name: _tiny_column(name, ctype, nullable, TINY_ROWS[table_name], rng)
            for name, ctype, nullable in columns
        }))
    db = Database(tables, name="tiny")
    return db, _sqlite(db)


def _literal(ctype, draw):
    if ctype is ColumnType.STR:
        return "'" + draw(st.sampled_from(WORDS)) + "'"
    if ctype is ColumnType.INT:
        return str(draw(st.integers(-1, 7)))
    return str(draw(st.sampled_from([-2.5, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5])))


@st.composite
def _atom(draw, tables):
    table = draw(st.sampled_from(tables))
    name, ctype, _ = draw(st.sampled_from(TINY_SCHEMA[table]))
    ref = f"{table}.{name}"
    kinds = ["cmp", "in", "between", "null"]
    kinds += ["like"] if ctype is ColumnType.STR else []
    kinds += ["col"] if ctype is ColumnType.INT else []
    kind = draw(st.sampled_from(kinds))
    if kind == "cmp":
        ops = ["=", "!="] + (["<", "<=", ">", ">="] if ctype is not ColumnType.STR else [])
        return f"{ref} {draw(st.sampled_from(ops))} {_literal(ctype, draw)}"
    if kind == "in":
        values = [_literal(ctype, draw) for _ in range(draw(st.integers(1, 3)))]
        return f"{ref} IN ({', '.join(values)})"
    if kind == "between":
        order = (lambda text: text) if ctype is ColumnType.STR else float
        low, high = sorted((_literal(ctype, draw) for _ in range(2)), key=order)
        return f"{ref} BETWEEN {low} AND {high}"
    if kind == "null":
        return f"{ref} IS {draw(st.sampled_from(['NULL', 'NOT NULL']))}"
    if kind == "like":
        pattern = draw(st.sampled_from(["a%", "%y", "%an%", "_p%", "A%", "a\\_b", "%"]))
        return f"{ref} LIKE '{pattern}'"
    # col = col: another INT column of one of the query's tables.
    other_table = draw(st.sampled_from(tables))
    others = [n for n, t, _ in TINY_SCHEMA[other_table] if t is ColumnType.INT]
    return f"{ref} = {other_table}.{draw(st.sampled_from(others))}"


@st.composite
def _conjunct(draw, tables):
    """An atom, its negation, or two atoms OR-ed: NULL's three values."""
    first = draw(_atom(tables))
    form = draw(st.sampled_from(["atom", "atom", "not", "or"]))
    if form == "not":
        return f"NOT ({first})"
    if form == "or":
        return f"({first} OR {draw(_atom(tables))})"
    return first


#: How item joins child: by its foreign key, or on a column unique on
#: neither side (many rows of each match many of the other).
ITEM_JOINS = ("item.child_id = child.id", "item.year = child.year")


@st.composite
def _from_where(draw):
    """``(tables, "FROM … [WHERE …]")``: one table, or a chain of joins
    from parent's primary key through child to item."""
    tables = draw(st.sampled_from([
        ("parent",), ("child",), ("item",),
        ("parent", "child"), ("child", "item"), ("parent", "child", "item"),
    ]))
    atoms = draw(st.lists(_conjunct(tables), max_size=3))
    joins = []
    if "parent" in tables and "child" in tables:
        joins.append("child.parent_id = parent.id")
    if "item" in tables and "child" in tables:
        joins.append(draw(st.sampled_from(ITEM_JOINS)))
    atoms = draw(st.permutations(joins)) + atoms
    where = f" WHERE {' AND '.join(atoms)}" if atoms else ""
    return tables, f" FROM {', '.join(tables)}{where}"


def _columns(tables, ctypes):
    return [
        f"{t}.{name}" for t in tables for name, ctype, _ in TINY_SCHEMA[t]
        if ctype in ctypes
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_spj_queries_have_sqlites_provenance(data):
    db, connection = _tiny()
    tables, tail = data.draw(_from_where())
    query = sql("SELECT *" + tail)
    got_tables, ids = provenance_ids(db, query)
    assert got_tables == sorted(tables)
    rids = ", ".join(f"{t}._rid" for t in got_tables)
    expected = sorted(connection.execute(f"SELECT DISTINCT {rids}{tail}").fetchall())
    assert sorted(map(tuple, ids.tolist())) == expected, query.to_sql()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_distinct_string_projections_have_sqlites_values(data):
    """DISTINCT dedupes on dictionary codes; the values decode afterwards."""
    db, connection = _tiny()
    tables, tail = data.draw(_from_where())
    refs = data.draw(st.lists(
        st.sampled_from(_columns(tables, (ColumnType.STR,))),
        min_size=1, max_size=2, unique=True,
    ))
    refs += data.draw(st.lists(st.sampled_from(_columns(tables, (ColumnType.INT,))), max_size=1))
    text = f"SELECT DISTINCT {', '.join(refs)}{tail}"
    got = _values(db, execute(db, sql(text)), refs)
    assert len(got) == len(set(got)), text
    want = connection.execute(text).fetchall()
    assert sorted(got, key=repr) == sorted(want, key=repr), text


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_distinct_numeric_projections_have_sqlites_values(data):
    """DISTINCT over INT and FLOAT columns: every NULL is one value."""
    db, connection = _tiny()
    tables, tail = data.draw(_from_where())
    refs = data.draw(st.lists(
        st.sampled_from(_columns(tables, (ColumnType.INT, ColumnType.FLOAT))),
        min_size=1, max_size=2, unique=True,
    ))
    text = f"SELECT DISTINCT {', '.join(refs)}{tail}"
    got = _values(db, execute(db, sql(text)), refs)
    assert len(got) == len(set(got)), text
    want = connection.execute(text).fetchall()
    assert sorted(got, key=_unsigned_repr) == sorted(want, key=_unsigned_repr), text


def _unsigned_repr(row: tuple) -> str:
    """A row's sort key: -0.0 and 0.0 are one value, and either may stand
    for it in a DISTINCT answer."""
    return repr(tuple(v + 0.0 if isinstance(v, float) else v for v in row))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_order_by_limit_agrees_up_to_ties_at_the_cut(data):
    db, connection = _tiny()
    tables, tail = data.draw(_from_where())
    key = data.draw(st.sampled_from(
        _columns(tables, (ColumnType.INT, ColumnType.FLOAT, ColumnType.STR))
    ))
    direction = data.draw(st.sampled_from(["", " DESC"]))
    limit = data.draw(st.integers(1, 12))
    query = sql(f"SELECT *{tail} ORDER BY {key}{direction} LIMIT {limit}")
    result = execute(db, query)
    column = db.table(key.split(".")[0]).schema.column(key.split(".")[1])
    got = [
        (None if null else _stored(value), tuple(int(result.row_ids[t][i]) for t in tables))
        for i, (value, null) in enumerate(zip(
            result.column(key).tolist(), column.null_mask(result.column(key)).tolist()
        ))
    ]
    rids = ", ".join(f"{t}._rid" for t in tables)
    everything = [
        (row[0], tuple(row[1:]))
        for row in connection.execute(f"SELECT {key}, {rids}{tail}").fetchall()
    ]
    # sqlite's order: NULL below every value; DESC reverses it.
    everything.sort(key=lambda row: (row[0] is not None, row[0] or 0), reverse=bool(direction))
    want = everything[:limit]
    assert [value for value, _ in got] == [value for value, _ in want], query.to_sql()
    if want:
        cut = want[-1][0]
        assert {rows for value, rows in got if value != cut} == {
            rows for value, rows in want if value != cut
        }, query.to_sql()
        tied = {rows for value, rows in everything if value == cut}
        assert {rows for value, rows in got if value == cut} <= tied, query.to_sql()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_group_by_queries_have_sqlites_groups(data):
    db, connection = _tiny()
    tables, tail = data.draw(_from_where())
    group = data.draw(st.lists(
        st.sampled_from(_columns(tables, (ColumnType.INT, ColumnType.FLOAT, ColumnType.STR))),
        min_size=1, max_size=2, unique=True,
    ))
    measured = data.draw(st.sampled_from(
        _columns(tables, (ColumnType.INT, ColumnType.FLOAT))
    ))
    counted = data.draw(st.sampled_from(
        _columns(tables, (ColumnType.INT, ColumnType.FLOAT, ColumnType.STR))
    ))
    aggregates = ["COUNT(*)", f"COUNT({counted})"] + [
        f"{function}({measured})" for function in ("SUM", "AVG", "MIN", "MAX")
    ]
    keys = ", ".join(group)
    text = f"SELECT {keys}, {', '.join(aggregates)}{tail} GROUP BY {keys}"
    result = execute_aggregate(db, sql(text))
    got = sorted((
        (
            tuple(_stored(_plain(row[c])) for c in result.group_columns),
            tuple(row[a] for a in result.agg_names),
        )
        for row in result.rows
    ), key=lambda group_row: _unsigned_repr(group_row[0]))
    want = sorted(
        (
            (tuple(row[: len(group)]), tuple(row[len(group):]))
            for row in connection.execute(text).fetchall()
        ),
        key=lambda group_row: _unsigned_repr(group_row[0]),
    )
    assert [k for k, _ in got] == [k for k, _ in want], text
    for (_, got_values), (_, want_values) in zip(got, want):
        assert all(map(_same_value, got_values, want_values)), text
