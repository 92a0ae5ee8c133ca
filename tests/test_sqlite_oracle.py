"""An oracle that is not our code: every workload query against sqlite3.

Each bundled dataset is loaded at scale 0.35 into an in-memory stdlib
``sqlite3`` database, one row per base row with its row id as
``_rid INTEGER PRIMARY KEY`` and ``INT_NULL`` / NaN stored as NULL.
Then, for every query of the workloads:

* SPJ — ``SELECT DISTINCT t1._rid, t2._rid, …`` under the query's own
  WHERE clause is the set of provenance rows ``provenance_ids`` returns;
* aggregate — sqlite's ``GROUP BY`` rows are ``execute_aggregate``'s,
  floats compared with ``math.isclose`` and an aggregate over no rows
  (sqlite's NULL, the engine's NaN) read as "no value".

The last test is a metamorphic check of Eq. 1: raising the frame size
``F`` above every ``|q(T)|`` changes neither the executed score
(``metric.query_score`` via ``metric.score``) nor a tracker's
``batch_score``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sqlite3

import numpy as np
import pytest

from repro.core import CoverageTracker, metric
from repro.core.preprocess import build_coverage, provenance_ids
from repro.datasets import load_flights, load_imdb, load_mas
from repro.db import INT_NULL, ColumnType, execute_aggregate

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


@functools.lru_cache(maxsize=None)
def _loaded(name):
    """(bundle, sqlite connection) of one dataset at :data:`SCALE`."""
    bundle = LOADERS[name](scale=SCALE)
    connection = sqlite3.connect(":memory:")
    connection.execute("PRAGMA case_sensitive_like = ON")
    for table_name in bundle.db.table_names:
        table = bundle.db.table(table_name)
        columns = table.schema.columns
        definitions = ", ".join(
            f"{column.name} {_SQL_TYPES[column.ctype]}" for column in columns
        )
        connection.execute(
            f"CREATE TABLE {table_name} (_rid INTEGER PRIMARY KEY, {definitions})"
        )
        values = [table.row_ids.tolist()] + [
            table.column(column.name).tolist() for column in columns
        ]
        marks = ", ".join("?" * (len(columns) + 1))
        connection.executemany(
            f"INSERT INTO {table_name} VALUES ({marks})",
            ([_stored(v) for v in row] for row in zip(*values)),
        )
    return bundle, connection


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


def _same_value(got, want) -> bool:
    if want is None:
        return got is None or (isinstance(got, float) and math.isnan(got))
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-9)
    return got == want


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_aggregate_query_has_sqlites_groups(name):
    bundle, connection = _loaded(name)
    assert len(bundle.aggregate_workload) > 0
    for query in bundle.aggregate_workload:
        result = execute_aggregate(bundle.db, query)
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
            for row in connection.execute(query.to_sql()).fetchall()
        )
        assert [key for key, _ in got] == [key for key, _ in want], query.to_sql()
        for (_, got_values), (_, want_values) in zip(got, want):
            assert all(map(_same_value, got_values, want_values)), query.to_sql()


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
