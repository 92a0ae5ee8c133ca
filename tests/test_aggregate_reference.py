"""Differential testing of hash aggregation against naive references.

``reference_aggregate`` is the executor's per-group aggregation as it was
before it reduced each column once for all groups: every group's
positions, then each aggregate of each group by its own gather, float64
cast and numpy reduction. The segmented ``executor._aggregate`` must
give every value with the same ``repr``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import (
    INT_NULL,
    AggFunc,
    AggregateQuery,
    Column,
    ColumnType,
    Comparison,
    Database,
    SPJQuery,
    Table,
    TableSchema,
    TrueExpr,
    execute_aggregate,
    sql,
)
from repro.db.executor import AggregateResult, ResultSet, _aggregate, _null_rows
from repro.db.query import AggregateSpec
from tests.test_kernels import reference_code_group_positions, reference_group_by_positions


def reference_aggregate(flat, query, group_keys, value_keys) -> AggregateResult:
    """``executor._aggregate`` as it was: one aggregate of one group at a
    time (grouping by the per-row references, a NaN key one value)."""
    agg_names = tuple(spec.output_name() for spec in query.aggregates)
    result = AggregateResult(group_columns=query.group_by, agg_names=agg_names)
    dictionary = flat.encodings.get(group_keys[0]) if len(group_keys) == 1 else None
    if dictionary is not None:
        codes, positions = reference_code_group_positions(
            flat.columns[group_keys[0]], len(dictionary)
        )
        groups = [((dictionary[code],), idx) for code, idx in zip(codes, positions)]
    elif group_keys:
        key_arrays = [flat.columns[key] for key in group_keys]
        dictionaries = [flat.encodings.get(key) for key in group_keys]
        groups = []
        for positions in reference_group_by_positions(key_arrays):
            first = positions[0]
            rep = tuple(
                dic[arr[first]] if dic is not None else arr[first]
                for arr, dic in zip(key_arrays, dictionaries)
            )
            groups.append((rep, positions))
    else:
        groups = [((), np.arange(len(flat), dtype=np.int64))]

    nulls = {key: _null_rows(flat, key) for key in value_keys if key}
    for key, idx in sorted(groups, key=lambda kv: str(kv[0])):
        row: dict[str, object] = {
            col: key[j] for j, col in enumerate(query.group_by)
        }
        for spec, name, value_key in zip(query.aggregates, agg_names, value_keys):
            row[name] = _reference_value(
                flat, spec.func, value_key, idx, nulls.get(value_key)
            )
        result.rows.append(row)
    return result


def _reference_value(flat, func, value_key, idx, nulls) -> float:
    if value_key is None:
        return float(len(idx))
    if nulls is not None:  # an aggregate skips NULLs
        idx = idx[~nulls[idx]]
    if func is AggFunc.COUNT:
        return float(len(idx))
    values = flat.columns[value_key][idx]
    if len(values) == 0:
        return float("nan")
    values = np.asarray(values, dtype=np.float64)
    return float({
        AggFunc.SUM: np.sum, AggFunc.AVG: np.mean, AggFunc.MIN: np.min, AggFunc.MAX: np.max,
    }[func](values))


# ------------------------------------------------------------------ #
# segmented vs per-group, on drawn intermediate results
# ------------------------------------------------------------------ #
#: A dictionary of which the drawn codes use a prefix only (unused codes).
_DICTIONARY = np.asarray(["", "ant", "bee", "cat", "dog", "eel"])
#: Magnitudes far apart, so that the order of a float64 sum shows.
_FLOATS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 0.1, 1e-300, -2.5, 1e16, -3e15, float("nan")]),
)
_INTS = st.one_of(
    st.integers(-1000, 1000), st.just(INT_NULL), st.sampled_from([2**53, 2**62, -(2**61)])
)


@st.composite
def _intermediates(draw):
    """``(flat, query, group_keys, value_keys)``: a joined result of ``n``
    rows — a dictionary key ``k.d`` using a prefix of its codes, an INT
    key ``k.i``, INT / BOOL / FLOAT values with their NULLs and a
    dictionary value column — and an aggregate over it."""
    n = draw(st.integers(0, 60))
    used = draw(st.integers(1, len(_DICTIONARY)))

    def column(values):
        return np.asarray(draw(st.lists(values, min_size=n, max_size=n)))

    columns = {
        "k.d": column(st.integers(0, used - 1)).astype(np.int32),
        "k.i": column(st.sampled_from([3, 1, INT_NULL])).astype(np.int64),
        "v.int": column(_INTS).astype(np.int64),
        "v.bool": column(st.booleans()).astype(bool),
        "v.float": column(_FLOATS).astype(np.float64),
        "v.str": column(st.integers(0, 2)).astype(np.int32),
    }
    if draw(st.booleans()):  # an all-NULL group: every float of key 1 NaN
        columns["v.float"][columns["k.i"] == 1] = np.nan
    flat = ResultSet(
        columns=columns, row_ids={}, n_rows=n,
        encodings={"k.d": _DICTIONARY, "v.str": _DICTIONARY[:3]},
    )
    group_keys = draw(st.sampled_from([(), ("k.d",), ("k.i",), ("k.d", "k.i"), ("v.float", "k.d")]))
    measured = draw(st.sampled_from(["v.int", "v.bool", "v.float"]))
    specs = [AggregateSpec(AggFunc.COUNT), AggregateSpec(AggFunc.COUNT, "v.str")]
    specs += [AggregateSpec(func, measured) for func in AggFunc]
    query = AggregateQuery(tables=("k", "v"), aggregates=tuple(specs), group_by=group_keys)
    value_keys = [spec.column for spec in specs]
    return flat, query, list(group_keys), value_keys


def _reprs(result: AggregateResult) -> list:
    return [[(name, repr(value)) for name, value in row.items()] for row in result.rows]


def _two_groups(values) -> tuple:
    """SUM and AVG of ``values`` in two groups: the first nine rows, then
    the rest."""
    n = len(values)
    flat = ResultSet(
        columns={"k.d": np.asarray([1] * 9 + [2] * (n - 9), dtype=np.int32),
                 "v": np.asarray(values)},
        row_ids={}, n_rows=n, encodings={"k.d": _DICTIONARY},
    )
    query = AggregateQuery(tables=("k", "v"), group_by=("k.d",), aggregates=(
        AggregateSpec(AggFunc.SUM, "v"), AggregateSpec(AggFunc.AVG, "v"),
    ))
    return flat, query, ["k.d"], ["v", "v"]


@given(case=_intermediates())
# A group whose INT sum passes 2**53, and FLOAT groups: numpy's pairwise
# sum of nine values adds in another order than one pass over the rows,
# and rounds differently (0.9 against 0.8999999999999999 for 0.1s).
@example(case=_two_groups([2**53] + [1] * 8 + [5, 7]))
@example(case=_two_groups([0.1] * 9 + [0.5, 0.25]))
@example(case=_two_groups([1e16] + [1.0] * 8 + [0.5, 0.25]))
@settings(max_examples=300, deadline=None)
def test_segmented_aggregate_matches_per_group_reference(case):
    flat, query, group_keys, value_keys = case
    got = _aggregate(flat, query, group_keys, value_keys)
    want = reference_aggregate(flat, query, group_keys, value_keys)
    assert got.group_columns == want.group_columns and got.agg_names == want.agg_names
    assert _reprs(got) == _reprs(want)
    if not group_keys:  # one row even over no input row
        assert len(got) == 1


def _build(rows) -> Database:
    schema = TableSchema(
        "f",
        [Column("id", ColumnType.INT), Column("g", ColumnType.STR),
         Column("v", ColumnType.INT)],
    )
    return Database([
        Table(schema, {
            "id": [r[0] for r in rows],
            "g": [r[1] for r in rows],
            "v": [r[2] for r in rows],
        })
    ])


def _reference(rows, threshold):
    groups: dict[str, list[int]] = {}
    for _id, g, v in rows:
        if v > threshold:
            groups.setdefault(g, []).append(v)
    return {
        (g,): {
            "count(*)": float(len(vs)),
            "sum(v)": float(sum(vs)),
            "avg(v)": float(np.mean(vs)),
            "min(v)": float(min(vs)),
            "max(v)": float(max(vs)),
        }
        for g, vs in groups.items()
    }


_rows = st.lists(
    st.tuples(st.integers(0, 50), st.sampled_from("pqr"), st.integers(-20, 20)),
    min_size=1, max_size=40,
)


@given(rows=_rows, threshold=st.integers(-25, 25))
@settings(max_examples=80, deadline=None)
def test_grouped_aggregates_match_reference(rows, threshold):
    db = _build(rows)
    query = sql(
        f"SELECT g, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) "
        f"FROM f WHERE v > {threshold} GROUP BY g"
    )
    got = execute_aggregate(db, query).as_mapping()
    expected = _reference(rows, threshold)
    assert set(got) == set(expected)
    for key, expected_row in expected.items():
        for name, value in expected_row.items():
            assert got[key][name] == value


@given(rows=_rows)
@settings(max_examples=40, deadline=None)
def test_global_count_matches_len(rows):
    db = _build(rows)
    query = sql("SELECT COUNT(*) FROM f")
    assert execute_aggregate(db, query).rows[0]["count(*)"] == float(len(rows))


@given(rows=_rows, threshold=st.integers(-25, 25))
@settings(max_examples=40, deadline=None)
def test_count_consistent_with_spj(rows, threshold):
    """COUNT(*) under a predicate == row count of the SPJ core."""
    from repro.db import execute

    db = _build(rows)
    predicate = Comparison("f.v", ">", threshold)
    count = execute_aggregate(
        db, sql(f"SELECT COUNT(*) FROM f WHERE f.v > {threshold}")
    ).rows[0]["count(*)"]
    spj = SPJQuery(tables=("f",), predicate=predicate)
    assert count == float(len(execute(db, spj)))
