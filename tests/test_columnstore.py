"""Differential tests for the dictionary-encoded column store.

Every test here compares the encoded execution path — dictionary codes
and code-space predicate rewrites — against plain evaluation over fully
decoded arrays. The two must agree exactly: same rows, same order, same
values. INT and FLOAT columns are stored plain.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import (
    INT_NULL,
    Column,
    ColumnType,
    Database,
    DictEncoded,
    SchemaError,
    Table,
    TableSchema,
    execute,
    sql,
)
from repro.db import expressions as E

CITIES = np.asarray(["", "amber", "blue", "cyan", "drab", "ecru"], dtype=object)

#: WHERE-clause battery: every rewritable atom form, plus combinations.
PREDICATES = [
    "city = 'blue'",
    "city = 'nosuch'",
    "city != 'cyan'",
    "city < 'cyan'",
    "city <= 'blue'",
    "city > 'blue'",
    "city >= 'drab'",
    "city BETWEEN 'amber' AND 'cyan'",
    "city IN ('amber', 'ecru', 'nosuch')",
    "city LIKE 'c%'",
    "city IS NULL",
    "city IS NOT NULL",
    "score > 10",
    "score BETWEEN -20 AND 20",
    "score IS NULL",
    "temp IS NOT NULL",
    "city = 'blue' AND score > 0",
    "city < 'cyan' OR score IS NULL",
    "NOT city = 'blue'",
]


def make_table(seed: int = 0, n: int = 500, name: str = "t") -> Table:
    rng = np.random.default_rng(seed)
    schema = TableSchema(
        name,
        (
            Column("city", ColumnType.STR, nullable=True),
            Column("score", ColumnType.INT, nullable=True),
            Column("temp", ColumnType.FLOAT, nullable=True),
        ),
    )
    city = CITIES[rng.integers(0, len(CITIES), size=n)]
    score = rng.integers(-50, 50, size=n)
    score[rng.random(n) < 0.1] = INT_NULL
    temp = rng.normal(size=n)
    temp[rng.random(n) < 0.1] = np.nan
    return Table(schema, {"city": city, "score": score, "temp": temp})


def plain_context(table: Table) -> dict[str, np.ndarray]:
    return {
        f"{table.name}.{name}": table.column(name)
        for name in table.schema.column_names
    }


def _comparable(value):
    """NaN-safe cell: tuples containing nan must still compare equal."""
    if isinstance(value, float) and np.isnan(value):
        return "NaN"
    return value


def expected_rows(table: Table, predicate: E.Expression) -> list[tuple]:
    mask = predicate.evaluate(plain_context(table))
    decoded = [table.column(name) for name in table.schema.column_names]
    return [
        tuple(_comparable(col[i]) for col in decoded)
        for i in np.flatnonzero(mask)
    ]


def row_tuples(result, refs) -> list[tuple]:
    """ResultSet rows as tuples in *refs* order (to_rows yields dicts)."""
    return [
        tuple(_comparable(row[ref]) for ref in refs) for row in result.to_rows()
    ]


# ------------------------------------------------------------------ #
# storage round trips
# ------------------------------------------------------------------ #
def test_dict_encoding_round_trip():
    values = np.asarray(["b", "", "a", "b", "c", "a"], dtype=object)
    enc = DictEncoded.from_values(values)
    assert enc.codes.dtype == np.int32
    assert list(enc.dictionary) == sorted(set(values))  # sorted dictionary
    np.testing.assert_array_equal(enc.decode(), values)
    taken = enc.take(np.asarray([4, 0, 1]))
    np.testing.assert_array_equal(taken.decode(), values[[4, 0, 1]])


# ------------------------------------------------------------------ #
# encoding and coercion against the sort- and loop-based originals
# ------------------------------------------------------------------ #
def reference_from_values(values) -> DictEncoded:
    """``DictEncoded.from_values`` as ``np.unique`` over the object array."""
    values = np.asarray(values, dtype=object)
    if len(values) == 0:
        dictionary = np.empty(0, dtype=object)
        codes = np.zeros(0, dtype=np.int32)
    else:
        dictionary, inverse = np.unique(values, return_inverse=True)
        codes = inverse.astype(np.int32, copy=False).reshape(-1)
    codes.setflags(write=False)
    dictionary.setflags(write=False)
    return DictEncoded(codes, dictionary)


def reference_coerce(column: Column, values) -> np.ndarray:
    """``Column.coerce`` of a ``STR`` column as the per-element loop."""
    arr = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        if value is None:
            arr[i] = ""
        elif isinstance(value, str):
            arr[i] = value
        else:
            arr[i] = str(value)
    return arr


_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "a", "A", "ab", "é", "\U0001d518", "x\U0001f600"]),
)


@given(values=st.one_of(
    st.lists(_TEXT, max_size=60),
    st.builds(lambda value, n: [value] * n, _TEXT, st.integers(1, 20)),
))
@example(values=[])
@example(values=[""])
@example(values=["b", "", "\U0001f600", "b", "a", "\uffff", "\U00010000"])
@settings(max_examples=150, deadline=None)
def test_from_values_equals_np_unique(values):
    encoded = DictEncoded.from_values(np.asarray(values, dtype=object))
    expected = reference_from_values(values)
    assert encoded.dictionary.dtype == object
    assert encoded.dictionary.tolist() == expected.dictionary.tolist()
    assert [type(v) for v in encoded.dictionary] == [type(v) for v in expected.dictionary]
    assert encoded.codes.dtype == np.int32
    np.testing.assert_array_equal(encoded.codes, expected.codes)
    assert not encoded.codes.flags.writeable
    assert not encoded.dictionary.flags.writeable


@given(data=st.data(), values=st.lists(_TEXT, min_size=1, max_size=12))
@example(data=None, values=["a"])
@settings(max_examples=150, deadline=None)
def test_from_picks_equals_the_gathered_list(data, values):
    """Duplicate and undrawn values, no picks at all, one value."""
    if data is None:
        picks = []
    else:
        picks = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=60))
    encoded = DictEncoded.from_picks(values, np.asarray(picks, dtype=np.int64))
    assert_encodes(encoded, [values[i] for i in picks])


@given(values=st.lists(
    _TEXT.filter(lambda text: not text.endswith("\x00")), unique=True, max_size=12
))
@example(values=[])
@example(values=["b", "a", "\U0001d518", "é"])
@settings(max_examples=150, deadline=None)
def test_from_distinct_equals_the_per_row_encoding(values):
    """Empty, one value, non-BMP text; a ``U`` array drops trailing NULs,
    so values ending in one are not drawn."""
    encoded = DictEncoded.from_distinct(np.asarray(values, dtype=str))
    assert_encodes(encoded, values)


def assert_encodes(encoding, values):
    """``encoding`` is ``reference_from_values(values)`` (``np.unique``'s),
    to the dtypes, the dictionary's object types and the read-only flags."""
    expected = reference_from_values(values)
    assert encoding.dictionary.dtype == object
    assert encoding.dictionary.tolist() == expected.dictionary.tolist()
    assert [type(v) for v in encoding.dictionary] == [
        type(v) for v in expected.dictionary
    ]
    assert encoding.codes.dtype == np.int32
    assert encoding.codes.tobytes() == expected.codes.tobytes()
    assert not encoding.codes.flags.writeable
    assert not encoding.dictionary.flags.writeable


def test_table_stores_a_given_encoding_as_it_is():
    schema = TableSchema("t", [Column("s", ColumnType.STR), Column("n", ColumnType.INT)])
    encoded = DictEncoded.from_picks(["b", "a"], np.asarray([0, 1, 0]))
    table = Table(schema, {"s": encoded, "n": [1, 2, 3]})
    assert table.encoding("s") is encoded
    assert table.column("s").tolist() == ["b", "a", "b"]
    with pytest.raises(SchemaError, match="'s' has 3 values, expected 2"):
        Table(
            TableSchema("u", [Column("n", ColumnType.INT), Column("s", ColumnType.STR)]),
            {"n": [1, 2], "s": encoded},
        )
    with pytest.raises(SchemaError, match="dictionary encoding"):
        Table(schema, {"s": encoded, "n": encoded})


_MIXED = st.one_of(
    st.none(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT.map(np.str_),
    _TEXT,
)


@given(values=st.lists(_MIXED, max_size=40), as_array=st.booleans())
@example(values=[], as_array=False)
@example(values=[None, 3, 2.5, np.str_("q"), "z"], as_array=True)
@settings(max_examples=150, deadline=None)
def test_str_coerce_equals_the_loop(values, as_array):
    column = Column("c", ColumnType.STR, nullable=True)
    if as_array:
        values = np.array(values, dtype=object)
    coerced = column.coerce(values)
    expected = reference_coerce(column, values)
    assert coerced.dtype == object and coerced.shape == expected.shape
    assert coerced.tolist() == expected.tolist()
    assert [type(v) for v in coerced] == [type(v) for v in expected]


def test_table_columns_decode_to_original_values():
    table = make_table(seed=1)
    rng = np.random.default_rng(1)
    city = CITIES[rng.integers(0, len(CITIES), size=500)]
    np.testing.assert_array_equal(table.column("city"), city)
    assert table.encoding("city") is not None
    assert table.raw_column("city").dtype == np.int32


def test_int_and_float_columns_are_stored_plain():
    schema = TableSchema(
        "t",
        (
            Column("score", ColumnType.INT, nullable=True),
            Column("temp", ColumnType.FLOAT, nullable=True),
        ),
    )
    score = np.asarray([100, INT_NULL, 103, -7, INT_NULL], dtype=np.int64)
    temp = np.asarray([0.5, np.nan, -1.0, 2.0, np.nan])
    table = Table(schema, {"score": score.copy(), "temp": temp.copy()})
    taken = table.take(np.asarray([4, 1, 1, 0]))
    subset = Database([table]).subset({"t": [4, 1, 2]}).table("t")
    for derived, rows in ((table, [0, 1, 2, 3, 4]), (taken, [4, 1, 1, 0]), (subset, [1, 2, 4])):
        np.testing.assert_array_equal(derived.column("score"), score[rows])
        np.testing.assert_array_equal(derived.column("temp"), temp[rows])
        for name, dtype in (("score", np.int64), ("temp", np.float64)):
            assert derived.encoding(name) is None
            assert derived.raw_column(name) is derived.column(name)
            assert derived.column(name).dtype == dtype
            assert not derived.column(name).flags.writeable
    assert table.null_mask("score").tolist() == [False, True, False, False, True]


def test_encoding_version_changes_per_table_build():
    a = make_table(seed=0)
    b = make_table(seed=0)
    assert a.encoding_version != b.encoding_version


def test_take_preserves_encoding_and_values():
    table = make_table(seed=2)
    positions = np.asarray([5, 3, 400, 3, 0])
    subset = table.take(positions)
    np.testing.assert_array_equal(
        subset.column("city"), table.column("city")[positions]
    )
    np.testing.assert_array_equal(
        subset.column("score"), table.column("score")[positions]
    )
    assert subset.encoding("city") is not None


# ------------------------------------------------------------------ #
# differential execution: encoded vs plain
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("where", PREDICATES)
def test_filters_match_plain_evaluation(where):
    table = make_table(seed=3)
    db = Database([table])
    query = sql(f"SELECT city, score, temp FROM t WHERE {where}")
    result = execute(db, query)
    refs = ["t.city", "t.score", "t.temp"]
    assert row_tuples(result, refs) == expected_rows(table, query.predicate)


@pytest.mark.parametrize("where", PREDICATES)
def test_filters_match_on_large_multiblock_tables(where):
    # 20k rows, the size of the large datasets' scans: every predicate
    # is evaluated over the whole column in one pass.
    table = make_table(seed=4, n=20_000)
    db = Database([table])
    query = sql(f"SELECT city, score, temp FROM t WHERE {where}")
    result = execute(db, query)
    refs = ["t.city", "t.score", "t.temp"]
    assert row_tuples(result, refs) == expected_rows(table, query.predicate)


def test_encoded_key_join_matches_nested_loop():
    left = make_table(seed=5, n=120, name="l")
    right = make_table(seed=6, n=90, name="r")
    db = Database([left, right])
    query = sql(
        "SELECT l.city, l.score, r.temp FROM l, r WHERE l.city = r.city"
    )
    result = execute(db, query)
    lc, rc = left.column("city"), right.column("city")
    expected = [
        (
            lc[i],
            left.column("score")[i],
            _comparable(right.column("temp")[j]),
        )
        for i in range(len(left))
        for j in range(len(right))
        if lc[i] == rc[j] and lc[i] != ""  # a NULL key equals nothing
    ]
    actual = row_tuples(result, ["l.city", "l.score", "r.temp"])
    assert sorted(actual, key=repr) == sorted(expected, key=repr)
    assert len(actual) == len(expected)


def test_order_by_on_encoded_column_is_string_order():
    table = make_table(seed=7)
    db = Database([table])
    query = sql("SELECT city FROM t WHERE city IS NOT NULL ORDER BY city")
    result = execute(db, query)
    values = [row["t.city"] for row in result.to_rows()]
    assert values == sorted(values)


def test_null_round_trip_through_projection():
    table = make_table(seed=8)
    db = Database([table])
    result = execute(db, sql("SELECT city, score FROM t WHERE score IS NULL"))
    rows = result.to_rows()
    assert rows and all(row["t.score"] == INT_NULL for row in rows)
    result = execute(db, sql("SELECT city FROM t WHERE city IS NULL"))
    rows = result.to_rows()
    assert rows and all(row["t.city"] == "" for row in rows)


def test_group_by_on_encoded_column_matches_plain_counts():
    from repro.db import execute_aggregate

    table = make_table(seed=9)
    db = Database([table])
    result = execute_aggregate(db, sql("SELECT city, COUNT(*) FROM t GROUP BY city"))
    city = table.column("city")
    expected = {value: int((city == value).sum()) for value in set(city)}
    actual = {
        key[0]: int(next(iter(aggs.values())))
        for key, aggs in result.as_mapping().items()
    }
    assert actual == expected
