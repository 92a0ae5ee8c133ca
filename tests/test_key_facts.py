"""Key facts: an integer column's bounds, NULL-freedom and uniqueness.

A table computes them once per column (`Table.key_facts`), a leaf carries
its join keys' facts, and a join hands them to `kernels.join_positions`
instead of reducing, counting and sorting its keys on every run. Three
paths must agree exactly (values, row ids, row order): the facts path,
the path without facts, and the per-row reference kernels. Every fact a
join hands the kernel must also hold for the keys it hands it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    ColumnType,
    Database,
    Table,
    TableSchema,
    execute,
    kernels,
    sql,
)
from repro.db.kernels import KeyFacts
from repro.db.schema import INT_NULL
from tests.test_executor_reference import reference_kernels
from tests.test_kernels import reference_join_positions


def brute_facts(values) -> KeyFacts:
    """The facts of ``values`` by Python sets and builtins."""
    values = [int(v) for v in values]
    present = [v for v in values if v != INT_NULL]
    return KeyFacts(
        low=min(present, default=0),
        high=max(present, default=-1),
        null_free=len(present) == len(values),
        unique=len(set(values)) == len(values),
    )


_KEY = st.one_of(st.integers(-5, 40), st.just(INT_NULL))


# ------------------------------------------------------------------ #
# Table.key_facts
# ------------------------------------------------------------------ #
@given(
    values=st.lists(_KEY, max_size=30),
    keep=st.lists(st.booleans(), max_size=30),
)
@example(values=[], keep=[])
@example(values=[INT_NULL, INT_NULL], keep=[True])
@settings(max_examples=150, deadline=None)
def test_table_key_facts_match_brute_force(values, keep):
    schema = TableSchema("t", [
        Column("k", ColumnType.INT), Column("s", ColumnType.STR),
        Column("f", ColumnType.FLOAT),
    ])
    table = Table(schema, {
        "k": values,
        "s": [f"s{v % 3}" for v in values],
        "f": [float(v) for v in values],
    })
    facts = table.key_facts("k")
    assert facts == brute_facts(values)
    assert table.key_facts("k") is facts  # computed once, then kept
    assert table.key_facts("s") is None and table.key_facts("f") is None
    # An approximation table (a sub-database's) has the facts of its own rows.
    kept = [i for i, flag in zip(range(len(values)), keep) if flag]
    approx = Database([table]).subset({"t": kept}).table("t")
    assert approx.key_facts("k") == brute_facts([values[i] for i in kept])


# ------------------------------------------------------------------ #
# the kernel: facts, no facts and the reference agree
# ------------------------------------------------------------------ #
def _spelled(matches, n_probe):
    probe_idx, build_idx = matches
    if probe_idx is None:
        probe_idx = np.arange(n_probe, dtype=np.int64)
    return probe_idx.tolist(), build_idx.tolist()


@st.composite
def _keys_with_facts(draw):
    """An int key and facts that hold for it: bounds widened as a filtered
    subset's table bounds are, and uniqueness said only of unique keys."""
    values = draw(st.lists(st.one_of(st.integers(0, 60), st.integers(-10**6, 10**6)),
                           max_size=40))
    keys = np.asarray(values, dtype=np.int64)
    exact = brute_facts(values)
    slack = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 10**5))
    facts = KeyFacts(
        low=exact.low - draw(slack),
        high=exact.high + draw(slack),
        null_free=True,
        unique=exact.unique and draw(st.booleans()),
    )
    return keys, facts


@given(build=_keys_with_facts(), probe=_keys_with_facts())
@settings(max_examples=300, deadline=None)
def test_join_positions_with_facts_match_reference(build, probe):
    (build_keys, build_facts), (probe_keys, probe_facts) = build, probe
    want = _spelled(reference_join_positions([build_keys], [probe_keys]), len(probe_keys))
    for given_facts in [(build_facts, probe_facts), (build_facts, None),
                        (None, probe_facts), (None, None)]:
        got = kernels.join_positions([build_keys], [probe_keys], *given_facts)
        assert _spelled(got, len(probe_keys)) == want


# ------------------------------------------------------------------ #
# the executor: facts path, no-facts path and reference kernels agree
# ------------------------------------------------------------------ #
_A = TableSchema("a", [Column("id", ColumnType.INT), Column("v", ColumnType.INT),
                       Column("s", ColumnType.STR)])
_B = TableSchema("b", [Column("id", ColumnType.INT), Column("a_id", ColumnType.INT),
                       Column("s", ColumnType.STR)])
_C = TableSchema("c", [Column("id", ColumnType.INT), Column("b_id", ColumnType.INT)])

#: One query per case: a join of a filtered subset of a unique column, a
#: chain whose first join can repeat the rows the second keys on (b.id),
#: the same chain with the repeating side on the other end, and a join on
#: dictionary-encoded strings (no facts: today's path).
_QUERIES = [
    "SELECT a.v, b.id FROM a, b WHERE a.id = b.a_id AND a.v < 20",
    "SELECT a.v, b.id, c.id FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id",
    "SELECT c.id, a.v FROM c, b, a WHERE c.b_id = b.id AND b.a_id = a.id AND b.id > 3",
    "SELECT a.id, b.id FROM a, b WHERE a.s = b.s AND b.a_id < 30",
]


def _rows(n_max):
    return st.lists(st.tuples(_KEY, _KEY, st.sampled_from(["x", "y", "z", ""])),
                    max_size=n_max)


def _database(a_rows, b_rows, c_rows) -> Database:
    def table(schema, rows):
        names = schema.column_names
        return Table(schema, {name: [row[i] for row in rows] for i, name in enumerate(names)})

    return Database([table(_A, a_rows), table(_B, b_rows),
                     table(_C, [row[:2] for row in c_rows])])


def _result(db, query):
    result = execute(db, query)
    return (
        result.n_rows,
        {ref: result.column(ref).tolist() for ref in sorted(result.columns)},
        {table: result.row_ids[table].tolist() for table in sorted(result.row_ids)},
    )


@contextmanager
def checked_facts(calls: list):
    """Route the executor through a `join_positions` that asserts every
    fact it is handed holds for the keys, and records the facts."""
    real = kernels.join_positions

    def join_positions(build_keys, probe_keys, build_facts=None, probe_facts=None):
        for keys, facts in ((build_keys, build_facts), (probe_keys, probe_facts)):
            if facts is None:
                continue
            (values,) = keys
            assert ((values >= facts.low) & (values <= facts.high)).all()
            if facts.unique:
                assert len(set(values.tolist())) == len(values)
        calls.append((build_facts, probe_facts))
        return real(build_keys, probe_keys, build_facts, probe_facts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "join_positions", join_positions)
        yield


@contextmanager
def no_facts():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Table, "key_facts", lambda self, name: None)
        yield


@given(a=_rows(12), b=_rows(25), c=_rows(25), which=st.sampled_from(range(len(_QUERIES))))
@example(a=[], b=[], c=[], which=1)  # empty tables
@example(  # a.id repeats: the first join repeats b's rows, b.id among them
    a=[(1, 0, "x"), (1, 5, "y"), (2, 9, "x")],
    b=[(10, 1, "x"), (11, 2, "y"), (12, INT_NULL, "z")],
    c=[(0, 10, ""), (1, 11, ""), (2, 10, ""), (3, INT_NULL, "")],
    which=1,
)
@settings(max_examples=200, deadline=None)
def test_facts_path_matches_no_facts_and_reference(a, b, c, which):
    query = sql(_QUERIES[which])
    calls: list = []
    with checked_facts(calls):
        got = _result(_database(a, b, c), query)
    with no_facts():
        assert _result(_database(a, b, c), query) == got
    with reference_kernels():
        assert _result(_database(a, b, c), query) == got
    if which == 3:  # string keys carry no facts
        assert all(call == (None, None) for call in calls)


def test_chain_does_not_take_a_repeated_key_as_unique():
    """a.id repeats, so after a ⋈ b the unique b.id repeats too: the join
    on it must be handed b.id's facts with uniqueness reset."""
    a = [(1, 0, "x"), (1, 5, "y"), (2, 9, "x")] + [(50 + i, 0, "z") for i in range(6)]
    b = [(10, 1, "x"), (11, 2, "y")] + [(20 + i, 99, "z") for i in range(12)]
    c = [(i, 10 + i % 2, "") for i in range(30)]
    db = _database(a, b, c)
    assert db.table("b").key_facts("id").unique
    calls: list = []
    with checked_facts(calls):
        got = _result(db, sql(_QUERIES[1]))
    assert got[0] == 3 * 15  # b row 10 twice, b row 11 once; c hits 15 each
    first, second = calls
    assert all(facts is not None for facts in first)
    # The second join's b.id side: facts kept (bounds), uniqueness reset.
    b_facts = [facts for facts in second if facts is not None and facts.high == 31]
    assert b_facts and not any(facts.unique for facts in b_facts)
    with reference_kernels():
        assert _result(_database(a, b, c), sql(_QUERIES[1])) == got
