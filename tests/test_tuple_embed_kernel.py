"""The tuple-embedding kernel against a retained scalar reference.

``TupleEmbedder.embed_table`` assembles every row's vector by gathers over
distinct values; the reference here is what it replaced — one
``hasher.embed(row_tokens)`` per row, ``np.mean`` and ``np.linalg.norm``
per group. The standard is bit
equality (``np.array_equal``), not closeness: the same float additions in
the same order, the same norm.
"""

import numpy as np
import pytest

from repro.core import ASQPConfig, preprocess
from repro.db import Column, ColumnType, Database, Table, TableSchema
from repro.db.schema import INT_NULL
from repro.db.statistics import compute_database_stats
from repro.embedding import TokenHasher, TupleEmbedder
from tests.test_action_env import actions_of


# ------------------------------------------------------------------ #
# the reference: one row, one group at a time
# ------------------------------------------------------------------ #
def reference_embed_row(embedder, table, position):
    return embedder.hasher.embed(embedder.row_tokens(table, position))


def reference_embed_group(embedder, rows):
    """Normalized mean of the rows' vectors, one ``embed`` call per row."""
    if not rows:
        return np.zeros(embedder.dim)
    vectors = [reference_embed_row(embedder, table, position) for table, position in rows]
    mean = np.mean(vectors, axis=0)
    norm = np.linalg.norm(mean)
    return mean / norm if norm > 0 else mean


def positions_by_row_id(db):
    return {
        table.name: {int(rid): pos for pos, rid in enumerate(table.row_ids)}
        for table in db
    }


# ------------------------------------------------------------------ #
# random tables: every column type, NULLs, signed zeros, a flat column
# ------------------------------------------------------------------ #
_FLOATS = [-0.0, 0.0, float("nan"), 1.5, -2.25, 1e-5, 1e16, 0.1 + 0.2, 7.0]


def random_table(rng, name, n):
    schema = TableSchema(
        name,
        [
            Column("id", ColumnType.INT),
            Column("label", ColumnType.STR, nullable=True),
            Column("count", ColumnType.INT, nullable=True),
            Column("score", ColumnType.FLOAT, nullable=True),
            Column("flat", ColumnType.FLOAT),  # value_range == 0: never bucketed
            Column("tag", ColumnType.STR),
        ],
        primary_key="id",
    )
    counts = rng.integers(-5, 40, size=n)
    counts[rng.random(n) < 0.15] = INT_NULL
    scores = rng.choice(_FLOATS, size=n)
    noisy = rng.random(n) < 0.4
    scores[noisy] = rng.normal(0, 3, size=int(noisy.sum()))
    return Table(
        schema,
        {
            "id": np.arange(n) * 3 + 1,
            "label": rng.choice(["", "a", "b b", "ç", "long label"], size=n).tolist(),
            "count": counts,
            "score": scores,
            "flat": np.full(n, 3.0),
            "tag": [f"t{int(v)}" for v in rng.integers(0, n, size=n)],
        },
    )


@pytest.fixture(params=[16, 64], ids=["dim16", "dim64"])
def dim(request):
    return request.param


@pytest.fixture(params=[True, False], ids=["stats", "nostats"])
def random_db_and_stats(request):
    rng = np.random.default_rng(2024)
    db = Database([random_table(rng, "left", 60), random_table(rng, "right", 45)])
    return db, compute_database_stats(db) if request.param else None


def embedders(dim, stats):
    """Two embedders with the same inputs: one for the kernel, one for the reference."""
    return TupleEmbedder(dim=dim, stats=stats), TupleEmbedder(dim=dim, stats=stats)


def random_groups(rng, db, n_groups):
    """Groups of 1-6 ``(table, position)`` rows of random tables."""
    tables = list(db)
    groups = []
    for _ in range(n_groups):
        rows = []
        for _ in range(int(rng.integers(1, 7))):
            table = tables[int(rng.integers(len(tables)))]
            rows.append((table, int(rng.integers(len(table)))))
        groups.append(rows)
    return groups


class TestKernelEqualsReference:
    def test_embed_table(self, random_db_and_stats, dim):
        db, stats = random_db_and_stats
        kernel, reference = embedders(dim, stats)
        rng = np.random.default_rng(1)
        for table in db:
            # Out of order and with repeats, as a pool of candidates may be.
            positions = rng.integers(0, len(table), size=80)
            expected = np.vstack([reference_embed_row(reference, table, p) for p in positions])
            assert np.array_equal(kernel.embed_table(table, positions), expected)
            everything = np.vstack(
                [reference_embed_row(reference, table, p) for p in range(len(table))]
            )
            assert np.array_equal(kernel.embed_table(table), everything)
            assert np.array_equal(kernel.embed_row(table, 7), everything[7])

    def test_signed_zeros_and_nan_are_distinct_by_text(self, random_db_and_stats):
        """``np.unique`` on float values would merge -0.0 with 0.0."""
        db, stats = random_db_and_stats
        table = db.table("left")
        scores = table.column("score")
        minus = int(np.flatnonzero((scores == 0) & np.signbit(scores))[0])
        plus = int(np.flatnonzero((scores == 0) & ~np.signbit(scores))[0])
        nan = int(np.flatnonzero(np.isnan(scores))[0])
        kernel, reference = embedders(16, stats)
        assert "val:left.score=-0.0" in kernel.row_tokens(table, minus)
        assert "val:left.score=0.0" in kernel.row_tokens(table, plus)
        assert "val:left.score=nan" in kernel.row_tokens(table, nan)
        got = kernel.embed_table(table, [minus, plus, nan])
        for row, position in zip(got, (minus, plus, nan)):
            assert np.array_equal(row, reference_embed_row(reference, table, position))

    def test_embed_group_spanning_tables(self, random_db_and_stats, dim):
        db, stats = random_db_and_stats
        kernel, reference = embedders(dim, stats)
        left, right = db.table("left"), db.table("right")
        for rows in (
            [(left, 3)],
            [(left, 3), (right, 9), (left, 11), (right, 0)],
            [(right, 5), (right, 5), (left, 2)],  # a repeated member counts twice
            [],
        ):
            assert np.array_equal(
                kernel.embed_group(rows), reference_embed_group(reference, rows)
            )

    def test_equal_under_strict_contracts(self, random_db_and_stats):
        db, stats = random_db_and_stats
        kernel, reference = embedders(64, stats)
        for rows in random_groups(np.random.default_rng(6), db, 40):
            assert np.array_equal(
                kernel.embed_group(rows), reference_embed_group(reference, rows)
            )
        table = db.table("right")
        assert np.array_equal(
            kernel.embed_table(table, [4, 4, 1]),
            np.vstack([reference_embed_row(reference, table, p) for p in (4, 4, 1)]),
        )

    def test_token_stream_is_default_rng(self):
        """``Generator(PCG64(seed))`` must stay the stream of ``default_rng(seed)``."""
        from repro.embedding.text import _token_seed

        hasher = TokenHasher(dim=64)
        for token in ("table:title", "val:title.title=Movie 7", "bucket:t.c@3", ""):
            expected = np.random.default_rng(_token_seed(token)).standard_normal(64)
            expected /= np.linalg.norm(expected)
            assert np.array_equal(hasher.token_vector(token), expected)


# ------------------------------------------------------------------ #
# the token definition, spelled out (the reference above reads it)
# ------------------------------------------------------------------ #
@pytest.fixture
def nullable_table():
    schema = TableSchema(
        "t",
        [
            Column("name", ColumnType.STR),
            Column("count", ColumnType.INT, nullable=True),
            Column("score", ColumnType.FLOAT, nullable=True),
        ],
    )
    return Table(
        schema,
        {
            "name": ["x", "", "z"],
            "count": [10, INT_NULL, 30],
            "score": [1.0, 5.0, float("nan")],
        },
    )


class TestRowTokens:
    def test_tokens_of_a_row_in_order(self, nullable_table):
        stats = compute_database_stats(Database([nullable_table]))
        tokens = TupleEmbedder(stats=stats).row_tokens(nullable_table, 0)
        assert tokens == [
            "table:t",
            "col:t.name", "val:t.name=x",
            "col:t.count", "val:t.count=10", "bucket:t.count@0",
            "col:t.score", "val:t.score=1.0", "bucket:t.score@0",
        ]
        last = TupleEmbedder(stats=stats).row_tokens(nullable_table, 2)
        assert last[3:6] == ["col:t.count", "val:t.count=30", "bucket:t.count@15"]

    def test_null_numerics_keep_value_token_and_get_no_bucket(self, nullable_table):
        """A NaN used to raise in ``_bucket``; an INT NULL was bucket 0."""
        stats = compute_database_stats(Database([nullable_table]))
        embedder = TupleEmbedder(dim=16, stats=stats)
        int_null = embedder.row_tokens(nullable_table, 1)
        assert f"val:t.count={INT_NULL}" in int_null
        assert not any(token.startswith("bucket:t.count") for token in int_null)
        assert "bucket:t.score@15" in int_null  # its non-NULL float still buckets
        float_null = embedder.row_tokens(nullable_table, 2)
        assert "val:t.score=nan" in float_null
        assert not any(token.startswith("bucket:t.score") for token in float_null)
        assert "bucket:t.count@15" in float_null

    def test_null_numerics_embed_like_the_reference(self, nullable_table):
        stats = compute_database_stats(Database([nullable_table]))
        kernel, reference = embedders(16, stats)
        expected = np.vstack(
            [reference_embed_row(reference, nullable_table, p) for p in range(3)]
        )
        assert np.array_equal(kernel.embed_table(nullable_table), expected)
        # A column of nothing but NULLs adds no bucket to any row.
        nulls = nullable_table.take([2, 2])
        assert np.array_equal(kernel.embed_table(nulls), expected[[2, 2]])


# ------------------------------------------------------------------ #
# the rows of a seeded action space
# ------------------------------------------------------------------ #
def test_each_distinct_token_is_hashed_once(tiny_imdb, monkeypatch):
    """Per-row hashing entered ``token_vector`` ~18 times per distinct token."""
    config = ASQPConfig(
        memory_budget=60, action_space_target=40, n_query_representatives=5, seed=3
    )
    prep = preprocess(tiny_imdb.db, tiny_imdb.workload, config)
    keys = [key for action_keys, _ in actions_of(prep.action_space) for key in action_keys]
    assert len(keys) > len(set(keys))  # rows are shared
    embedder = TupleEmbedder(dim=16, stats=prep.stats)
    positions = positions_by_row_id(tiny_imdb.db)
    rows = {}
    for name, row_id in set(keys):
        rows.setdefault(name, []).append(positions[name][row_id])
    tokens = {
        token
        for name, table_positions in rows.items()
        for position in table_positions
        for token in embedder.row_tokens(tiny_imdb.db.table(name), position)
    }
    n_columns = sum(len(table.schema.columns) for table in tiny_imdb.db)

    calls = []
    original = TokenHasher.token_vector
    monkeypatch.setattr(
        TokenHasher, "token_vector",
        lambda self, token: calls.append(token) or original(self, token),
    )
    for name, table_positions in rows.items():
        embedder.embed_table(tiny_imdb.db.table(name), table_positions)
    assert set(calls) == tokens
    assert len(calls) <= len(tokens) + 2 * n_columns
