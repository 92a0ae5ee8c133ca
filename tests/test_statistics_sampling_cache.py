"""Unit tests for repro.db.statistics, repro.db.sampling and the LRU cache
reference of ``tests/test_baselines.py``."""

import numpy as np
import pytest

from repro.db import (
    Column,
    ColumnType,
    Table,
    TableSchema,
    compute_database_stats,
    compute_table_stats,
    variational_subsample,
)
from repro.db import statistics
from repro.db.schema import INT_NULL
from repro.db.statistics import (
    _DEFAULT_QUANTILES,
    CategoricalStats,
    NumericStats,
    TableStats,
)
from tests.test_baselines import LRUTupleCache


def reference_table_stats(table, max_distinct=10_000):
    """``compute_table_stats`` as a walk over every row of every column —
    what it did before it counted by dictionary code; kept as the reference."""
    stats = TableStats(table_name=table.name, n_rows=len(table))
    for column in table.schema.columns:
        array = table.column(column.name)
        nulls = column.null_mask(array)
        n_null = int(nulls.sum())
        if column.ctype.is_numeric:
            values = np.asarray(array[~nulls], dtype=np.float64)
            if len(values) == 0:
                values = np.zeros(1)
            stats.numeric[column.name] = NumericStats(
                count=len(array) - n_null,
                n_null=n_null,
                mean=float(values.mean()),
                std=float(values.std()),
                minimum=float(values.min()),
                maximum=float(values.max()),
                quantiles={q: float(np.quantile(values, q)) for q in _DEFAULT_QUANTILES},
            )
        else:
            frequencies = {}
            for value in array[~nulls]:
                key = str(value)
                frequencies[key] = frequencies.get(key, 0) + 1
                if len(frequencies) > max_distinct:
                    break
            stats.categorical[column.name] = CategoricalStats(
                count=len(array) - n_null,
                n_null=n_null,
                n_distinct=len(frequencies),
                frequencies=frequencies,
            )
    return stats


def assert_stats_equal_reference(table, max_distinct, monkeypatch):
    monkeypatch.setattr(statistics, "MAX_DISTINCT", max_distinct)
    got = compute_table_stats(table)
    expected = reference_table_stats(table, max_distinct=max_distinct)
    assert list(got.categorical) == list(expected.categorical)
    for name, reference in expected.categorical.items():
        column = got.categorical[name]
        # In order: first occurrence decides where a value sits in the dict.
        assert list(column.frequencies.items()) == list(reference.frequencies.items())
        assert (column.count, column.n_null, column.n_distinct) == (
            reference.count, reference.n_null, reference.n_distinct
        )
    assert list(got.numeric) == list(expected.numeric)
    for name, reference in expected.numeric.items():
        assert got.numeric[name].quantiles == reference.quantiles
    assert repr(got) == repr(expected)  # every field, float bits included


class TestStatistics:
    def test_numeric_stats(self, movies):
        stats = compute_table_stats(movies)
        year = stats.numeric["year"]
        assert year.minimum == 1999 and year.maximum == 2020
        assert year.count == 6 and year.n_null == 0
        assert 0.5 in year.quantiles

    def test_categorical_stats(self, movies):
        stats = compute_table_stats(movies)
        genre = stats.categorical["genre"]
        assert genre.n_distinct == 3
        assert genre.frequencies["drama"] == 3
        assert genre.top_values(1) == ["drama"]

    def test_weighted_sampling_prefers_popular(self, movies, rng):
        stats = compute_table_stats(movies)
        picks = stats.categorical["genre"].sample_weighted(rng, 300)
        counts = {v: picks.count(v) for v in set(picks)}
        assert counts["drama"] > counts.get("scifi", 0)

    def test_database_stats_covers_all_tables(self, mini_db):
        stats = compute_database_stats(mini_db)
        assert set(stats) == {"movies", "cast_info"}

    def test_value_range(self, movies):
        stats = compute_table_stats(movies)
        assert stats.numeric["year"].value_range == 21


class TestStatisticsByCode:
    """Counting by dictionary code equals the row walk, dict order included."""

    @pytest.mark.parametrize("bundle_name", ["tiny_imdb", "tiny_mas", "tiny_flights"])
    def test_dataset_tables(self, bundle_name, request, monkeypatch):
        for table in request.getfixturevalue(bundle_name).db:
            widest = max(
                (len(table.dictionary(c.name)) for c in table.schema.columns
                 if c.ctype is ColumnType.STR),
                default=2,
            )
            # The cut-off row is where distinct value max_distinct + 1 appears.
            for max_distinct in (1, 5, widest - 1, widest, 10_000):
                assert_stats_equal_reference(table, max_distinct, monkeypatch)

    def test_nulls_empty_and_degenerate_columns(self, monkeypatch):
        schema = TableSchema(
            "t",
            [
                Column("word", ColumnType.STR, nullable=True),
                Column("void", ColumnType.STR, nullable=True),
                Column("full", ColumnType.STR),
                Column("count", ColumnType.INT, nullable=True),
                Column("score", ColumnType.FLOAT, nullable=True),
                Column("nothing", ColumnType.FLOAT, nullable=True),
            ],
        )
        table = Table(
            schema,
            {
                "word": ["b", "", "a", "b", "", "c", "a", "b"],
                "void": [""] * 8,
                "full": ["z", "y", "z", "x", "y", "z", "w", "z"],
                "count": [3, INT_NULL, 1, 3, 2, INT_NULL, 9, 0],
                "score": [0.5, float("nan"), -0.0, 0.0, 2.5, 1e9, float("nan"), 7.0],
                "nothing": [float("nan")] * 8,
            },
        )
        for subset in (table, table.take([6, 1, 3, 3, 0]), table.take([])):
            for max_distinct in (0, 1, 2, 3, 10_000):
                assert_stats_equal_reference(subset, max_distinct, monkeypatch)
        monkeypatch.undo()
        stats = compute_table_stats(table)
        assert list(stats.categorical["word"].frequencies.items()) == [
            ("b", 3), ("a", 2), ("c", 1)
        ]
        assert stats.categorical["void"].n_null == 8
        assert stats.categorical["void"].frequencies == {}

    def test_table_null_mask_equals_column_null_mask(self, tiny_imdb, movies):
        schema = TableSchema(
            "t",
            [
                Column("s", ColumnType.STR, nullable=True),
                Column("i", ColumnType.INT, nullable=True),
                Column("f", ColumnType.FLOAT, nullable=True),
            ],
        )
        nullable = Table(
            schema,
            {"s": ["", "a", "", "b"], "i": [1, INT_NULL, 3, 4],
             "f": [float("nan"), 1.0, 2.0, float("nan")]},
        )
        tables = [nullable, nullable.take([1, 3]), nullable.take([]), movies, *tiny_imdb.db]
        for table in tables:
            for column in table.schema.columns:
                expected = column.null_mask(table.column(column.name))
                got = table.null_mask(column.name)
                assert got.dtype == bool and np.array_equal(got, expected)
        assert nullable.null_mask("s").tolist() == [True, False, True, False]
        # A subset shares its base's dictionary: "" stays code 0 though absent.
        assert nullable.take([1, 3]).null_mask("s").tolist() == [False, False]


class TestVariationalSubsample:
    def test_full_keep_when_target_large(self, rng):
        result = variational_subsample(["a"] * 5, 10, rng)
        assert len(result) == 5
        assert (result.inclusion_probability == 1.0).all()

    def test_every_stratum_represented(self, rng):
        keys = ["a"] * 100 + ["b"] * 3 + ["c"] * 1
        result = variational_subsample(keys, 20, rng)
        sampled_keys = {keys[p] for p in result.positions}
        assert sampled_keys == {"a", "b", "c"}

    def test_rare_strata_over_represented(self, rng):
        keys = ["big"] * 1000 + ["small"] * 10
        result = variational_subsample(keys, 100, rng)
        small = sum(1 for p in result.positions if keys[p] == "small")
        # Proportional share would be ~1; sqrt allocation gives more.
        assert small >= 2

    def test_inclusion_probabilities_match_quota(self, rng):
        keys = ["a"] * 50 + ["b"] * 50
        result = variational_subsample(keys, 20, rng)
        for position, probability in zip(result.positions, result.inclusion_probability):
            assert 0 < probability <= 1

    def test_empty(self, rng):
        assert len(variational_subsample([], 10, rng)) == 0

    def test_positions_unique(self, rng):
        keys = list("aabbccddee") * 10
        result = variational_subsample(keys, 30, rng)
        assert len(set(result.positions.tolist())) == len(result.positions)


class TestLRUCache:
    def test_capacity_enforced(self):
        cache = LRUTupleCache(capacity=2)
        cache.touch(("t", 1))
        cache.touch(("t", 2))
        cache.touch(("t", 3))
        assert len(cache) == 2
        assert ("t", 1) not in cache
        assert cache.evictions == 1

    def test_lru_order(self):
        cache = LRUTupleCache(capacity=2)
        cache.touch(("t", 1))
        cache.touch(("t", 2))
        cache.touch(("t", 1))  # refresh 1; 2 becomes LRU
        cache.touch(("t", 3))
        assert ("t", 1) in cache
        assert ("t", 2) not in cache

    def test_hit_accounting(self):
        cache = LRUTupleCache(capacity=3)
        assert not cache.touch(("t", 1))
        assert cache.touch(("t", 1))
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_touch_many_dedupes(self):
        cache = LRUTupleCache(capacity=5)
        hits = cache.touch_many([("t", 1), ("t", 1), ("t", 2)])
        assert hits == 0
        assert len(cache) == 2

    def test_contents_grouped(self):
        cache = LRUTupleCache(capacity=5)
        cache.touch_many([("b", 2), ("a", 9), ("a", 3)])
        assert cache.contents() == {"a": [3, 9], "b": [2]}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUTupleCache(capacity=0)
