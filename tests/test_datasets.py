"""Tests for the synthetic dataset bundles and workload helpers."""

import numpy as np
import pytest

from repro.datasets import (
    Workload,
    load_flights,
    load_imdb,
    load_mas,
)
from repro.datasets import flights, imdb, mas
from repro.datasets.synthetic import (
    _SYLLABLES,
    skewed_foreign_keys,
    synthetic_names,
    year_column,
    zipf_choice,
    zipf_weights,
)
from repro.datasets.workloads import PooledSampler
from repro.db import Column, ColumnType, DictEncoded, execute, execute_aggregate, sql
from tests.test_columnstore import (
    assert_encodes,
    reference_coerce,
    reference_from_values,
)


class TestSyntheticPrimitives:
    def test_zipf_weights_normalized_decreasing(self):
        weights = zipf_weights(10)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert all(weights[i] >= weights[i + 1] for i in range(9))

    def test_zipf_choice_skew(self, rng):
        picks = zipf_choice(list("abcdefghij"), 2000, rng, exponent=1.2).decode().tolist()
        counts = {v: picks.count(v) for v in set(picks)}
        assert counts["a"] > counts.get("j", 0)

    def test_skewed_foreign_keys_in_range(self, rng):
        fks = skewed_foreign_keys(500, 40, rng)
        assert fks.min() >= 0 and fks.max() < 40

    def test_skewed_foreign_keys_heavy_tail(self, rng):
        fks = skewed_foreign_keys(2000, 100, rng)
        counts = np.bincount(fks, minlength=100)
        assert counts.max() > 3 * np.median(counts[counts > 0])

    def test_names_unique(self, rng):
        names = synthetic_names(200, rng).decode().tolist()
        assert len(set(names)) == 200

    def test_year_column_bounds(self, rng):
        years = year_column(500, rng, low=1990, high=2020, mode=2010)
        assert years.min() >= 1990 and years.max() <= 2020

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0)


# ------------------------------------------------------------------ #
# the column-at-a-time generators against their per-row originals
# ------------------------------------------------------------------ #
def reference_synthetic_names(n, rng, n_syllables=3, prefix=""):
    """``synthetic_names`` as one ``rng.choice`` per name."""
    names = []
    for i in range(n):
        parts = rng.choice(len(_SYLLABLES), size=n_syllables)
        word = "".join(_SYLLABLES[p] for p in parts)
        names.append(f"{prefix}{word.capitalize()}_{i}")
    return names


def reference_from_picks(values, picks):
    """``DictEncoded.from_picks`` as the per-row list of drawn values."""
    return [values[i] for i in picks]


def reference_info_column(info_types, rng):
    """IMDB's ``movie_info.info`` as one ``rng.choice`` per row."""
    return [str(rng.choice(imdb._INFO_VALUES[info_type])) for info_type in info_types]


class TestColumnGenerators:
    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("n_syllables", [1, 3, 4])
    @pytest.mark.parametrize("prefix", ["", "The "])
    def test_names_equal_the_per_row_draws(self, n, n_syllables, prefix):
        rng, expected_rng = np.random.default_rng(5), np.random.default_rng(5)
        names = synthetic_names(n, rng, n_syllables=n_syllables, prefix=prefix)
        expected = reference_synthetic_names(
            n, expected_rng, n_syllables=n_syllables, prefix=prefix
        )
        assert names.decode().tolist() == expected
        assert_encodes(names, expected)
        assert all(type(name) is str for name in names.dictionary)
        assert rng.random() == expected_rng.random()  # same stream position

    def test_names_need_a_syllable(self):
        with pytest.raises(ValueError, match="n_syllables"):
            synthetic_names(3, np.random.default_rng(0), n_syllables=0)

    @pytest.mark.parametrize("n", [0, 1, 2000])
    def test_info_column_equals_the_per_row_draws(self, n):
        types_rng = np.random.default_rng(n)
        info_types = zipf_choice(imdb.INFO_TYPES, n, types_rng, exponent=0.5)
        rng, expected_rng = np.random.default_rng(9), np.random.default_rng(9)
        info = imdb._info_column(info_types, rng)
        expected = reference_info_column(info_types.decode().tolist(), expected_rng)
        assert info.decode().tolist() == expected
        assert_encodes(info, expected)
        assert rng.random() == expected_rng.random()

    @pytest.mark.parametrize("n", [0, 1, 2000])
    def test_zipf_choice_equals_the_per_row_draws(self, n):
        rng, expected_rng = np.random.default_rng(n), np.random.default_rng(n)
        drawn = zipf_choice(imdb.KINDS, n, rng, exponent=1.0)
        picks = expected_rng.choice(
            len(imdb.KINDS), size=n, p=zipf_weights(len(imdb.KINDS), 1.0)
        )
        assert_encodes(drawn, reference_from_picks(imdb.KINDS, picks))
        assert rng.random() == expected_rng.random()


def _reference_build(monkeypatch, make_db, scale, seed):
    """``make_db`` with every per-row original patched back in: each
    ``STR`` column reaches its table as the list of its values."""
    coerce = Column.coerce
    coerced = []

    def loop_coerce(column, values):
        if column.ctype is ColumnType.STR:
            coerced.append(column.name)
            return reference_coerce(column, values)
        return coerce(column, values)

    with monkeypatch.context() as patch:
        for module in (imdb, mas, flights):
            patch.setattr(module, "synthetic_names", reference_synthetic_names)
        patch.setattr(imdb, "_info_column", reference_info_column)
        patch.setattr(DictEncoded, "from_picks", staticmethod(reference_from_picks))
        patch.setattr(Column, "coerce", loop_coerce)
        patch.setattr(DictEncoded, "from_values", staticmethod(reference_from_values))
        db = make_db(scale=scale, seed=seed)
    assert coerced == [
        column.name for table in db for column in table.schema.columns
        if column.ctype is ColumnType.STR
    ]
    return db


@pytest.mark.parametrize("make_db", [
    imdb.make_imdb_database, mas.make_mas_database, flights.make_flights_database,
])
@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("seed", [7, 1337])
def test_database_equals_the_per_row_build(monkeypatch, make_db, scale, seed):
    expected = _reference_build(monkeypatch, make_db, scale, seed)
    db = make_db(scale=scale, seed=seed)
    assert db.table_names == expected.table_names
    for table in db:
        other = expected.table(table.name)
        assert table.row_ids.tobytes() == other.row_ids.tobytes()
        for name in table.schema.column_names:
            encoding, other_encoding = table.encoding(name), other.encoding(name)
            assert (encoding is None) == (other_encoding is None)
            raw, other_raw = table.raw_column(name), other.raw_column(name)
            assert raw.dtype == other_raw.dtype
            assert raw.tobytes() == other_raw.tobytes()
            if encoding is not None:
                assert encoding.dictionary.tolist() == other_encoding.dictionary.tolist()


class TestPooledSampler:
    def test_reuses_from_pool(self):
        rng = np.random.default_rng(0)
        sampler = PooledSampler(rng, reuse_probability=1.0)
        counter = iter(range(100))
        values = [sampler.draw(("k",), lambda: next(counter)) for _ in range(10)]
        assert set(values) == {0}

    def test_no_reuse_generates_fresh(self):
        rng = np.random.default_rng(0)
        sampler = PooledSampler(rng, reuse_probability=0.0, pool_limit=100)
        counter = iter(range(100))
        values = [sampler.draw(("k",), lambda: next(counter)) for _ in range(10)]
        assert values == list(range(10))

    def test_pool_limit_caps_distinct(self):
        rng = np.random.default_rng(0)
        sampler = PooledSampler(rng, reuse_probability=0.0, pool_limit=3)
        counter = iter(range(100))
        values = [sampler.draw(("k",), lambda: next(counter)) for _ in range(50)]
        assert len(set(values)) == 3

    def test_keys_independent(self):
        rng = np.random.default_rng(0)
        sampler = PooledSampler(rng, reuse_probability=1.0)
        a = sampler.draw(("a",), lambda: "A")
        b = sampler.draw(("b",), lambda: "B")
        assert (a, b) == ("A", "B")

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            PooledSampler(np.random.default_rng(0), reuse_probability=1.5)


class TestWorkloadContainer:
    def test_weights_normalized(self):
        workload = Workload(
            [sql("SELECT * FROM t"), sql("SELECT * FROM u")], np.asarray([2.0, 2.0])
        )
        assert np.allclose(workload.weights, [0.5, 0.5])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            Workload([sql("SELECT * FROM t")], np.asarray([0.5, 0.5]))

    def test_split_partitions(self, rng):
        queries = [sql(f"SELECT * FROM t WHERE t.x = {i}") for i in range(10)]
        workload = Workload(queries)
        train, test = workload.split(0.3, rng)
        assert len(train) == 7 and len(test) == 3
        train_names = {q.to_sql() for q in train}
        test_names = {q.to_sql() for q in test}
        assert not train_names & test_names

    def test_split_needs_two(self, rng):
        with pytest.raises(ValueError):
            Workload([sql("SELECT * FROM t")]).split(0.5, rng)

    def test_spj_only_strips_aggregates(self):
        workload = Workload([
            sql("SELECT genre, COUNT(*) FROM movies GROUP BY genre"),
            sql("SELECT * FROM movies"),
        ])
        stripped = workload.spj_only()
        assert all(not q.is_aggregate for q in stripped)

    def test_subset(self):
        queries = [sql(f"SELECT * FROM t WHERE t.x = {i}") for i in range(5)]
        workload = Workload(queries)
        sub = workload.subset([0, 2])
        assert len(sub) == 2


@pytest.mark.parametrize("loader,tables", [
    (load_imdb, {"title", "company", "movie_companies", "person", "cast_info", "movie_info"}),
    (load_mas, {"author", "venue", "publication", "writes"}),
    (load_flights, {"carriers", "flights"}),
])
class TestBundles:
    def test_schema_and_workloads(self, loader, tables):
        bundle = loader(scale=0.1, n_queries=10, n_aggregate_queries=6)
        assert set(bundle.db.table_names) == tables
        assert len(bundle.workload) == 10
        assert len(bundle.aggregate_workload) == 6
        assert set(bundle.stats) == tables

    def test_workload_executable(self, loader, tables):
        bundle = loader(scale=0.1, n_queries=10, n_aggregate_queries=6)
        for query in bundle.workload:
            execute(bundle.db, query)
        for query in bundle.aggregate_workload:
            execute_aggregate(bundle.db, query)

    def test_deterministic(self, loader, tables):
        a = loader(scale=0.1, n_queries=6, n_aggregate_queries=4)
        b = loader(scale=0.1, n_queries=6, n_aggregate_queries=4)
        assert [q.to_sql() for q in a.workload] == [q.to_sql() for q in b.workload]
        for name in tables:
            ta, tb = a.db.table(name), b.db.table(name)
            assert len(ta) == len(tb)

    def test_scale_changes_size(self, loader, tables):
        small = loader(scale=0.1, n_queries=4, n_aggregate_queries=4)
        large = loader(scale=0.3, n_queries=4, n_aggregate_queries=4)
        assert large.db.total_rows() > small.db.total_rows()

    def test_scale_validation(self, loader, tables):
        with pytest.raises(ValueError):
            loader(scale=0.0)


class TestWorkloadCharacter:
    def test_imdb_result_sizes_spread(self, tiny_imdb):
        sizes = [len(execute(tiny_imdb.db, q)) for q in tiny_imdb.workload]
        assert min(sizes) < 20
        assert max(sizes) > 50

    def test_imdb_has_joins_and_single_table(self, tiny_imdb):
        n_tables = [len(q.tables) for q in tiny_imdb.workload]
        assert 1 in n_tables
        assert any(n >= 2 for n in n_tables)

    def test_flights_aggregate_classes_balanced(self, tiny_flights):
        from repro.db import AggFunc

        funcs = [q.aggregates[0].func for q in tiny_flights.aggregate_workload]
        assert {AggFunc.COUNT, AggFunc.SUM, AggFunc.AVG} <= set(funcs)
        grouped = [q for q in tiny_flights.aggregate_workload if q.group_by]
        assert len(grouped) == len(tiny_flights.aggregate_workload) // 2

    def test_workloads_share_hot_predicates(self, tiny_imdb):
        """The pooled sampler must create predicate overlap across queries."""
        texts = [q.predicate.to_sql() for q in tiny_imdb.workload]
        conjunct_counts: dict[str, int] = {}
        for text in texts:
            for part in text.strip("()").split(" AND "):
                conjunct_counts[part] = conjunct_counts.get(part, 0) + 1
        assert max(conjunct_counts.values()) >= 3
