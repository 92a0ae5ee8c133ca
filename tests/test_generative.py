"""Tests for the VAE codec/model, gAQP, and the DeepDB-style SPN."""

import numpy as np
import pytest

from repro.baselines import GAQPEstimator, SPNModel, TabularCodec, TabularVAE
from repro.baselines import vae as vae_module
from repro.baselines.deepdb import (
    Interval,
    UnsupportedQueryError,
    ValueSet,
    conditions_from_predicate,
)
from repro.db import execute_aggregate, sql


class TestTabularCodec:
    def test_width(self, movies):
        codec = TabularCodec(movies)
        # 3 numeric columns + 2 categorical (title: 6 distinct + other,
        # genre: 3 distinct + other)
        assert codec.width == 3 + 7 + 4

    def test_encode_shape_and_standardization(self, movies):
        codec = TabularCodec(movies)
        matrix = codec.encode()
        assert matrix.shape == (6, codec.width)
        # numeric columns standardized: mean ~0
        assert abs(matrix[:, 0].mean()) < 1e-9

    def test_one_hot_rows_sum_to_one(self, movies):
        codec = TabularCodec(movies)
        matrix = codec.encode()
        genre_codec = [c for c in codec.columns if c.name == "genre"][0]
        offset = sum(c.width for c in codec.columns[: codec.columns.index(genre_codec)])
        block = matrix[:, offset : offset + genre_codec.width]
        assert np.allclose(block.sum(axis=1), 1.0)

    def test_decode_round_trip_types(self, movies, rng):
        codec = TabularCodec(movies)
        decoded = codec.decode(codec.encode(), rng)
        assert isinstance(decoded["year"][0], int)
        assert isinstance(decoded["rating"][0], float)
        assert all(isinstance(v, str) for v in decoded["genre"])

    def test_decode_categories_from_vocabulary(self, movies, rng):
        codec = TabularCodec(movies)
        decoded = codec.decode(codec.encode(), rng)
        assert set(decoded["genre"]) <= {"drama", "action", "scifi"}


class TestTabularVAE:
    def test_training_reduces_loss(self, tiny_flights, monkeypatch):
        monkeypatch.setattr(vae_module, "LATENT_DIM", 4)
        table = tiny_flights.db.table("flights")
        codec = TabularCodec(table)
        vae = TabularVAE(codec, seed=0)
        losses = vae.train(codec.encode(), epochs=15)
        assert losses[-1] < losses[0]

    def test_generation_shapes(self, movies, rng, monkeypatch):
        monkeypatch.setattr(vae_module, "LATENT_DIM", 4)
        codec = TabularCodec(movies)
        vae = TabularVAE(codec, seed=1)
        vae.train(codec.encode(), epochs=5)
        generated = vae.generate(10, rng)
        assert len(generated["year"]) == 10
        assert set(generated) == set(movies.schema.column_names)


class TestGAQP:
    def test_memory_fraction_validation(self, tiny_flights):
        with pytest.raises(ValueError):
            GAQPEstimator(tiny_flights.db, memory_fraction=0.0, epochs=1)

    def test_answer_error_bounded(self, tiny_flights):
        estimator = GAQPEstimator(
            tiny_flights.db, memory_fraction=0.05, epochs=8, seed=0
        )
        q = tiny_flights.aggregate_workload.queries[0]
        error = estimator.answer_error(q)
        assert 0.0 <= error <= 1.0


class TestConditionTranslation:
    COLUMNS = ["month", "carrier", "distance"]

    def test_between(self):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.month BETWEEN 2 AND 5")
        conditions = conditions_from_predicate(q.predicate, self.COLUMNS, "flights")
        assert conditions["month"] == Interval(2.0, 5.0)

    def test_one_sided(self):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.distance > 500")
        conditions = conditions_from_predicate(q.predicate, self.COLUMNS, "flights")
        assert conditions["distance"].low == 500.0
        assert conditions["distance"].high == np.inf

    def test_intersection(self):
        q = sql(
            "SELECT COUNT(*) FROM flights WHERE flights.month > 2 AND flights.month < 8"
        )
        conditions = conditions_from_predicate(q.predicate, self.COLUMNS, "flights")
        assert conditions["month"] == Interval(2.0, 8.0)

    def test_categorical_in(self):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.carrier IN ('AA','DL')")
        conditions = conditions_from_predicate(q.predicate, self.COLUMNS, "flights")
        assert conditions["carrier"] == ValueSet(frozenset({"AA", "DL"}))

    def test_unsupported_like(self):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.carrier LIKE 'A%'")
        with pytest.raises(UnsupportedQueryError):
            conditions_from_predicate(q.predicate, self.COLUMNS, "flights")

    def test_unknown_column(self):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.bogus = 1")
        with pytest.raises(UnsupportedQueryError):
            conditions_from_predicate(q.predicate, self.COLUMNS, "flights")


@pytest.fixture(scope="module")
def spn(tiny_flights):
    return SPNModel(tiny_flights.db.table("flights"), seed=0)


class TestSPN:
    def test_unconditional_count_exact(self, spn, tiny_flights):
        q = sql("SELECT COUNT(*) FROM flights")
        estimate = spn.answer(q)[()]["count(*)"]
        assert estimate == pytest.approx(len(tiny_flights.db.table("flights")), rel=0.01)

    def test_range_count_close(self, spn, tiny_flights):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.month BETWEEN 3 AND 6")
        truth = execute_aggregate(tiny_flights.db, q).rows[0]["count(*)"]
        estimate = spn.answer(q)[()]["count(*)"]
        assert abs(estimate - truth) / max(truth, 1) < 0.35

    def test_categorical_count_close(self, spn, tiny_flights):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.carrier = 'AA'")
        truth = execute_aggregate(tiny_flights.db, q).rows[0]["count(*)"]
        estimate = spn.answer(q)[()]["count(*)"]
        assert abs(estimate - truth) / max(truth, 1) < 0.35

    def test_sum_close(self, spn, tiny_flights):
        q = sql("SELECT SUM(distance) FROM flights WHERE flights.month BETWEEN 1 AND 6")
        truth = execute_aggregate(tiny_flights.db, q).rows[0]["sum(distance)"]
        estimate = spn.answer(q)[()]["sum(distance)"]
        assert abs(estimate - truth) / abs(truth) < 0.35

    def test_avg_close(self, spn, tiny_flights):
        q = sql("SELECT AVG(distance) FROM flights")
        truth = execute_aggregate(tiny_flights.db, q).rows[0]["avg(distance)"]
        estimate = spn.answer(q)[()]["avg(distance)"]
        assert abs(estimate - truth) / abs(truth) < 0.25

    def test_group_by_covers_groups(self, spn, tiny_flights):
        q = sql("SELECT carrier, COUNT(*) FROM flights GROUP BY carrier")
        truth = execute_aggregate(tiny_flights.db, q).as_mapping()
        estimate = spn.answer(q)
        # every true group should be present in the estimate
        missing = [k for k in truth if k not in estimate]
        assert len(missing) <= max(1, len(truth) // 5)

    def test_rejects_joins(self, spn):
        q = sql(
            "SELECT COUNT(*) FROM flights, carriers WHERE flights.carrier = carriers.code"
        )
        with pytest.raises(UnsupportedQueryError):
            spn.answer(q)

    def test_rejects_min_max(self, spn):
        q = sql("SELECT MAX(distance) FROM flights")
        with pytest.raises(UnsupportedQueryError):
            spn.answer(q)

    def test_empty_predicate_probability_zero(self, spn):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.month > 13")
        estimate = spn.answer(q)[()]["count(*)"]
        assert estimate == pytest.approx(0.0, abs=1.0)


class TestSPNPointConditions:
    """Integer group-by / equality conditions need discrete mass, not
    zero-measure intervals (regression test for the Fig. 12 G+AVG bug)."""

    def test_integer_equality_has_mass(self, spn, tiny_flights):
        q = sql("SELECT COUNT(*) FROM flights WHERE flights.month = 3")
        truth = execute_aggregate(tiny_flights.db, q).rows[0]["count(*)"]
        estimate = spn.answer(q)[()]["count(*)"]
        assert truth > 0
        assert abs(estimate - truth) / truth < 0.5

    def test_numeric_group_by_covers_groups(self, spn, tiny_flights):
        q = sql("SELECT month, COUNT(*) FROM flights GROUP BY month")
        truth = execute_aggregate(tiny_flights.db, q).as_mapping()
        estimate = spn.answer(q)
        missing = [k for k in truth if k not in estimate]
        assert len(missing) <= max(1, len(truth) // 5)

    def test_numeric_group_by_avg_reasonable(self, spn, tiny_flights):
        q = sql("SELECT month, AVG(distance) FROM flights GROUP BY month")
        truth = execute_aggregate(tiny_flights.db, q).as_mapping()
        estimate = spn.answer(q)
        errors = []
        for key, row in truth.items():
            if key in estimate:
                t = row["avg(distance)"]
                e = estimate[key]["avg(distance)"]
                errors.append(abs(e - t) / max(abs(t), 1e-9))
        assert errors, "no overlapping groups"
        assert np.median(errors) < 0.5
