"""Tests for the subset-selector baselines (RAN..VAE)."""

import numpy as np
import pytest

from repro.baselines import (
    baseline_names,
    make_baseline,
    plan_signature,
    skyline_layers,
)
from repro.core import score
from repro.db import execute, sql


@pytest.fixture(scope="module")
def split(tiny_flights):
    train, test = tiny_flights.workload.split(0.3, np.random.default_rng(5))
    return train, test


K = 80
F = 50


def _run(name, bundle, train, **kwargs):
    selector = make_baseline(name)
    rng = np.random.default_rng(42)
    return selector, selector.select(bundle.db, train, K, F, rng, **kwargs)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in baseline_names():
            assert make_baseline(name).name == name

    def test_case_insensitive(self):
        assert make_baseline("ran").name == "RAN"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            make_baseline("NOPE")


class TestBudgetInvariant:
    @pytest.mark.parametrize("name", ["RAN", "TOP", "CACH", "QRD", "VERD", "QUIK"])
    def test_subset_within_budget(self, name, tiny_flights, split):
        train, _ = split
        _, result = _run(name, tiny_flights, train)
        assert result.approximation is not None
        assert 0 < result.approximation.total_size() <= K

    @pytest.mark.parametrize("name", ["BRT", "GRE"])
    def test_search_methods_within_budget(self, name, tiny_flights, split):
        train, _ = split
        _, result = _run(name, tiny_flights, train, time_budget=1.0)
        assert result.approximation.total_size() <= K

    @pytest.mark.parametrize("name", ["RAN", "TOP", "CACH", "QRD", "VERD", "QUIK"])
    def test_subset_rows_come_from_database(self, name, tiny_flights, split):
        train, _ = split
        _, result = _run(name, tiny_flights, train)
        for table_name, ids in result.approximation.rows.items():
            base_ids = set(tiny_flights.db.table(table_name).row_ids.tolist())
            assert ids <= base_ids


class TestQualityOrdering:
    def test_workload_aware_beats_random(self, tiny_flights, split):
        """TOP/QUIK/CACH know the workload; RAN does not."""
        train, test = split
        scores = {}
        for name in ("RAN", "TOP", "QUIK", "CACH"):
            _, result = _run(name, tiny_flights, train)
            scores[name] = score(tiny_flights.db, result.database, test, F)
        best_aware = max(scores["TOP"], scores["QUIK"], scores["CACH"])
        assert best_aware >= scores["RAN"]

    def test_greedy_beats_random_given_time(self, tiny_flights, split):
        train, test = split
        _, greedy_result = _run("GRE", tiny_flights, train, time_budget=20.0)
        _, random_result = _run("RAN", tiny_flights, train)
        g = score(tiny_flights.db, greedy_result.database, test, F)
        r = score(tiny_flights.db, random_result.database, test, F)
        assert g >= r


class TestTimeBudgets:
    def test_brt_respects_budget(self, tiny_flights, split):
        import time

        train, _ = split
        # Measuring a real wall-clock budget is the point of this test.
        start = time.perf_counter()
        _, result = _run("BRT", tiny_flights, train, time_budget=0.5)
        assert time.perf_counter() - start < 5.0
        assert not result.completed  # BRT always runs out, as in the paper

    def test_gre_flags_incomplete_on_tiny_budget(self, tiny_flights, split):
        train, _ = split
        _, result = _run("GRE", tiny_flights, train, time_budget=0.001)
        assert not result.completed


class TestCacheBaseline:
    def test_extra_metrics_reported(self, tiny_flights, split):
        train, _ = split
        _, result = _run("CACH", tiny_flights, train)
        assert "hit_rate" in result.extra
        assert 0.0 <= result.extra["hit_rate"] <= 1.0


class TestVerdict:
    def test_sampling_fractions_recorded(self, tiny_flights, split):
        train, _ = split
        _, result = _run("VERD", tiny_flights, train)
        fractions = result.extra["sampling_fractions"]
        assert fractions
        for fraction in fractions.values():
            assert 0 < fraction <= 1


class TestQuickR:
    def test_plan_signature_groups_same_shape(self):
        a = sql("SELECT * FROM t WHERE t.x > 1")
        b = sql("SELECT * FROM t WHERE t.x > 99")
        c = sql("SELECT * FROM t WHERE t.y > 1")
        assert plan_signature(a) == plan_signature(b)
        assert plan_signature(a) != plan_signature(c)

    def test_catalog_size_reported(self, tiny_flights, split):
        train, _ = split
        _, result = _run("QUIK", tiny_flights, train)
        assert result.extra["n_signatures"] >= 1


class TestSkyline:
    def test_layers_maximal_first(self):
        features = np.asarray([
            [1.0, 1.0],
            [2.0, 2.0],   # dominates everything
            [0.5, 3.0],   # incomparable with [2,2]? no: 0.5<2 but 3>2 -> layer 1
            [0.4, 0.4],
        ])
        order = skyline_layers(features, max_rows=4)
        first_layer = set(order[:2])
        assert first_layer == {1, 2}
        assert order[-1] == 3

    def test_max_rows_respected(self):
        features = np.random.default_rng(0).standard_normal((20, 3))
        assert len(skyline_layers(features, max_rows=7)) == 7

    def test_runs_on_flights(self, tiny_flights, split):
        train, _ = split
        _, result = _run("SKY", tiny_flights, train)
        assert result.approximation.total_size() <= K


class TestVAE:
    def test_produces_synthetic_database(self, tiny_flights, split):
        train, _ = split
        selector, result = _run("VAE", tiny_flights, train)
        assert result.approximation is None
        assert result.extra.get("generative")
        # Synthetic database is queryable and roughly budget-sized.
        total = result.database.total_rows()
        assert 0 < total <= 2 * K

    def test_synthetic_tuples_score_near_zero(self, tiny_flights, split):
        train, test = split
        _, result = _run("VAE", tiny_flights, train)
        value = score(tiny_flights.db, result.database, test, F)
        assert value < 0.1  # the paper's core finding about generative AQP

    def test_regenerate_requires_select(self, tiny_flights):
        from repro.baselines import VAEBaseline

        vae = VAEBaseline()
        with pytest.raises(RuntimeError):
            vae.regenerate(tiny_flights.db, K, np.random.default_rng(0))

    def test_regenerate_fresh_database(self, tiny_flights, split):
        train, _ = split
        selector, _ = _run("VAE", tiny_flights, train)
        regenerated = selector.regenerate(tiny_flights.db, K, np.random.default_rng(9))
        assert regenerated.total_rows() > 0
