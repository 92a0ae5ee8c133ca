"""Tests for the benchmark harness and reporting helpers."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from repro.bench import (
    FIG2_METHODS,
    bench_asqp_config,
    evaluate_method,
    evaluate_over_splits,
    format_table,
    measure_query_batch,
    save_results,
)
from repro.bench.reporting import bench_scale


class TestConfigFactory:
    def test_base_config(self):
        config = bench_asqp_config(500, 25)
        assert config.memory_budget == 500
        assert config.frame_size == 25

    def test_light_config_profile(self):
        full = bench_asqp_config(500, 50)
        light = bench_asqp_config(500, 50, light=True)
        assert light.training_fraction < full.training_fraction
        assert light.n_iterations < full.n_iterations

    def test_overrides_win(self):
        config = bench_asqp_config(500, 50, light=True, n_iterations=99)
        assert config.n_iterations == 99

    def test_presets_pinned(self):
        """Every figure and end-to-end workload starts from these two
        dicts; a default edited in ``ASQPConfig`` must show up here."""
        full = {
            "memory_budget": 1000, "frame_size": 50,
            "n_query_representatives": None, "training_fraction": 1.0,
            "action_space_target": 800, "group_size": 4,
            "exact_row_share": 0.8, "learning_rate": 1e-3, "kl_coef": 0.2,
            "entropy_coef": 0.001, "n_actors": 8, "episodes_per_actor": 1,
            "n_iterations": 45, "update_epochs": 4, "query_batch_size": 16,
            "early_stopping_patience": 12, "environment": "gsl",
            "gsl_delta_rewards": True, "use_ppo_clip": True,
            "use_actor_critic": True, "drp_horizon": 200,
            "n_candidate_rollouts": 12, "fine_tune_iterations": 10, "seed": 7,
        }
        light = {
            **full, "training_fraction": 0.25, "learning_rate": 2e-3,
            "n_iterations": 16, "early_stopping_patience": 5,
            "action_space_target": 500, "n_candidate_rollouts": 6,
        }
        assert asdict(bench_asqp_config(1000, 50, seed=7)) == full
        assert asdict(bench_asqp_config(1000, 50, light=True, seed=7)) == light


class TestEvaluate:
    def test_baseline_result_fields(self, tiny_flights):
        train, test = tiny_flights.workload.split(0.3, np.random.default_rng(0))
        result = evaluate_method(
            tiny_flights, train, test, "RAN", k=50, frame_size=50, seed=0
        )
        assert result.name == "RAN"
        assert 0.0 <= result.quality <= 1.0
        assert result.setup_seconds >= 0
        assert result.query_avg_seconds > 0
        assert result.database is not None

    def test_asqp_result_includes_model(self, tiny_flights):
        train, test = tiny_flights.workload.split(0.3, np.random.default_rng(0))
        result = evaluate_method(
            tiny_flights, train, test, "ASQP-RL", k=50, frame_size=50, seed=0,
            asqp_overrides=dict(
                n_iterations=2, n_actors=2, episodes_per_actor=1,
                action_space_target=30, n_query_representatives=4,
                n_candidate_rollouts=1,
            ),
        )
        assert result.model is not None
        assert result.model.setup_seconds > 0

    def test_over_splits_aggregates(self, tiny_flights):
        aggregated = evaluate_over_splits(
            tiny_flights, "RAN", k=50, frame_size=50, n_splits=2
        )
        assert aggregated.n_splits == 2
        assert aggregated.quality_std >= 0
        row = aggregated.row()
        assert row[0] == "RAN"

    def test_fig2_method_list_complete(self):
        assert len(FIG2_METHODS) == 12
        assert "ASQP-RL" in FIG2_METHODS and "GRE" in FIG2_METHODS


class TestQueryBatchTiming:
    def test_positive(self, tiny_flights):
        elapsed = measure_query_batch(tiny_flights.db, tiny_flights.workload)
        assert elapsed > 0

    def test_regenerator_called(self, tiny_flights):
        calls = []

        def regenerator():
            calls.append(1)
            return tiny_flights.db

        measure_query_batch(tiny_flights.db, tiny_flights.workload, regenerator)
        assert calls == [1]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1.23456], ["bb", 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.235" in text

    def test_save_results_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_results("unit_test", {"rows": [1, 2, 3]})
        with open(path) as handle:
            record = json.load(handle)
        assert record["experiment"] == "unit_test"
        assert record["rows"] == [1, 2, 3]

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 0.35
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ValueError):
            bench_scale()


class TestAsciiChart:
    def test_contains_all_markers_and_labels(self):
        from repro.bench import ascii_chart

        chart = ascii_chart(
            {"a": [1.0, 2.0], "b": [2.0, 1.0]}, ["x0", "x1"], title="T"
        )
        assert "T" in chart
        assert "o a" in chart and "x b" in chart
        assert "x0" in chart and "x1" in chart

    def test_length_mismatch_rejected(self):
        from repro.bench import ascii_chart
        import pytest

        with pytest.raises(ValueError):
            ascii_chart({"a": [1.0]}, ["x", "y"])

    def test_flat_series_ok(self):
        from repro.bench import ascii_chart

        chart = ascii_chart({"a": [1.0, 1.0, 1.0]}, [1, 2, 3])
        assert "o" in chart

    def test_empty_rejected(self):
        from repro.bench import ascii_chart
        import pytest

        with pytest.raises(ValueError):
            ascii_chart({}, [])
