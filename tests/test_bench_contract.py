"""What the end-to-end benchmark (``benchmarks/e2e/``) reads of the program.

That directory is frozen, and ``pytest`` collects only ``tests/``, so a
``src/`` name its layer wrappers patch, or a model attribute its lifecycle
reads, could disappear unnoticed until the benchmark itself runs. These
tests fail first.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e import layers
from benchmarks.e2e.tracing import Recorder
from repro.core import ASQPConfig, ASQPTrainer


def test_every_layer_boundary_the_benchmark_wraps_exists():
    recorder = Recorder()
    try:
        layers.instrument(recorder, None)
    finally:
        recorder.restore()
    assert recorder.spans == []


@pytest.fixture(scope="module")
def micro_model(tiny_flights):
    config = ASQPConfig(
        memory_budget=40, n_iterations=2, n_actors=2, episodes_per_actor=1,
        action_space_target=30, n_query_representatives=4,
        n_candidate_rollouts=1, seed=5,
    )
    return ASQPTrainer(tiny_flights.db, tiny_flights.workload, config).train()


def test_a_trained_model_has_what_the_lifecycle_reads(micro_model):
    prep = micro_model.preprocessed
    assert prep.timings and all(
        isinstance(seconds, float) for seconds in prep.timings.values()
    )
    assert prep.n_representatives == len(prep.representatives) > 0
    assert micro_model.history
    for record in micro_model.history:
        assert record.rollout_seconds > 0.0
        assert record.update_seconds > 0.0
    assert micro_model.approximation_set(greedy=False).keys()
