"""Shared fixtures and helpers for the paper-reproduction benchmarks.

Every ``bench_fig*.py`` regenerates one table/figure of the paper's §6.
Conventions:

* dataset sizes scale with ``REPRO_BENCH_SCALE`` (default 0.35, the
  scale ``bench_scale()`` stamps into every record's provenance; ~1000x
  below the paper's data, the *shape* of results is what reproduces);
* each benchmark prints its table (visible with ``pytest -s``) and always
  writes both a JSON record and the formatted text table under
  ``bench_results/`` (override with ``REPRO_RESULTS_DIR``);
* ``REPRO_BENCH_SPLITS`` controls train/test repetitions where the paper
  averages over partitions (default 1).

Every ASQP-RL run starts from one of the two presets through
``bench_asqp_config``: ``ASQPConfig()`` or ``ASQPConfig.light()``. Fig. 2's
ASQP-RL row runs ``ASQPConfig(**FULL_ASQP)``, its Light row
``ASQPConfig.light()``; the many-training-run figures shorten the run with
``SWEEP_PROFILE``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import bench_scale
from repro.datasets import load_flights, load_imdb, load_mas


@pytest.fixture(scope="session")
def imdb_bundle():
    return load_imdb(scale=bench_scale(), n_queries=50)


@pytest.fixture(scope="session")
def mas_bundle():
    return load_mas(scale=bench_scale(), n_queries=44)


@pytest.fixture(scope="session")
def flights_bundle():
    return load_flights(scale=bench_scale(), n_queries=40)


@pytest.fixture(scope="session")
def split_rng():
    return np.random.default_rng(2024)
