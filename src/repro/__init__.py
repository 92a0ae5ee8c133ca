"""ASQP-RL: learning approximation sets for exploratory non-aggregate queries.

A full reproduction of "Learning Approximation Sets for Exploratory
Queries" (SIGMOD 2024): an RL-trained mediator that selects a small,
queryable subset of a database (the *approximation set*) so complex SPJ
queries answer in seconds instead of minutes.

Quickstart::

    from repro import ASQPSystem, ASQPConfig, load_imdb

    bundle = load_imdb(scale=0.3)
    session = ASQPSystem(ASQPConfig(memory_budget=500)).fit(
        bundle.db, bundle.workload
    )
    outcome = session.query(bundle.workload.queries[0])
    rows, src = len(outcome), outcome.used_approximation  # answered from S?

Subpackages
-----------
``repro.db``        — in-memory relational engine (tables, SQL, joins, stats)
``repro.embedding`` — query/tuple embeddings, relaxation, clustering
``repro.rl``        — numpy actor-critic PPO substrate
``repro.core``      — the ASQP-RL system itself
``repro.baselines`` — the 12 comparison methods of the paper's §6
``repro.datasets``  — synthetic IMDB-JOB / MAS / FLIGHTS bundles
``repro.bench``     — experiment harness used by ``benchmarks/``
``repro.obs``       — tracing spans, telemetry streams, run views
"""

from .core import (
    ASQPConfig,
    ASQPSession,
    ASQPSystem,
    ASQPTrainer,
    ApproximationSet,
    TrainedModel,
    aggregate_relative_error,
    load_model,
    relative_error,
    save_model,
    result_diversity,
    score,
)
from .datasets import DatasetBundle, Workload, load_flights, load_imdb, load_mas
from .db import Database, SPJQuery, Table, execute, execute_aggregate, sql

__version__ = "1.0.0"

__all__ = [
    "ASQPConfig",
    "ASQPSession",
    "ASQPSystem",
    "ASQPTrainer",
    "ApproximationSet",
    "Database",
    "DatasetBundle",
    "SPJQuery",
    "Table",
    "TrainedModel",
    "Workload",
    "__version__",
    "aggregate_relative_error",
    "execute",
    "execute_aggregate",
    "load_flights",
    "load_model",
    "save_model",
    "load_imdb",
    "load_mas",
    "relative_error",
    "result_diversity",
    "score",
    "sql",
]
