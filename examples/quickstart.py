"""Quickstart: train ASQP-RL on the IMDB benchmark and query it.

Run with::

    python examples/quickstart.py

Covers the core loop of the paper in ~a minute: load a database and its
query workload, train the RL model offline, get the approximation set,
and answer exploratory queries from it — falling back to the full
database when the estimator says the subset can't answer well.
"""

from __future__ import annotations

import time

from repro import ASQPConfig, ASQPSystem, load_imdb
from repro.db import sql, timed_execute


def main() -> None:
    # 1. A database plus the query workload of past exploration sessions.
    bundle = load_imdb(scale=0.3, n_queries=40)
    print(f"database: {bundle.db}")
    print(f"workload: {len(bundle.workload)} SPJ queries\n")

    # 2. Offline training: learn which tuples to keep (the paper's Alg. 1).
    config = ASQPConfig(
        memory_budget=600,     # k — total tuples the approximation set may hold
        frame_size=50,         # F — result rows a person actually reads
        n_iterations=25,
        seed=0,
    )
    print(f"training ASQP-RL (k={config.memory_budget}, F={config.frame_size})...")
    start = time.perf_counter()
    session = ASQPSystem(config).fit(bundle.db, bundle.workload)
    print(f"trained in {time.perf_counter() - start:.1f}s; "
          f"approximation set: {session.approximation_set}\n")

    # 3. Interactive exploration. Known-workload queries answer from the
    #    approximation set in milliseconds.
    query = bundle.workload.queries[0]
    print(f"Q1 (from the workload): {query.to_sql()}")
    outcome = session.query(query)
    source = "approximation set" if outcome.used_approximation else "full database"
    print(f"  -> {len(outcome)} rows from the {source} "
          f"in {outcome.elapsed_seconds * 1000:.1f}ms "
          f"(confidence {outcome.estimate.confidence:.2f})\n")

    # 4. A novel ad-hoc query: the estimator notices it is unfamiliar and
    #    routes it to the full database for an exact answer.
    novel = sql(
        "SELECT person.name FROM person WHERE person.birth_year < 1940 "
        "AND person.gender = 'f'"
    )
    print(f"Q2 (ad hoc): {novel.to_sql()}")
    outcome = session.query(novel)
    source = "approximation set" if outcome.used_approximation else "full database"
    print(f"  -> {len(outcome)} rows from the {source} "
          f"(confidence {outcome.estimate.confidence:.2f})\n")

    # 5. Compare against querying the full database directly.
    _, full_seconds = timed_execute(bundle.db, query)
    _, approx_seconds = timed_execute(session.approx_db, query)
    print(f"direct execution of Q1: {full_seconds * 1000:.1f}ms on the full data "
          f"vs {approx_seconds * 1000:.1f}ms on the approximation set")


if __name__ == "__main__":
    main()
