"""No-workload scenario: ASQP-RL without any historical queries.

Run with::

    python examples/flights_no_workload.py

Demonstrates §4.5 of the paper: when no query workload exists, the system
generates one from table statistics (numeric means/stds, popularity-
sampled categorical values, standard templates), trains on it, and then
*aligns itself with the user* during the session — each batch of real user
queries refines the generator and fine-tunes the model.
"""

from __future__ import annotations

import numpy as np

from repro import ASQPConfig, ASQPSystem, load_flights, score
from repro.datasets import Workload


def main() -> None:
    bundle = load_flights(scale=0.4)
    print(f"database: {bundle.db}")
    print("no workload provided — the system will generate one\n")

    config = ASQPConfig(
        memory_budget=800,
        frame_size=50,
        n_iterations=20,
        fine_tune_iterations=6,
        seed=2,
    )
    session = ASQPSystem(config).fit(
        bundle.db, workload=None, n_generated_queries=30
    )
    print(f"trained on a generated workload; "
          f"approximation set holds {session.approximation_set.total_size()} tuples\n")

    # The user's real interest (hidden from training): delay analysis.
    user_queries = list(bundle.workload)[:15]
    for step in range(3):
        batch = user_queries[step * 5 : (step + 1) * 5]
        seen = Workload(user_queries[: (step + 1) * 5])
        quality = score(bundle.db, session.approx_db, seen, frame_size=50)
        print(f"step {step}: quality on the user's queries so far = {quality:.3f}")
        print(f"        fine-tuning on {len(batch)} new user queries "
              "(+ generator refinement)...")
        session.fine_tune(list(batch))

    final = score(
        bundle.db, session.approx_db, Workload(list(user_queries)), frame_size=50
    )
    print(f"\nfinal quality on the user's 15 queries: {final:.3f}")
    print(f"model fine-tuned {session.model.fine_tune_count} times; "
          f"action space grew to {len(session.model.action_space)} groups")


if __name__ == "__main__":
    main()
