"""Aggregate AQP from an approximation set (paper §6.4).

Run with::

    python examples/aggregate_aqp.py

ASQP-RL trains for non-aggregate queries, yet the same approximation set
answers COUNT/SUM/AVG queries "surprisingly well" (paper §6.4): COUNT and
SUM answers are rescaled by a *self-calibrated* inclusion rate the model
measures on its own training queries, AVG is scale-free. The example
compares against the two dedicated AQP engines the paper uses — gAQP
(tabular VAE) and DeepDB (Sum-Product Network).
"""

from __future__ import annotations

import numpy as np

from repro import ASQPConfig, load_flights
from repro.baselines import GAQPEstimator, SPNModel, UnsupportedQueryError
from repro.core import ASQPTrainer, aggregate_relative_error, relative_error
from repro.db import execute_aggregate


def main() -> None:
    bundle = load_flights(scale=0.4)
    rng = np.random.default_rng(0)
    train, test = bundle.aggregate_workload.split(0.4, rng)
    print(f"database: {bundle.db}")
    print(f"aggregate workload: {len(train)} train / {len(test)} test queries\n")

    # ASQP-RL in aggregate mode: larger frame size, ~8% memory.
    memory = max(1, int(0.08 * bundle.db.total_rows()))
    config = ASQPConfig(
        memory_budget=memory, frame_size=200,
        n_iterations=25, seed=0,
    )
    print(f"training ASQP-RL (k={memory}, F=200) on the rewritten workload...")
    model = ASQPTrainer(bundle.db, train, config).train()
    approx_db = model.approximation_database()
    scale = model.calibrated_count_scale()
    print(f"self-calibrated COUNT/SUM scale: x{scale:.2f}\n")

    print("training gAQP (VAE) and DeepDB (SPN)...")
    gaqp = GAQPEstimator(bundle.db, memory_fraction=0.05, epochs=20, seed=1)
    spn = SPNModel(bundle.db.table("flights"), seed=2)

    asqp_errors, gaqp_errors, spn_errors = [], [], []
    for query in test.queries:
        asqp_errors.append(
            aggregate_relative_error(bundle.db, approx_db, query, scale_counts=scale)
        )
        gaqp_errors.append(gaqp.answer_error(query))
        try:
            estimated = spn.answer(query)
            truth = execute_aggregate(bundle.db, query).as_mapping()
            per_group = []
            for key, true_row in truth.items():
                est_row = estimated.get(key)
                for name, value in true_row.items():
                    if est_row is None or name not in est_row:
                        per_group.append(1.0)
                    else:
                        per_group.append(relative_error(est_row[name], value))
            spn_errors.append(float(np.mean(per_group)) if per_group else 0.0)
        except UnsupportedQueryError:
            spn_errors.append(1.0)

    print("\nmean relative error over the test queries (lower is better):")
    print(f"  ASQP-RL : {np.mean(asqp_errors):.3f}")
    print(f"  gAQP    : {np.mean(gaqp_errors):.3f}")
    print(f"  DeepDB  : {np.mean(spn_errors):.3f}")

    # Show one concrete group-by answer side by side.
    query = next(q for q in test.queries if q.group_by)
    truth = execute_aggregate(bundle.db, query).as_mapping()
    approx = execute_aggregate(approx_db, query).as_mapping()
    name = query.aggregates[0].output_name()
    print(f"\nexample: {query.to_sql()[:75]}")
    shown = 0
    for key, true_row in truth.items():
        approx_row = approx.get(key)
        estimate = approx_row[name] if approx_row else float("nan")
        if name.startswith(("count", "sum")):
            estimate *= scale
        print(f"  group {key}: truth={true_row[name]:.1f} asqp≈{estimate:.1f}")
        shown += 1
        if shown >= 5:
            break


if __name__ == "__main__":
    main()
