"""Interest drift in action: the session notices and adapts (paper §4.4).

Run with::

    python examples/drift_session.py

A session is trained on publication-centric MAS queries. The user then
shifts to author-centric exploration; the answerability estimator flags
the new queries as deviating from the training workload, and once three
deviating queries accumulate (the paper's trigger), the model fine-tunes
itself — after which the new interest answers well from the refreshed
approximation set.
"""

from __future__ import annotations

from repro import ASQPConfig, ASQPSystem, load_mas
from repro.datasets import Workload
from repro.db import sql


def main() -> None:
    bundle = load_mas(scale=0.4)
    # Train only on the publication/venue part of the workload.
    publication_queries = [
        q for q in bundle.workload if "author" not in q.tables
    ]
    print(f"training on {len(publication_queries)} publication-centric queries...")
    config = ASQPConfig(
        memory_budget=500,
        n_iterations=20,
        fine_tune_iterations=6,
        seed=5,
    )
    session = ASQPSystem(config).fit(
        bundle.db, Workload(list(publication_queries))
    )
    print(f"ready: {session.approximation_set}\n")

    # The user's interest drifts to authors.
    drifted = [
        sql("SELECT author.name FROM author WHERE author.h_index > 20"),
        sql("SELECT author.name FROM author "
            "WHERE author.affiliation_country = 'il' AND author.h_index > 5"),
        sql("SELECT author.name, author.h_index FROM author "
            "WHERE author.affiliation_country IN ('us', 'uk')"),
        sql("SELECT author.name FROM author WHERE author.h_index BETWEEN 10 AND 30"),
    ]

    for i, query in enumerate(drifted, start=1):
        deviation = session.estimator.deviation_confidence(query)
        outcome = session.query(query)
        print(f"[{i}] {query.to_sql()[:70]}")
        print(f"    deviation confidence {deviation:.2f}; "
              f"pending drift count {session.drift_detector.pending_count}; "
              f"fine-tuned: {outcome.fine_tuned}")
    print()

    print(f"drift events fired: {session.drift_detector.events_fired}")
    print(f"model fine-tune count: {session.model.fine_tune_count}")

    # After fine-tuning the author queries are familiar and answerable.
    estimate = session.estimator.estimate(drifted[0])
    print(f"post-fine-tune familiarity of the first drifted query: "
          f"{estimate.familiarity:.2f} (confidence {estimate.confidence:.2f})")
    author_rows = session.approximation_set.rows.get("author", set())
    print(f"approximation set now holds {len(author_rows)} author tuples")


if __name__ == "__main__":
    main()
