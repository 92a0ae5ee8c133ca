"""A realistic movie-exploration session over the IMDB benchmark.

Run with::

    python examples/imdb_exploration.py

Plays the scenario from the paper's introduction: a data scientist
explores a movie database with complex select-project-join queries —
which companies release highly rated science fiction? who acts in recent
French productions? — where each direct query on the full data is slow.
ASQP-RL trains once offline, then the whole session runs against the
approximation set, including an aggregate drill-down at the end (§6.4).
"""

from __future__ import annotations

from repro import ASQPConfig, ASQPSystem, load_imdb
from repro.db import sql


SESSION = [
    # Non-aggregate exploration (the paper's primary target).
    "SELECT title.title, title.rating FROM title "
    "WHERE title.kind = 'movie' AND title.rating > 7.5 "
    "ORDER BY title.rating DESC LIMIT 20",

    "SELECT title.title, company.name, company.country_code "
    "FROM title, movie_companies, company "
    "WHERE title.id = movie_companies.movie_id "
    "AND movie_companies.company_id = company.id "
    "AND company.country_code IN ('fr', 'de') "
    "AND title.production_year > 2000",

    "SELECT title.title, person.name, cast_info.role "
    "FROM title, cast_info, person "
    "WHERE title.id = cast_info.movie_id "
    "AND cast_info.person_id = person.id "
    "AND cast_info.role = 'director' AND title.rating > 7.0",

    "SELECT title.title, movie_info.info FROM title, movie_info "
    "WHERE title.id = movie_info.movie_id "
    "AND movie_info.info = 'scifi' AND title.production_year BETWEEN 1995 AND 2015",

    # Aggregate drill-down — not what the model trained for, but the
    # subset preserves group distributions well enough (paper §6.4).
    "SELECT kind, COUNT(*) FROM title WHERE production_year > 2000 GROUP BY kind",
    "SELECT kind, AVG(rating) FROM title GROUP BY kind",
]


def main() -> None:
    bundle = load_imdb(scale=0.4, n_queries=50)
    print(f"exploring {bundle.db}\n")

    config = ASQPConfig(
        memory_budget=1000,
        frame_size=50,
        n_iterations=30,
        seed=1,
    )
    print("training the mediator on the historical workload...")
    session = ASQPSystem(config).fit(bundle.db, bundle.workload)
    approx = session.approximation_set
    kept = {t: len(ids) for t, ids in sorted(approx.rows.items())}
    print(f"approximation set ready: {approx.total_size()} tuples {kept}\n")

    for i, text in enumerate(SESSION, start=1):
        query = sql(text)
        outcome = session.query(query)
        source = "approx" if outcome.used_approximation else "full DB"
        print(f"[{i}] {text[:78]}...")
        print(
            f"    {len(outcome)} rows via {source} "
            f"({outcome.elapsed_seconds * 1000:.1f}ms, "
            f"confidence {outcome.estimate.confidence:.2f})"
        )
        if query.is_aggregate and outcome.used_approximation:
            for row in outcome.result.rows[:4]:
                print(f"      {row}")
        print()

    answered_fast = sum(
        1 for text in SESSION
        if session.estimator.estimate(sql(text)).answerable
    )
    print(
        f"{answered_fast}/{len(SESSION)} session queries deemed answerable "
        "from the approximation set"
    )


if __name__ == "__main__":
    main()
