"""Figure 4: problem justification — cumulative average direct-query
latency on progressively larger copies of the IMDB data.

The paper blows up IMDB and shows that even at modest sizes, averaging
over the first queries of a session quickly reaches hours of cumulative
wait. Here the database grows ×{1, 2, 4, 8, 16, 64} as disjoint copies of
the data (``Database.scale``: copy i joins only copy i), so every query
returns exactly f times its rows at ×f, and the series is the cumulative
mean per-query latency after 1..N executed queries. Latency grows with the
database, but an in-memory direct query here costs milliseconds, so the
paper's minutes-to-hours of waiting are not reproduced at this scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import emit
from repro.db import timed_execute

SCALE_FACTORS = [1, 2, 4, 8, 16, 64]
N_SESSION_QUERIES = 8


def _run(bundle) -> list[dict]:
    rng = np.random.default_rng(3)
    order = rng.permutation(len(bundle.workload))[:N_SESSION_QUERIES]
    queries = [bundle.workload.queries[int(i)] for i in order]
    rows = []
    for factor in SCALE_FACTORS:
        blown = bundle.db.scale(factor)
        elapsed: list[float] = []
        throughput: list[float] = []
        outputs: list[int] = []
        for query in queries:
            timing = timed_execute(blown, query)
            elapsed.append(timing.seconds)
            throughput.append(timing.rows_per_second)
            outputs.append(len(timing.result))
        cumulative_mean = np.cumsum(elapsed) / np.arange(1, len(elapsed) + 1)
        rows.append(
            {
                "scale_factor": factor,
                "total_rows": blown.total_rows(),
                "per_query_seconds": elapsed,
                "per_query_output_rows": outputs,
                "per_query_rows_per_second": throughput,
                "mean_rows_per_second": float(np.mean(throughput)),
                "cumulative_mean_seconds": cumulative_mean.tolist(),
                "final_cumulative_mean": float(cumulative_mean[-1]),
            }
        )
    return rows


@pytest.mark.benchmark(group="fig4")
def test_fig4_direct_query_cost(benchmark, imdb_bundle):
    rows = benchmark.pedantic(_run, args=(imdb_bundle,), rounds=1, iterations=1)
    emit(
        "fig4_direct_query_cost",
        [
            "Scale",
            "Rows",
            *[f"after {i + 1} queries (ms)" for i in range(N_SESSION_QUERIES)],
            "rows/s",
        ],
        [
            [
                f"x{r['scale_factor']}",
                r["total_rows"],
                *[f"{v * 1000:.1f}" for v in r["cumulative_mean_seconds"]],
                f"{r['mean_rows_per_second']:.0f}",
            ]
            for r in rows
        ],
        {"rows": rows},
        title="Figure 4 — cumulative mean direct-query latency vs database scale",
    )
    # Disjoint copies: every query returns exactly f times its x1 rows...
    base = rows[0]["per_query_output_rows"]
    for r in rows:
        assert r["per_query_output_rows"] == [r["scale_factor"] * n for n in base]
    # Latency grows with database size...
    finals = [r["final_cumulative_mean"] for r in rows]
    assert finals[-1] > finals[0]
    # ...and the largest scale is markedly slower than the smallest.
    assert finals[-1] > 2.0 * finals[0]
