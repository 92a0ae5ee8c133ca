"""Figure 2: quality (Eq. 1 score), setup time and per-query-batch time for
ASQP-RL, ASQP-Light and the ten baselines, on IMDB and MAS.

Paper shape to reproduce: ASQP-RL tops the Score column on both datasets
with ASQP-Light close behind at roughly half the setup time; the VAE
scores near zero on non-aggregate queries; RAN is the fastest setup but
low quality; GRE/BRT hit their (scaled) time budgets. Here BRT does, but
GRE finishes well inside its budget (each pick scores every candidate in
one pass) and on MAS scores above ASQP-RL.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    FIG2_METHODS,
    PAPER_FIG2_SCORES,
    bench_splits,
    emit,
    evaluate_over_splits,
)

#: Scaled-down stand-in for the paper's 48-hour search budget. The paper's
#: GRE/BRT hit their budget (GRE never finished on IMDB); at our ~1000x
#: smaller scale the equivalent budget is a few seconds. It binds BRT;
#: GRE completes in about a second on both datasets.
SEARCH_BUDGET_SECONDS = 8.0


#: The headline table runs ASQP-RL at its full-strength profile (the
#: sweep figures use the cheaper SWEEP_PROFILE).
FULL_ASQP = dict(
    n_iterations=60,
    early_stopping_patience=12,
    episodes_per_actor=2,
    action_space_target=1000,
    n_candidate_rollouts=10,
)


def _run_dataset(bundle, k: int) -> list[dict]:
    rows = []
    for method in FIG2_METHODS:
        budget = SEARCH_BUDGET_SECONDS if method in ("BRT", "GRE") else None
        aggregated = evaluate_over_splits(
            bundle,
            method,
            k=k,
            frame_size=50,
            n_splits=bench_splits(),
            base_seed=7,
            time_budget=budget,
            asqp_overrides=FULL_ASQP if method == "ASQP-RL" else None,
        )
        rows.append(
            {
                "method": method,
                "score": aggregated.quality_mean,
                "score_std": aggregated.quality_std,
                "setup_seconds": aggregated.setup_mean,
                "setup_std": aggregated.setup_std,
                "query_avg_seconds": aggregated.query_avg_mean,
                "completed": aggregated.completed,
            }
        )
    return rows


def _emit(name: str, rows: list[dict], paper_index: int) -> None:
    headers = ["Method", "Score", "Setup(s)", "QueryAvg(ms)", "Budget", "Paper score"]
    table_rows = []
    for row in rows:
        paper = PAPER_FIG2_SCORES.get(row["method"], (float("nan"),) * 2)[paper_index]
        table_rows.append(
            [
                row["method"],
                f"{row['score']:.3f}±{row['score_std']:.3f}",
                f"{row['setup_seconds']:.1f}±{row['setup_std']:.1f}",
                f"{row['query_avg_seconds'] * 1000:.1f}",
                "ok" if row["completed"] else "TIMEOUT",
                "N/A" if not np.isfinite(paper) else f"{paper:.3f}",
            ]
        )
    emit(
        f"fig2_{name}",
        headers,
        table_rows,
        {"rows": rows, "k": None},
        title=f"Figure 2 — {name.upper()}: quality and running time",
    )


@pytest.mark.benchmark(group="fig2")
def test_fig2_imdb(benchmark, imdb_bundle):
    rows = benchmark.pedantic(
        _run_dataset, args=(imdb_bundle, 1000), rounds=1, iterations=1
    )
    _emit("imdb", rows, paper_index=0)
    scores = {row["method"]: row["score"] for row in rows}
    best_baseline = max(
        value for method, value in scores.items()
        if method not in ("ASQP-RL", "ASQP-Light")
    )
    assert scores["ASQP-RL"] >= best_baseline * 0.9, (
        "ASQP-RL should top (or tie) every baseline on IMDB"
    )
    assert scores["VAE"] < 0.1, "generative tuples must not count as answers"


@pytest.mark.benchmark(group="fig2")
def test_fig2_mas(benchmark, mas_bundle):
    rows = benchmark.pedantic(
        _run_dataset, args=(mas_bundle, 500), rounds=1, iterations=1
    )
    _emit("mas", rows, paper_index=1)
    scores = {row["method"]: row["score"] for row in rows}
    assert scores["ASQP-RL"] > scores["RAN"]
    assert scores["VAE"] < 0.1
