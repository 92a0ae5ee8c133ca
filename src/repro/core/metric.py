"""Quality metrics: the ANAQP score (Eq. 1), relative error (Eq. 2), diversity.

Eq. 1 of the paper::

    score(S) = (1/|Q|) * sum_q w(q) * min(1, |q(S)| / min(F, |q(T)|))

with ``sum_q w(q) = 1``. Read literally the expression normalizes twice
(both ``1/|Q|`` and the weight normalization); all reported scores in the
paper's §6 (e.g. 0.64 on IMDB) are only reachable under the standard
weighted-average reading, so :func:`score` computes
``sum_q w(q) * min(1, |q(S)| / min(F, |q(T)|))`` — identical to the
literal formula when ``w`` is interpreted as unnormalized per-query
importance with uniform value 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..db.database import Database
from ..db.executor import execute, execute_aggregate
from ..db.query import AggregateQuery, SPJQuery
from ..datasets.workloads import Workload

DEFAULT_FRAME_SIZE = 50


def query_score(
    full_result_size: int,
    subset_result_size: int,
    frame_size: int = DEFAULT_FRAME_SIZE,
) -> float:
    """Per-query term of Eq. 1: ``min(1, |q(S)| / min(F, |q(T)|))``.

    A query with an empty full result contributes 1 (nothing was missed).
    """
    if full_result_size <= 0:
        return 1.0
    denominator = min(frame_size, full_result_size)
    return min(1.0, subset_result_size / denominator)


#: The one object every NULL float of a result key is: NaN equals only
#: itself, so keys holding fresh NaNs never match across two executions.
_NULL_FLOAT = float("nan")


def _result_keys(db: Database, query: SPJQuery) -> list[tuple]:
    """``execute(db, query).tuple_keys()`` with every NULL float
    :data:`_NULL_FLOAT`, so equal rows give equal keys, NULLs included (as
    ``DISTINCT`` treats them): a row holding a NULL float matches itself."""
    result = execute(db, query)
    columns = []
    for ref in sorted(result.columns):
        array = result.column(ref)
        values = array.tolist()
        if array.dtype.kind == "f":
            for i in np.flatnonzero(np.isnan(array)).tolist():
                values[i] = _NULL_FLOAT
        columns.append(values)
    return list(zip(*columns)) if columns else [()] * result.n_rows


def _valid_result_count(
    db: Database,
    subset: Database,
    query: SPJQuery,
    full_keys: Optional[frozenset] = None,
) -> tuple[int, int]:
    """``(|q(T)|, |q(S) ∩ q(T)|)`` over distinct result tuples.

    Intersecting with the true result matters for generative baselines:
    a *fabricated* tuple that happens to satisfy the predicates is not part
    of the query answer and must not count toward quality (the paper's
    critique of VAE-generated "false tuples"). For genuine sub-databases
    the intersection is a no-op (SPJ queries are monotone).
    """
    if full_keys is None:
        full_keys = frozenset(_result_keys(db, query))
    subset_keys = set(_result_keys(subset, query))
    return len(full_keys), len(subset_keys & full_keys)


def workload_result_keys(db: Database, workload: Workload) -> list[frozenset]:
    """Distinct result-tuple keys of every query on the full database.

    Precompute once when scoring many candidate subsets against the same
    workload (the k/F sweeps do this).
    """
    spj = workload.spj_only()
    return [frozenset(_result_keys(db, query)) for query in spj.queries]


def score(
    db: Database,
    subset: Database,
    workload: Workload,
    frame_size: int = DEFAULT_FRAME_SIZE,
    full_keys: Optional[Sequence[frozenset]] = None,
) -> float:
    """Eq. 1 evaluated by actually executing the workload on both databases.

    Parameters
    ----------
    db / subset:
        The full database and the approximation set (as a sub-database, or
        a synthetic database for generative baselines).
    workload:
        Weighted SPJ workload (aggregates are rewritten to SPJ first).
    frame_size:
        The paper's ``F``.
    full_keys:
        Optional precomputed :func:`workload_result_keys` output, to avoid
        re-running the workload on the full data across evaluations.
    """
    spj = workload.spj_only()
    values = per_query_scores(db, subset, spj, frame_size, full_keys)
    total = 0.0
    # A sequential sum in query order, not np.dot: the score stays
    # bit-identical to the per-query loop it is defined by. It is a
    # weighted mean of terms <= 1, so a sum that rounding carried past 1
    # (six weights of 1/6, every term 1) is 1.
    for weight, value in zip(spj.weights, values):
        total += weight * value
    return min(1.0, float(total))


def per_query_scores(
    db: Database,
    subset: Database,
    workload: Workload,
    frame_size: int = DEFAULT_FRAME_SIZE,
    full_keys: Optional[Sequence[frozenset]] = None,
) -> np.ndarray:
    """Unweighted per-query Eq. 1 terms (used by the estimator experiments)."""
    spj = workload.spj_only()
    values = np.zeros(len(spj.queries))
    for i, query in enumerate(spj.queries):
        cached = full_keys[i] if full_keys is not None else None
        full_size, valid = _valid_result_count(db, subset, query, cached)
        values[i] = query_score(full_size, valid, frame_size)
    return values


def audit_query(
    db: Database,
    subset: Database,
    query: Union[SPJQuery, AggregateQuery],
    frame_size: int = DEFAULT_FRAME_SIZE,
    scale_counts: Optional[float] = None,
) -> tuple[float, Optional[float], int]:
    """Ground truth for one served query: ``(recall, agg_rel_error, |q(T)|)``.

    The shadow auditor (:mod:`repro.obs.quality` via the session) calls
    this to re-measure an approximation-set answer against the full
    database: recall is the Eq. 1 frame term over distinct valid result
    tuples; for aggregate queries the Eq. 2 per-group relative error is
    measured too (``None`` for pure SPJ queries, whose answers have no
    aggregate to be wrong about).
    """
    if query.is_aggregate:
        spj = query.strip_aggregates()
        full_size, valid = _valid_result_count(db, subset, spj)
        recall = query_score(full_size, valid, frame_size)
        agg_error = aggregate_relative_error(
            db, subset, query, scale_counts=scale_counts
        )
        return recall, agg_error, full_size
    full_size, valid = _valid_result_count(db, subset, query)
    return query_score(full_size, valid, frame_size), None, full_size


# ------------------------------------------------------------------ #
# aggregate relative error (Eq. 2)
# ------------------------------------------------------------------ #
def relative_error(predicted: float, truth: float) -> float:
    """Eq. 2: ``|pred - truth| / |truth|`` (capped at 1 when truth is 0)."""
    if truth == 0 or not np.isfinite(truth):
        return 0.0 if predicted == truth else 1.0
    if not np.isfinite(predicted):
        return 1.0
    return min(1.0, abs(predicted - truth) / abs(truth))


def aggregate_relative_error(
    db: Database,
    subset: Database,
    query: AggregateQuery,
    scale_counts: Optional[float] = None,
) -> float:
    """Average per-group relative error of an aggregate on the subset.

    Missing groups count as error 1 (a "complete mismatch", paper §6.4).
    ``scale_counts`` optionally rescales COUNT/SUM answers from the subset
    by an inverse sampling fraction (Horvitz–Thompson style), which is what
    a sampling-based AQP engine would do; AVG/MIN/MAX are never scaled.
    """
    truth = execute_aggregate(db, query).as_mapping()
    approx = execute_aggregate(subset, query).as_mapping()
    if not truth:
        return 0.0
    scalable = {
        spec.output_name()
        for spec in query.aggregates
        if spec.func.value in ("COUNT", "SUM")
    }
    errors: list[float] = []
    for key, true_row in truth.items():
        approx_row = approx.get(key)
        for name, true_value in true_row.items():
            if approx_row is None or name not in approx_row:
                errors.append(1.0)
                continue
            predicted = approx_row[name]
            if scale_counts is not None and name in scalable:
                predicted = predicted * scale_counts
            errors.append(relative_error(predicted, true_value))
    return float(np.mean(errors)) if errors else 0.0


# ------------------------------------------------------------------ #
# diversity (paper §6.2, "Diversity Comparison")
# ------------------------------------------------------------------ #
def pairwise_jaccard_diversity(results: Sequence[set]) -> float:
    """Mean pairwise Jaccard *distance* among result sets.

    The paper measures "result diversity using a standard metric based on
    pairwise Jaccard distance among query answers" — higher is more
    diverse. Empty pairs contribute distance 0.
    """
    n = len(results)
    if n < 2:
        return 0.0
    distances: list[float] = []
    for i in range(n):
        for j in range(i + 1, n):
            union = results[i] | results[j]
            if not union:
                distances.append(0.0)
                continue
            intersection = results[i] & results[j]
            distances.append(1.0 - len(intersection) / len(union))
    return float(np.mean(distances))


def result_diversity(
    db: Database,
    workload: Workload,
    limit: int = 100,
) -> float:
    """Diversity of the answers a database gives to a workload.

    Each query runs with ``LIMIT limit`` (the paper uses LIMIT 100); the
    result identity of a row is its projected-value tuple.
    """
    spj = workload.spj_only()
    answer_sets: list[set] = []
    for query in spj.queries:
        answer_sets.append(set(_result_keys(db, query.with_limit(limit))))
    return pairwise_jaccard_diversity(answer_sets)
