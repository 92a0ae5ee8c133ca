"""Data and query pre-processing (paper §4.2, Alg. 1 lines 1-4).

Pipeline::

    workload --(training fraction)--> Q_train
    Q_train --relaxation--> generalized queries --Emb_sql--> vectors
    vectors --clustering--> query representatives Q̂
    Q̂ (relaxed) --execute on D--> D̂ (provenance rows)
    D̂ --variational subsampling--> action-space rows
    rows --grouping--> ActionSpace
    Q̂ (original) --execute on D--> CoverageTracker inputs (reward)

Challenges addressed: C1 (action space is a reduced set of joinable tuple
groups), C2 (only |Q̂| queries execute, once), C4 (relaxation pulls in
near-miss tuples beyond the known workload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..obs.clock import perf_counter
from ..db.database import Database
from ..db.executor import execute
from ..db.kernels import factorize_key_pair
from ..db.query import SPJQuery
from ..db.sampling import variational_subsample
from ..db.statistics import TableStats, compute_database_stats
from ..datasets.workloads import Workload
from ..embedding.cluster import select_representatives
from ..embedding.query_embed import QueryEmbedder
from ..embedding.relaxation import QueryRelaxer
from .action_space import ActionSpace, RowBlock, group_rows_into_actions
from .config import ASQPConfig
from .reward import QueryCoverage

#: Safety cap on provenance rows kept per query for reward tracking.
MAX_REQUIREMENT_ROWS = 5000


@dataclass
class PreprocessResult:
    """Everything the training phase consumes."""

    representatives: list[SPJQuery]
    representative_embeddings: np.ndarray
    training_embeddings: np.ndarray
    coverages: list[QueryCoverage]
    action_space: ActionSpace
    training_queries: list[SPJQuery]
    query_embedder: QueryEmbedder
    stats: dict[str, TableStats]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n_representatives(self) -> int:
        return len(self.representatives)


def provenance_ids(db: Database, query: SPJQuery) -> tuple[list[str], np.ndarray]:
    """Distinct provenance of a query's result, columnar: the sorted table
    names and an ``int64`` matrix of base row ids, one column per table and
    one row per result row, in result order.

    The rows are distinct by construction: a query names each table once
    and a table's row ids are unique, so every row a join emits is its own
    combination of base rows, and filter, sort, projection, ``DISTINCT``
    and ``LIMIT`` only drop or reorder rows."""
    result = execute(db, query)
    tables = sorted(result.row_ids)
    return tables, np.column_stack([result.row_ids[t] for t in tables])


def coverage_from_ids(
    query: SPJQuery,
    weight: float,
    frame_size: int,
    tables: Sequence[str],
    ids: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> QueryCoverage:
    """The Eq. 1 inputs of ``query`` whose distinct provenance is
    ``(tables, ids)``: all of its rows, or a uniform sample of
    ``MAX_REQUIREMENT_ROWS`` of them drawn from ``rng`` when it has more."""
    denominator = min(frame_size, len(ids))
    sampled = len(ids) > MAX_REQUIREMENT_ROWS
    if sampled:
        if rng is None:
            rng = np.random.default_rng(0)
        picks = rng.choice(len(ids), size=MAX_REQUIREMENT_ROWS, replace=False)
        ids = ids[np.sort(picks)]
    return QueryCoverage(
        name=query.name or query.to_sql()[:60],
        weight=weight,
        denominator=denominator,
        tables=tables,
        ids=ids,
        sampled=sampled,
    )


def build_coverage(
    db: Database,
    query: SPJQuery,
    weight: float,
    frame_size: int,
    rng: Optional[np.random.Generator] = None,
) -> QueryCoverage:
    """Execute ``query`` on the full data and record its Eq. 1 inputs,
    keeping the provenance columnar."""
    tables, ids = provenance_ids(db, query)
    return coverage_from_ids(query, weight, frame_size, tables, ids, rng)


class RowPool:
    """Candidate action rows: per executed query, its
    :func:`provenance_ids` and its rows' source code."""

    def __init__(self) -> None:
        self._blocks: list[RowBlock] = []

    def add(self, tables: Sequence[str], ids: np.ndarray, source: int) -> None:
        self._blocks.append((tables, ids, source))

    def sources(self) -> np.ndarray:
        """The source code of every pooled row."""
        return np.repeat(
            np.asarray([source for _, _, source in self._blocks], dtype=np.int64),
            [len(ids) for _, ids, _ in self._blocks],
        )

    def take(self, positions: np.ndarray) -> list[RowBlock]:
        """The rows at ascending pool ``positions``, block by block."""
        blocks: list[RowBlock] = []
        start = 0
        for tables, ids, source in self._blocks:
            lo, hi = np.searchsorted(positions, [start, start + len(ids)])
            blocks.append((tables, ids[positions[lo:hi] - start], source))
            start += len(ids)
        return blocks


def _rows_among(ids: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Mask of the ``ids`` rows found among the ``known`` rows (row-id
    matrices over the same tables).

    While the columns' spans multiply to less than ``2**62``, each row is
    one mixed-radix ``int64`` code: the known codes are sorted once and
    the others binary-searched in them. Wider spans are factorized."""
    if len(ids) == 0 or len(known) == 0:
        return np.zeros(len(ids), dtype=bool)
    low = np.minimum(ids.min(axis=0), known.min(axis=0))
    high = np.maximum(ids.max(axis=0), known.max(axis=0))
    spans = [h - l + 1 for l, h in zip(low.tolist(), high.tolist())]
    if math.prod(spans) >= 1 << 62:
        codes, known_codes, _ = factorize_key_pair(list(ids.T), list(known.T))
        return np.isin(codes, known_codes)
    codes, known_codes = ids[:, 0] - low[0], known[:, 0] - low[0]
    for column in range(1, ids.shape[1]):
        codes = codes * spans[column] + (ids[:, column] - low[column])
        known_codes = known_codes * spans[column] + (known[:, column] - low[column])
    known_codes = np.sort(known_codes)
    at = np.searchsorted(known_codes[:-1], codes)
    return known_codes[at] == codes


def preprocess(
    db: Database,
    workload: Workload,
    config: ASQPConfig,
    rng: Optional[np.random.Generator] = None,
) -> PreprocessResult:
    """Run the full pre-processing pipeline (Alg. 1 lines 1-4)."""
    rng = rng or np.random.default_rng(config.seed)
    timings: dict[str, float] = {}

    t0 = perf_counter()
    stats = compute_database_stats(db)
    timings["stats"] = perf_counter() - t0

    # --- query pre-processing ------------------------------------- #
    t0 = perf_counter()
    spj = workload.spj_only()
    n_train = max(2, int(round(len(spj.queries) * config.training_fraction)))
    order = rng.permutation(len(spj.queries))
    train_indices = sorted(order[:n_train].tolist())
    training_queries = [spj.queries[i] for i in train_indices]
    training_weights = spj.weights[train_indices]

    relaxer = QueryRelaxer(stats)
    relaxed_all = [relaxer.relax(q) for q in training_queries]
    embedder = QueryEmbedder(stats=stats)
    vectors = embedder.embed_workload(relaxed_all)

    n_representatives = (
        config.n_query_representatives
        if config.n_query_representatives is not None
        else len(training_queries)
    )
    rep_positions = select_representatives(vectors, n_representatives, rng)
    representatives = [training_queries[p] for p in rep_positions]
    relaxed_reps = [relaxed_all[p] for p in rep_positions]
    rep_weights = training_weights[rep_positions]
    total = rep_weights.sum()
    rep_weights = rep_weights / total if total > 0 else rep_weights
    # The estimator compares *incoming* (unrelaxed) queries to the
    # representatives, so its reference embeddings use original semantics;
    # the relaxed embeddings above are only for clustering.
    rep_embeddings = embedder.embed_workload(representatives)
    training_embeddings = embedder.embed_workload(training_queries)
    timings["query_preprocessing"] = perf_counter() - t0

    # --- reward structures (original-semantics representatives) ---- #
    t0 = perf_counter()
    coverages = [
        build_coverage(db, query, float(rep_weights[q]), config.frame_size, rng)
        for q, query in enumerate(representatives)
    ]
    timings["coverage"] = perf_counter() - t0

    # --- data pre-processing --------------------------------------- #
    # The candidate pool splits into *exact* rows (the representatives'
    # own result rows — these are what the reward rewards directly) and
    # *extension* rows that only the relaxed queries return (the
    # generalization reserve for future, unseen queries — challenge C4).
    # Exact rows get the larger share of the subsample budget.
    t0 = perf_counter()
    exact = RowPool()
    extension = RowPool()
    for q, relaxed in enumerate(relaxed_reps):
        coverage = coverages[q]
        # Relaxation only rewrites the predicate, so both results span the
        # same tables. Even / odd source codes keep exact and extension rows
        # grouped apart, so one action is either "known result rows" or
        # "generalization rows", never a dilution of both.
        exact.add(coverage.tables, coverage.ids, 2 * q)
        tables, ids = provenance_ids(db, relaxed)
        extension.add(tables, ids[~_rows_among(ids, coverage.ids)], 2 * q + 1)
    timings["execute_relaxed"] = perf_counter() - t0

    t0 = perf_counter()
    target_rows = config.action_space_target * config.group_size
    exact_target = int(round(target_rows * config.exact_row_share))
    exact_sample = variational_subsample(exact.sources(), exact_target, rng)
    extension_sample = variational_subsample(
        extension.sources(), max(0, target_rows - len(exact_sample)), rng
    )
    action_space = group_rows_into_actions(
        exact.take(exact_sample.positions)
        + extension.take(extension_sample.positions),
        config.group_size,
        rng,
    )
    if action_space is None:
        raise ValueError(
            "pre-processing produced no actions: the relaxed representatives "
            "returned no rows — check the workload against the database"
        )
    timings["build_action_space"] = perf_counter() - t0

    return PreprocessResult(
        representatives=representatives,
        representative_embeddings=rep_embeddings,
        training_embeddings=training_embeddings,
        coverages=coverages,
        action_space=action_space,
        training_queries=training_queries,
        query_embedder=embedder,
        stats=stats,
        timings=timings,
    )
