"""QUIK: QuickR-style lazy plan-keyed sampling (paper §6.1 baseline 9).

QuickR [Kandula et al. 2016] keeps "a catalog of plans and samples and an
algorithm for choosing the right samples at the right time": samples are
built lazily as queries arrive, keyed by the query's plan signature
(tables + predicate columns), and reused for queries with a matching
signature. Here the training workload drives catalog construction: each
distinct signature gets an equal slice of the budget, filled with a
uniform sample of its queries' provenance rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..core.reward import CoverageIndex, QueryCoverage
from ..db.database import Database
from ..db.expressions import conjuncts
from ..db.kernels import distinct_positions
from ..db.query import SPJQuery
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector


def plan_signature(query: SPJQuery) -> tuple:
    """The catalog key: tables joined + columns filtered."""
    predicate_columns = tuple(
        sorted({ref for part in conjuncts(query.predicate) for ref in part.columns()})
    )
    return (tuple(sorted(query.tables)), predicate_columns)


def sample_catalog(
    groups: Sequence[Sequence[QueryCoverage]], k: int, rng: np.random.Generator
) -> ApproximationSet:
    """Fill ``k`` group by group (one group per plan signature, in catalog
    order): each group gets an equal slice of the budget, filled from its
    distinct rows in a random order. A row enters whole or not at all, and
    a row that would overrun ``k`` ends the group."""
    index = CoverageIndex([coverage for group in groups for coverage in group])
    slice_budget = max(1, k // max(1, len(groups)))
    chosen: set[int] = set()
    for group in groups:
        codes = np.concatenate([index.row_codes(coverage) for coverage in group])
        rows = codes[distinct_positions(codes.T)]
        if not len(rows):
            continue
        slice_used = 0
        for row in rows[rng.permutation(len(rows))].tolist():
            new_codes = [code for code in row if code not in chosen]
            if not new_codes:
                continue
            if len(chosen) + len(new_codes) > k:
                break
            chosen.update(new_codes)
            slice_used += len(new_codes)
            if slice_used >= slice_budget:
                break
        if len(chosen) >= k:
            break
    return index.approximation(np.fromiter(chosen, dtype=np.int64, count=len(chosen)))


class QuickRBaseline(SubsetSelector):
    """Signature-keyed sample catalog built from the training workload."""

    name = "QUIK"

    def select(
        self,
        db: Database,
        workload: Workload,
        k: int,
        frame_size: int,
        rng: np.random.Generator,
        time_budget: Optional[float] = None,
    ) -> SelectionResult:
        started = perf_counter()
        spj = workload.spj_only()
        coverages = self.workload_coverages(db, workload, frame_size, rng)

        # Group queries by plan signature (the catalog).
        catalog: dict[tuple, list[QueryCoverage]] = {}
        for query, coverage in zip(spj.queries, coverages):
            catalog.setdefault(plan_signature(query), []).append(coverage)
        groups = [catalog[signature] for signature in sorted(catalog, key=str)]
        approx = sample_catalog(groups, k, rng)
        return self.finish(
            self.name, db, approx, started, n_signatures=len(catalog)
        )
