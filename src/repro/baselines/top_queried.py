"""TOP: most-queried tuples first (paper §6.1 baseline 4).

"Choose a random subset from each query answer. Choose queries that appear
in the most queries first, until reaching k tuples."

Tuples are ranked by how many workload queries their provenance
participates in; ties break by a random per-tuple draw (the "random subset
from each query answer" part), then tuples are taken in rank order until
the budget fills. The draws are made in key-code order (the
:class:`~repro.core.reward.CoverageIndex` order of the keys), so the
ranking is a function of the seed alone, not of the hash seed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..core.reward import CoverageIndex, QueryCoverage
from ..db.database import Database
from ..db.kernels import sorted_unique
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector


def most_queried(
    coverages: Sequence[QueryCoverage], k: int, rng: np.random.Generator
) -> ApproximationSet:
    """The ``k`` keys required by the most queries, ties broken by one
    uniform draw per key in code order."""
    index = CoverageIndex(coverages)
    # One (key, query) pair per incidence entry; a key's count is its
    # number of distinct pairs.
    n_queries = max(1, len(coverages))
    keys = np.repeat(np.arange(index.n_keys), np.diff(index.inc_offsets))
    pairs = sorted_unique(keys * n_queries + index.row_query[index.inc_rows])
    query_count = np.bincount(pairs // n_queries, minlength=index.n_keys)
    tie_break = rng.random(index.n_keys)
    ranked = np.lexsort((tie_break, -query_count))[:k]
    return index.approximation(index.codes[ranked])


class TopQueriedTuples(SubsetSelector):
    """Frequency-ranked tuple selection."""

    name = "TOP"

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
        coverages = self.workload_coverages(db, workload, frame_size, rng)
        return self.finish(self.name, db, most_queried(coverages, k, rng), started)
