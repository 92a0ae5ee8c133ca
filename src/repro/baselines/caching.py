"""CACH: simulated database buffer cache (paper §6.1 baseline 5).

"Simulates a database's cache by preserving tuples from the last executed
query ... evicting the least recently used (LRU) pages to accommodate new
ones." Per the paper's footnote, the realistic case interleaves queries
from users with different interests, so the training workload is replayed
once in a shuffled order before the cache contents are frozen into the
subset.

Nothing needs simulating: an LRU cache of ``k`` tuples always holds the
``k`` distinct tuples touched most recently. So the frozen cache is the
first ``k`` distinct keys of the replay read backwards.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..core.reward import CoverageIndex, QueryCoverage
from ..db.database import Database
from ..db.kernels import distinct_positions
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector


def cached_set(
    coverages: Sequence[QueryCoverage], k: int, rng: np.random.Generator
) -> ApproximationSet:
    """What an LRU cache of ``k`` tuples holds after the coverages' rows are
    touched query by query in a shuffled order, each row's keys in its
    tables' order."""
    index = CoverageIndex(coverages)
    replay = [
        index.row_codes(coverages[q]).ravel() for q in rng.permutation(len(coverages))
    ]
    latest_first = np.concatenate([np.zeros(0, dtype=np.int64), *replay])[::-1]
    return index.approximation(latest_first[distinct_positions([latest_first])[:k]])


class CacheBaseline(SubsetSelector):
    """LRU tuple cache warmed by a shuffled replay of the workload."""

    name = "CACH"

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
        return self.finish(self.name, db, cached_set(coverages, k, rng), started)
