"""CACH: simulated database buffer cache (paper §6.1 baseline 5).

"Simulates a database's cache by preserving tuples from the last executed
query ... evicting the least recently used (LRU) pages to accommodate new
ones." Per the paper's footnote, the realistic case interleaves queries
from users with different interests, so the training workload is replayed
once in a shuffled order before the cache contents are frozen into the
subset.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..db.cache import LRUTupleCache
from ..db.database import Database
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector


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
        cache = LRUTupleCache(capacity=k)

        for q in rng.permutation(len(coverages)):
            for requirement in coverages[q].requirements:
                cache.touch_many(requirement)

        approx = ApproximationSet.from_mapping(cache.contents())
        return self.finish(
            self.name,
            db,
            approx,
            started,
            hit_rate=cache.hit_rate,
            evictions=cache.evictions,
        )
