"""BRT: time-budgeted exhaustive subset search (paper §6.1 baseline 2).

"An algorithm that exhaustively checks different combinations of k tuples
to find the optimal solution ... a time constraint of 48 hours is imposed
... We then return the best subset found during this process."

The candidate pool is every tuple of the database
(:meth:`~repro.baselines.base.SubsetSelector.all_tuple_keys`), with no
knowledge of the workload's provenance rows or join structure. Each
combination is ``min(k, |pool|)`` distinct tuples drawn uniformly from it,
and the best-scoring one within the budget is kept — exactly the paper's
protocol, scaled from 48 hours to a configurable number of seconds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..core.reward import CoverageTracker
from ..db.database import Database
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector

DEFAULT_TIME_BUDGET = 10.0


class BruteForce(SubsetSelector):
    """Randomized exhaustive search over k-tuple combinations."""

    name = "BRT"

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
        budget = time_budget if time_budget is not None else DEFAULT_TIME_BUDGET
        coverages = self.workload_coverages(db, workload, frame_size, rng)
        tracker = CoverageTracker(coverages)

        # The paper's BRT "exhaustively checks different combinations of k
        # tuples": candidates are individual tuples of the database, with no
        # knowledge of join structure. (Giving it joinable provenance rows
        # would make it a different — and far stronger — algorithm.)
        all_keys = self.all_tuple_keys(db)
        size = min(k, len(all_keys))

        best_keys: list = []
        best_score = -1.0
        n_combinations = 0
        while perf_counter() - started < budget:
            picks = rng.choice(len(all_keys), size=size, replace=False)
            candidate = [all_keys[p] for p in picks]
            # reset() is an array copy and add_keys() one vectorized batch
            # update, so each probed combination costs O(incidence) work.
            tracker.reset()
            tracker.add_keys(candidate)
            value = tracker.batch_score()
            n_combinations += 1
            if value > best_score:
                best_score = value
                best_keys = list(candidate)

        approx = ApproximationSet.from_keys(best_keys)
        completed = False  # by construction the budget expired, as in the paper
        return self.finish(
            self.name,
            db,
            approx,
            started,
            completed=completed,
            combinations_tried=n_combinations,
            best_training_score=best_score,
        )
