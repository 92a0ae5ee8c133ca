"""GRE: greedy marginal-gain selection (paper §6.1 baseline 3).

"In each iteration, take the row that achieves the largest marginal gain
with respect to the metric, eliminate this row, and repeat. The running
time is limited to 48 hours."

Candidates are provenance rows (joinable groups) from the executed
workload. Each iteration scans all remaining candidates for the best
marginal Eq. 1 gain — the O(n·k) scan is why the paper's GRE blows its
budget on IMDB; with a small time budget the same failure reproduces here
(``completed=False`` and a partial set).
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

DEFAULT_TIME_BUDGET = 20.0


class GreedySelection(SubsetSelector):
    """Exact greedy over provenance-row candidates, time budgeted."""

    name = "GRE"

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

        units: list[tuple] = []
        seen = set()
        for coverage in coverages:
            for requirement in coverage.requirements:
                if requirement not in seen:
                    seen.add(requirement)
                    units.append(requirement)

        approx = ApproximationSet()
        remaining = set(range(len(units)))
        completed = True
        current_score = tracker.batch_score()
        while approx.total_size() < k and remaining:
            if perf_counter() - started > budget:
                completed = False
                break
            best_unit = -1
            best_gain = -np.inf
            for unit_index in remaining:
                requirement = units[unit_index]
                new_keys = [key for key in requirement if key not in approx]
                if approx.total_size() + len(new_keys) > k:
                    continue
                # Probe: batch add, measure, roll back (one CSR round trip).
                gain = tracker.probe_add_score(requirement) - current_score
                cost = max(1, len(new_keys))
                normalized = gain / cost
                if normalized > best_gain:
                    best_gain = normalized
                    best_unit = unit_index
            if best_unit < 0:
                break
            requirement = units[best_unit]
            approx.add_keys(requirement)
            tracker.add_keys(requirement)
            current_score = tracker.batch_score()
            remaining.discard(best_unit)

        return self.finish(
            self.name,
            db,
            approx,
            started,
            completed=completed,
            training_score=current_score,
        )
