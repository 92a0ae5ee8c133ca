"""GRE: greedy marginal-gain selection (paper §6.1 baseline 3).

"In each iteration, take the row that achieves the largest marginal gain
with respect to the metric, eliminate this row, and repeat. The running
time is limited to 48 hours."

Candidates are the workload's requirement rows; a pick takes the first
with the largest Eq. 1 gain per new key whose new keys fit in ``k``. Each
pick scores every candidate exactly, without pairing candidates with rows:
a candidate completes an uncovered row iff the row's missing keys are a
subset of the candidate's new keys. They are a subset of the row's own
keys (one per joined table: ``W`` <= 5 here), so the ``2^W - 1`` subsets
of every row are numbered once, and a pick counts uncovered rows per
(missing subset, query) and sums those over each candidate's subsets.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..core.reward import CoverageIndex, CoverageTracker, InternedKeys, QueryCoverage
from ..db.database import Database
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector

DEFAULT_TIME_BUDGET = 20.0


class GreedyRun(NamedTuple):
    approximation: ApproximationSet
    picks: np.ndarray  # requirement row numbers, in pick order
    completed: bool  # False: the deadline passed first
    score: float  # training Eq. 1


def _row_subsets(
    index: CoverageIndex, coverages: Sequence[QueryCoverage]
) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, ids)``: each requirement row's key ids, ascending and padded
    with ``n_keys``, and ``ids[r, m]``, the number of the set of row ``r``'s
    keys that mask ``m`` selects (equal sets equally; -1 on padding)."""
    width, n_keys = max((len(c.tables) for c in coverages), default=0), index.n_keys
    keys = np.full((len(index.row_query), width), n_keys, dtype=np.int64)
    starts = np.cumsum(index.row_counts) - index.row_counts
    for coverage, start in zip(coverages, starts):
        keys[start:start + len(coverage.ids), :len(coverage.tables)] = (
            index.row_key_ids(coverage)
        )
    keys.sort(axis=1)
    empty = np.zeros(0, dtype=np.int64)
    rows, masks, sets = [empty], [empty], [np.zeros((0, width), dtype=np.int64)]
    for mask in range(1, 1 << width):
        columns = [j for j in range(width) if mask >> j & 1]
        owner = np.flatnonzero(keys[:, columns[-1]] < n_keys)  # padding is last
        subset = np.full((len(owner), width), n_keys, dtype=np.int64)
        subset[:, :len(columns)] = keys[owner][:, columns]
        rows.append(owner)
        masks.append(np.full(len(owner), mask))
        sets.append(subset)
    # Mixed-radix codes of the padded sets, renumbered before they overflow.
    code, bound = np.zeros(sum(map(len, rows)), dtype=np.int64), 1
    for column in np.concatenate(sets).T:
        if bound * (n_keys + 1) >= 1 << 62:
            code, bound = np.unique(code, return_inverse=True)[1], len(code)
        code, bound = code * (n_keys + 1) + column, bound * (n_keys + 1)
    ids = np.full((len(keys), 1 << width), -1, dtype=np.int64)
    _, number = np.unique(code, return_inverse=True)
    ids[np.concatenate(rows), np.concatenate(masks)] = number
    return keys, ids


def greedy_set(
    coverages: Sequence[QueryCoverage], k: int, deadline: float = math.inf
) -> GreedyRun:
    """Pick requirement rows until ``k`` keys are held, none fits, or
    ``perf_counter()`` passes ``deadline``."""
    index = CoverageIndex(coverages)
    tracker = CoverageTracker(coverages, index)
    keys, subset_ids = _row_subsets(index, coverages)
    n_sets, n_queries = int(subset_ids.max(initial=-1)) + 1, len(coverages)
    submasks = np.arange(1, subset_ids.shape[1])
    present = np.arange(index.n_keys + 1) == index.n_keys  # padding is never missing
    size, picks, completed = 0, [], True
    while size < k and (completed := perf_counter() <= deadline):
        absent = ~present[keys]
        n_new = absent.sum(axis=1)
        fits = np.flatnonzero((n_new > 0) & (size + n_new <= k))
        if not len(fits):
            break
        missing = absent @ (1 << np.arange(keys.shape[1]))  # new keys as a mask
        # Uncovered rows counted per (missing set, query), grouped by set.
        rows = np.flatnonzero(missing)
        groups, counts = np.unique(
            subset_ids[rows, missing[rows]] * n_queries + index.row_query[rows],
            return_counts=True,
        )
        set_size = np.bincount(groups // n_queries, minlength=n_sets)
        set_start = np.cumsum(set_size) - set_size
        # The groups of every fitting candidate's subsets of new keys.
        owner, mask = np.nonzero((submasks & ~missing[fits, None]) == 0)
        sets = subset_ids[fits[owner], submasks[mask]]
        hits = set_size[sets]
        at = np.repeat(set_start[sets] - np.cumsum(hits) + hits, hits)
        at += np.arange(len(at))
        increments = np.bincount(
            np.repeat(owner, hits) * n_queries + groups[at] % n_queries,
            weights=counts[at], minlength=len(fits) * n_queries,
        )
        gains = tracker.covered_gains(increments.reshape(len(fits), n_queries))
        best = fits[np.argmax(gains / n_new[fits])]
        new = keys[best, absent[best]]
        present[new] = True
        tracker.add_keys(InternedKeys(new, np.ones(len(new), dtype=np.int64)))
        size += len(new)
        picks.append(best)
    return GreedyRun(
        index.approximation(index.codes[present[:-1]]),
        np.asarray(picks, dtype=np.int64), completed, tracker.batch_score(),
    )


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
        run = greedy_set(coverages, k, started + budget)
        return self.finish(
            self.name, db, run.approximation, started,
            completed=run.completed, training_score=run.score,
        )
