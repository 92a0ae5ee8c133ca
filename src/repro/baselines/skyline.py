"""SKY: progressive skyline summarization (paper §6.1 baseline 7).

Based on [Papadias et al., "Progressive Skyline Computation"], extended
per the paper: "While a skyline is typically used with numerical values,
we extended it to handle categorical columns by comparing two values based
on their frequency." Each table contributes its skyline layers (onion
peeling) until its proportional share of the budget fills: layer 1 is the
classic maximal set under Pareto dominance, layer 2 the skyline of the
rest, and so on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..db.database import Database
from ..db.statistics import compute_table_stats
from ..db.table import Table
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector

#: Cap on rows considered per table (skyline is O(n^2) per layer).
MAX_POOL_PER_TABLE = 1200


def _dominance_matrix_features(table: Table, rng: np.random.Generator) -> np.ndarray:
    """Rows-as-feature-vectors where *larger is better* on every axis.

    Numeric columns are used as-is; categorical columns map each value to
    its frequency (popular values dominate rare ones), per the paper's
    extension.
    """
    stats = compute_table_stats(table)
    features: list[np.ndarray] = []
    for column in table.schema.columns:
        array = table.column(column.name)
        if column.ctype.is_numeric:
            features.append(np.asarray(array, dtype=np.float64))
        else:
            cat = stats.categorical[column.name]
            features.append(
                np.asarray(
                    [cat.frequencies.get(str(v), 0) for v in array],
                    dtype=np.float64,
                )
            )
    return np.column_stack(features)


#: Rows whose dominators one numpy pass looks for (bounds its memory to
#: ``DOMINANCE_BLOCK`` x pool x columns booleans).
DOMINANCE_BLOCK = 128


def _dominated(features: np.ndarray) -> np.ndarray:
    """Mask of the rows some other row dominates: ``>=`` on every column
    and ``>`` on one."""
    dominated = np.zeros(len(features), dtype=bool)
    for start in range(0, len(features), DOMINANCE_BLOCK):
        block = features[start:start + DOMINANCE_BLOCK, None, :]
        no_worse = (features[None, :, :] >= block).all(axis=2)
        better = (features[None, :, :] > block).any(axis=2)
        dominated[start:start + DOMINANCE_BLOCK] = (no_worse & better).any(axis=1)
    return dominated


def skyline_layers(features: np.ndarray, max_rows: int) -> list[int]:
    """Onion-peeling skyline: indices of successive skyline layers, each
    in index order.

    Returns at most ``max_rows`` indices, whole layers first.
    """
    remaining = np.arange(len(features))
    selected: list[int] = []
    # Dominance is transitive and irreflexive (a row with a NaN dominates
    # and is dominated by none), so every layer holds at least one row.
    while len(remaining) and len(selected) < max_rows:
        dominated = _dominated(features[remaining])
        selected += remaining[~dominated].tolist()
        remaining = remaining[dominated]
    return selected[:max_rows]


class SkylineBaseline(SubsetSelector):
    """Per-table progressive skylines under the frequency extension."""

    name = "SKY"

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
        approx = ApproximationSet()
        for table, share in self.table_shares(db, k, approx):
            if len(table) > MAX_POOL_PER_TABLE:
                pool = np.sort(
                    rng.choice(len(table), size=MAX_POOL_PER_TABLE, replace=False)
                )
                sub = table.take(pool)
            else:
                sub = table
            features = _dominance_matrix_features(sub, rng)
            chosen = skyline_layers(features, share)
            approx.add_keys((table.name, int(sub.row_ids[i])) for i in chosen)
        return self.finish(self.name, db, approx, started)
