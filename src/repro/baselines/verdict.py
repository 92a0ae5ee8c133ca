"""VERD: VerdictDB-style offline scrambles (paper §6.1 baseline 8).

VerdictDB [Park et al. 2018] pre-builds *scrambles* — stratified samples
with retained inclusion probabilities — then rewrites queries against the
scrambles and rescales the answers. Here each table gets a stratified
sample (stratifying on its highest-entropy categorical column, falling
back to uniform) sized proportionally to the table; the per-table sampling
fraction is kept so aggregate answers can be Horvitz–Thompson rescaled
(used by the Fig. 12 comparison).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..db.database import Database
from ..db.sampling import variational_subsample
from ..db.statistics import compute_table_stats
from ..datasets.workloads import Workload
from .base import SelectionResult, SubsetSelector


def _best_stratification_column(table) -> Optional[str]:
    """Categorical column with the most even, multi-valued distribution."""
    stats = compute_table_stats(table)
    best_column = None
    best_entropy = 0.0
    for name, cat in stats.categorical.items():
        if cat.n_distinct < 2 or cat.n_distinct > 500:
            continue
        counts = np.asarray(list(cat.frequencies.values()), dtype=np.float64)
        p = counts / counts.sum()
        entropy = float(-(p * np.log(p)).sum())
        if entropy > best_entropy:
            best_entropy = entropy
            best_column = name
    return best_column


class VerdictBaseline(SubsetSelector):
    """Per-table stratified scrambles with retained sampling fractions."""

    name = "VERD"

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
        fractions: dict[str, float] = {}
        for table, share in self.table_shares(db, k, approx):
            column = _best_stratification_column(table)
            if column is None:
                positions = rng.choice(len(table), size=share, replace=False)
            else:
                keys = [str(v) for v in table.column(column)]
                sample = variational_subsample(keys, share, rng)
                positions = sample.positions[:share]
            approx.add_keys(
                (table.name, int(table.row_ids[p])) for p in positions
            )
            fractions[table.name] = len(positions) / len(table)
        return self.finish(
            self.name, db, approx, started, sampling_fractions=fractions
        )
