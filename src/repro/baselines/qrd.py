"""QRD: query-result diversification via k-medoids (paper §6.1 baseline 6).

Based on [Liu & Jagadish, "Using Trees to Depict a Forest"]: "an iterative
approach where it selects the medoids of clusters and then re-assigns the
data points to their nearest medoids." Tuples are embedded with the same
``Emb_tab`` model ASQP uses; each table gets a budget share proportional
to its size and contributes its cluster medoids. QRD needs no workload
(it uses inherent data patterns), which is why the paper also runs it in
the no-workload experiment (Fig. 6).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..db.database import Database
from ..db.statistics import compute_database_stats
from ..datasets.workloads import Workload
from ..embedding.cluster import kmedoids
from ..embedding.tuple_embed import TupleEmbedder
from .base import SelectionResult, SubsetSelector

#: Cap on the per-table pool that gets embedded and clustered.
MAX_POOL_PER_TABLE = 1500

#: Dimensionality of the tuple embeddings the medoids are chosen in.
EMBEDDING_DIM = 32


class QueryResultDiversification(SubsetSelector):
    """Cluster-medoid representative selection per table."""

    name = "QRD"

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
        stats = compute_database_stats(db)
        embedder = TupleEmbedder(dim=EMBEDDING_DIM, stats=stats)
        approx = ApproximationSet()
        for table, share in self.table_shares(db, k, approx):
            if len(table) > MAX_POOL_PER_TABLE:
                pool = rng.choice(len(table), size=MAX_POOL_PER_TABLE, replace=False)
                pool = np.sort(pool)
            else:
                pool = np.arange(len(table))
            vectors = embedder.embed_table(table, pool)
            result = kmedoids(vectors, share, rng)
            chosen_positions = pool[result.medoids]
            approx.add_keys(
                (table.name, int(table.row_ids[p])) for p in chosen_positions
            )
        return self.finish(self.name, db, approx, started)
