"""gAQP: VAE-based approximate aggregate processing (paper §6.4, Fig. 12).

[Thirumuruganathan et al. 2020] train deep generative models offline, draw
a sample of synthetic tuples at query time, run the aggregate on the
sample, and rescale: COUNT and SUM answers multiply by the inverse
sampling fraction; AVG is scale-free. This wrapper reuses the
:class:`~repro.baselines.vae.TabularVAE` generator with a memory budget
expressed as a fraction of the data (the paper uses 1%).
"""

from __future__ import annotations

import numpy as np

from ..obs.clock import perf_counter
from ..core.metric import aggregate_relative_error
from ..db.database import Database
from ..db.query import AggregateQuery
from ..db.table import Table
from .vae import MAX_TRAINING_ROWS, TabularCodec, TabularVAE


class GAQPEstimator:
    """Generative AQP engine: train once, sample + rescale per query."""

    def __init__(
        self,
        db: Database,
        memory_fraction: float = 0.01,
        epochs: int = 25,
        seed: int = 0,
    ) -> None:
        if not 0 < memory_fraction <= 1:
            raise ValueError(
                f"memory fraction must be in (0, 1], got {memory_fraction}"
            )
        self.db = db
        self.memory_fraction = memory_fraction
        self.rng = np.random.default_rng(seed)
        self.models: dict[str, TabularVAE] = {}
        self.setup_seconds = 0.0

        started = perf_counter()
        for table in db:
            if len(table) == 0:
                continue
            training_table = table
            if len(table) > MAX_TRAINING_ROWS:
                picks = np.sort(
                    self.rng.choice(len(table), size=MAX_TRAINING_ROWS, replace=False)
                )
                training_table = table.take(picks)
            codec = TabularCodec(training_table)
            vae = TabularVAE(codec, seed=int(self.rng.integers(0, 2**31)))
            vae.train(codec.encode(), epochs=epochs)
            self.models[table.name] = vae
        self.setup_seconds = perf_counter() - started

    # -------------------------------------------------------------- #
    def _sample_database(self) -> tuple[Database, float]:
        """Synthetic sample database + the sampling fraction used."""
        tables: list[Table] = []
        for table in self.db:
            model = self.models.get(table.name)
            if model is None or len(table) == 0:
                tables.append(table)
                continue
            share = max(1, int(round(len(table) * self.memory_fraction)))
            tables.append(Table(table.schema, model.generate(share, self.rng)))
        return Database(tables, name=f"{self.db.name}:gaqp"), self.memory_fraction

    def answer_error(self, query: AggregateQuery) -> float:
        """Relative error (Eq. 2) of the sampled answer vs the truth."""
        sample_db, fraction = self._sample_database()
        return aggregate_relative_error(
            self.db, sample_db, query, scale_counts=1.0 / fraction
        )
