"""Common interface for the §6 baselines.

Every baseline consumes the same inputs ASQP-RL does — the database, the
training workload, the memory budget ``k`` and frame size ``F`` — and
produces a *queryable database* (plus, for subset-based methods, the
underlying :class:`~repro.core.approximation.ApproximationSet`). The
generative VAE baseline produces synthetic tuples rather than a subset,
which is why the result carries a database and not just row ids.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..obs.clock import perf_counter
from ..core.approximation import ApproximationSet
from ..core.preprocess import build_coverage
from ..core.reward import QueryCoverage
from ..db.database import Database
from ..db.table import Table
from ..datasets.workloads import Workload


@dataclass
class SelectionResult:
    """Outcome of a baseline's setup phase."""

    name: str
    database: Database
    approximation: Optional[ApproximationSet] = None
    setup_seconds: float = 0.0
    completed: bool = True          # False when the time budget expired
    extra: dict = field(default_factory=dict)


class SubsetSelector(abc.ABC):
    """A baseline that prepares a queryable stand-in for the database."""

    #: Short name used in the benchmark tables (e.g. "RAN", "GRE").
    name: str = "BASE"

    @abc.abstractmethod
    def select(
        self,
        db: Database,
        workload: Workload,
        k: int,
        frame_size: int,
        rng: np.random.Generator,
        time_budget: Optional[float] = None,
    ) -> SelectionResult:
        """Run the setup phase and return the queryable result.

        ``time_budget`` is in seconds; methods that search (GRE, BRT)
        return their best-so-far when it expires, with ``completed=False``.
        """

    # Helpers shared by workload-driven selectors ----------------------
    @staticmethod
    def workload_coverages(
        db: Database,
        workload: Workload,
        frame_size: int,
        rng: np.random.Generator,
    ) -> list[QueryCoverage]:
        """Execute the training workload once, as ASQP's preprocessing does."""
        spj = workload.spj_only()
        return [
            build_coverage(db, query, float(spj.weights[i]), frame_size, rng)
            for i, query in enumerate(spj.queries)
        ]

    @staticmethod
    def table_shares(
        db: Database, k: int, approx: ApproximationSet
    ) -> Iterator[tuple[Table, int]]:
        """Each non-empty table with its share of the budget ``k``,
        proportional to its size and capped by what ``approx`` has left;
        read lazily, so the caller fills ``approx`` between tables. Stops
        once ``approx`` holds ``k`` tuples."""
        total_rows = max(1, db.total_rows())
        for table in db:
            if len(table) == 0:
                continue
            share = max(1, int(round(k * len(table) / total_rows)))
            share = min(share, len(table), k - approx.total_size())
            if share <= 0:
                continue
            yield table, share
            if approx.total_size() >= k:
                return

    @staticmethod
    def all_tuple_keys(db: Database) -> list[tuple[str, int]]:
        keys: list[tuple[str, int]] = []
        for table in db:
            keys.extend((table.name, int(rid)) for rid in table.row_ids)
        return keys

    @staticmethod
    def finish(
        name: str,
        db: Database,
        approximation: ApproximationSet,
        started: float,
        completed: bool = True,
        **extra,
    ) -> SelectionResult:
        return SelectionResult(
            name=name,
            database=approximation.to_database(db, name=f"{db.name}:{name.lower()}"),
            approximation=approximation,
            setup_seconds=perf_counter() - started,
            completed=completed,
            extra=dict(extra),
        )
