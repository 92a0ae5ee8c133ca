"""The approximation set: per-table base row ids plus conversions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..db.database import Database

TupleKey = Tuple[str, int]  # (table name, base row id)


@dataclass
class ApproximationSet:
    """A set of base tuples, grouped by table.

    This is the paper's ``S = {S_1, ..., S_n}``: per-table subsets whose
    total size is bounded by the memory budget ``k``. Conversion to a
    queryable :class:`~repro.db.database.Database` goes through
    :meth:`to_database`.
    """

    rows: dict[str, set[int]] = field(default_factory=dict)

    @classmethod
    def from_keys(cls, keys: Iterable[TupleKey]) -> "ApproximationSet":
        approx = cls()
        approx.add_keys(keys)
        return approx

    @classmethod
    def from_codes(
        cls, tables: Sequence[str], codes: np.ndarray, slots: int
    ) -> "ApproximationSet":
        """The set of the keys ``(tables[code % slots], code // slots)``."""
        slot, row_ids = codes % slots, codes // slots
        approx = cls()
        for s, table in enumerate(tables):
            ids = row_ids[slot == s]
            if len(ids):
                approx.rows[table] = set(ids.tolist())
        return approx

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[int]]) -> "ApproximationSet":
        return cls(rows={t: set(int(i) for i in ids) for t, ids in mapping.items()})

    # -------------------------------------------------------------- #
    def add_keys(self, keys: Iterable[TupleKey]) -> None:
        for table, row_id in keys:
            self.rows.setdefault(table, set()).add(int(row_id))

    def __contains__(self, key: TupleKey) -> bool:
        table, row_id = key
        return int(row_id) in self.rows.get(table, ())

    def total_size(self) -> int:
        """Total number of tuples — the quantity the budget ``k`` bounds."""
        return sum(len(ids) for ids in self.rows.values())

    def keys(self) -> list[TupleKey]:
        out: list[TupleKey] = []
        for table in sorted(self.rows):
            out.extend((table, row_id) for row_id in sorted(self.rows[table]))
        return out

    def sampling_fraction(self, db: Database) -> float:
        """``|S| / |T|`` over the tables this set covers, in (0, 1].

        The shadow auditor uses the inverse as a Horvitz–Thompson scale
        for COUNT/SUM audits (see
        :func:`repro.core.metric.aggregate_relative_error`): the set is
        not a uniform sample, so this is the best single-factor
        correction available without per-table bookkeeping.
        """
        covered = sum(
            len(db.table(t)) for t in self.rows if db.has_table(t)
        )
        if covered <= 0:
            return 1.0
        return min(1.0, max(self.total_size(), 1) / covered)

    # -------------------------------------------------------------- #
    def to_database(self, db: Database, name: str = "") -> Database:
        """Materialize as a queryable sub-database of ``db``."""
        return db.subset(
            {t: sorted(ids) for t, ids in self.rows.items()},
            name=name or f"{db.name}:approx",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{t}:{len(ids)}" for t, ids in sorted(self.rows.items()))
        return f"ApproximationSet({parts}; total={self.total_size()})"
