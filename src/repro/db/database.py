"""A named collection of tables plus derivation of sub-databases.

An *approximation set* in ASQP-RL is exactly a sub-database: the same
schema with per-table subsets of rows (identified by base row ids). Both
the full data and every candidate approximation set are :class:`Database`
objects, so queries run through one executor for both.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Optional, TypeVar

import numpy as np

from .schema import INT_NULL, ColumnType, SchemaError
from .table import Table

#: How many queries a database keeps a prepared plan for
#: (:mod:`repro.db.executor`) and an answerability estimator keeps an
#: estimate for; past it the oldest entry goes.
PREPARED_QUERIES = 256

_V = TypeVar("_V")


def prepared(store: dict, key: Hashable, derive: Callable[[], _V]) -> _V:
    """``store[key]``, derived and kept on first sight.

    The store holds at most :data:`PREPARED_QUERIES` entries, evicting
    in insertion order. A key that does not hash (a query built with
    list fields) is derived afresh every time and never kept.
    """
    try:
        value = store.get(key)
    except TypeError:
        return derive()
    if value is None:
        value = derive()
        if len(store) >= PREPARED_QUERIES:
            del store[next(iter(store))]
        store[key] = value
    return value


class Database:
    """A set of uniquely named tables."""

    def __init__(self, tables: Iterable[Table] = (), name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        #: Prepared plans by query (see :func:`repro.db.executor.execute`);
        #: they die with the database, whose tables are never replaced.
        self.plans: dict = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise SchemaError(f"database {self.name!r} already has table {table.name!r}")
        self._tables[table.name] = table

    # -------------------------------------------------------------- #
    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                f"database {self.name!r} has no table {name!r}; "
                f"available: {self.table_names}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def total_rows(self) -> int:
        return sum(len(table) for table in self._tables.values())

    # -------------------------------------------------------------- #
    def subset(
        self,
        row_ids: Mapping[str, Iterable[int]],
        name: Optional[str] = None,
    ) -> "Database":
        """Build the sub-database keeping the given base row ids per table.

        Tables absent from ``row_ids`` become empty (the approximation set
        simply holds no tuples from them); unknown table names are an error.
        """
        for table_name in row_ids:
            if table_name not in self._tables:
                raise SchemaError(
                    f"subset references unknown table {table_name!r}; "
                    f"available: {self.table_names}"
                )
        tables = []
        for table in self._tables.values():
            keep = row_ids.get(table.name, ())
            tables.append(table.subset_by_row_ids(keep))
        return Database(tables, name=name or f"{self.name}:subset")

    def scale(self, factor: int) -> "Database":
        """A database ``factor`` times larger: every table tiled ``factor``
        times, as ``factor`` disjoint copies of the data.

        Used by the Figure-4 "problem justification" experiment, which
        measures direct-query latency on progressively larger copies of the
        data. Copy ``i`` of every integer primary-key and foreign-key column
        (``TableSchema.primary_key`` / ``foreign_keys``) is offset by ``i *
        span``, ``span`` exceeding the spread of their values, so copy ``i``
        joins only copy ``i``: every query returns ``factor`` times its rows.
        Other key columns are tiled unchanged. Rows get fresh row ids.
        """
        if factor < 1:
            raise ValueError(f"scale factor must be >= 1, got {factor}")
        keys = {
            t.name: [name for name in dict.fromkeys(
                [t.schema.primary_key, *(fk.column for fk in t.schema.foreign_keys)]
            ) if name and t.schema.column(name).ctype is ColumnType.INT]
            for t in self
        }
        span = 1 + 2 * max([
            int(np.abs(v[v != INT_NULL]).max(initial=0))
            for t in self for v in map(t.column, keys[t.name])
        ], default=0)
        tables = []
        for table in self._tables.values():
            blown = table.take(np.tile(np.arange(len(table)), factor))
            columns = {c: blown.column(c) for c in blown.schema.column_names}
            offsets = np.repeat(np.arange(factor, dtype=np.int64) * span, len(table))
            for name in keys[table.name]:
                values = columns[name]
                columns[name] = np.where(values == INT_NULL, values, values + offsets)
            tables.append(Table(blown.schema, columns, row_ids=np.arange(len(blown))))
        return Database(tables, name=f"{self.name}:x{factor}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        summary = ", ".join(f"{t.name}({len(t)})" for t in self._tables.values())
        return f"Database({self.name!r}: {summary})"
