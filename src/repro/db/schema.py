"""Schema objects for the in-memory relational engine.

The engine is a small column-store: a :class:`TableSchema` describes typed
columns, and :class:`repro.db.table.Table` stores one numpy array per column.
Three logical column types cover everything the ASQP-RL benchmarks need:

* ``INT`` — stored as ``numpy.int64``
* ``FLOAT`` — stored as ``numpy.float64``
* ``STR`` — stored as a numpy object array of Python strings

Nullability is modelled with sentinel values (``INT_NULL``, ``nan``, ``""``)
so every column stays a flat numpy array and predicate evaluation remains
vectorized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

#: Sentinel used for NULL integers (numpy int arrays cannot hold NaN).
INT_NULL = np.iinfo(np.int64).min


class ColumnType(enum.Enum):
    """Logical type of a column."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    @property
    def dtype(self) -> np.dtype:
        """The numpy dtype used to store this logical type."""
        if self is ColumnType.INT:
            return np.dtype(np.int64)
        if self is ColumnType.FLOAT:
            return np.dtype(np.float64)
        return np.dtype(object)

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INT, ColumnType.FLOAT)


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    ctype:
        Logical :class:`ColumnType`.
    nullable:
        Whether NULL sentinels may appear.
    """

    name: str
    ctype: ColumnType
    nullable: bool = False

    def coerce(self, values: Sequence) -> np.ndarray:
        """Coerce ``values`` into this column's storage array.

        A ``STR`` column stores an object array. A sequence of ``str``
        (subclasses such as ``np.str_`` included) is stored with one slice
        assignment, the objects kept as they are; only when some entry is
        not a ``str`` is each such entry converted (``None`` -> ``""``,
        anything else -> ``str(value)``). A fixed-width ``U`` array's
        entries are stored as Python ``str``.

        Raises
        ------
        TypeError
            If a value cannot be represented in the column type.
        """
        if self.ctype is ColumnType.INT:
            try:
                return np.asarray(values, dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise TypeError(
                    f"column {self.name!r}: cannot coerce values to INT: {exc}"
                ) from exc
        if self.ctype is ColumnType.FLOAT:
            try:
                return np.asarray(values, dtype=np.float64)
            except ValueError as exc:
                raise TypeError(
                    f"column {self.name!r}: cannot coerce values to FLOAT: {exc}"
                ) from exc
        if not all(issubclass(kind, str) for kind in set(map(type, values))):
            values = [
                value if isinstance(value, str) else "" if value is None else str(value)
                for value in values
            ]
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr

    def null_mask(self, array: np.ndarray) -> np.ndarray:
        """Boolean mask of NULL entries in a storage array of this column."""
        if self.ctype is ColumnType.INT:
            return array == INT_NULL
        if self.ctype is ColumnType.FLOAT:
            return np.isnan(array)
        return np.asarray([value == "" for value in array], dtype=bool)


class SchemaError(ValueError):
    """Raised for malformed schemas or schema/data mismatches."""


@dataclass
class ForeignKey:
    """A foreign-key edge: ``table.column`` references ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass
class TableSchema:
    """Ordered collection of columns plus key metadata for one table.

    Parameters
    ----------
    name:
        Table name, unique within a database.
    columns:
        Ordered columns. The first column is conventionally the primary key
        in the bundled benchmark schemas, but ``primary_key`` is explicit.
    primary_key:
        Name of the primary-key column, or ``None`` for keyless tables.
    foreign_keys:
        Outgoing foreign-key edges, used by the dataset generators and by
        the workload generator to produce joinable queries.
    """

    name: str
    columns: Sequence[Column]
    primary_key: Optional[str] = None
    foreign_keys: Sequence[ForeignKey] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r}: duplicate column names in {names}")
        if not names:
            raise SchemaError(f"table {self.name!r}: a table needs at least one column")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(
                f"table {self.name!r}: primary key {self.primary_key!r} is not a column"
            )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise SchemaError(
                    f"table {self.name!r}: foreign key column {fk.column!r} is not a column"
                )
        self._by_name = {column.name: column for column in self.columns}

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        """Look up a column by name, raising :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name
