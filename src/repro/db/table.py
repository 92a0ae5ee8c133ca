"""Dictionary-encoded column-store table.

A :class:`Table` owns one stored column per schema column plus a stable
integer *row id* per row. Row ids are positions in the base table and
survive into subsets taken with :meth:`Table.take`, which is how
approximation sets remember which base tuples they contain.

Storage:

* ``STR`` columns are **dictionary-encoded** (:class:`DictEncoded`): a
  lexicographically sorted dictionary of distinct strings plus one
  ``int32`` code per row. Because the dictionary is sorted, code order
  equals string order, so equality *and* range predicates, joins, sorts,
  and DISTINCT can all run directly on the codes — a query result keeps
  them too, and strings materialize only when a caller reads the column
  (late materialization).
* ``INT`` (``int64``, NULL as :data:`~repro.db.schema.INT_NULL`) and
  ``FLOAT`` (``float64``, NULL as NaN) columns are stored plain, as the
  read-only array :meth:`Column.coerce` returns.

:meth:`Table.column` decodes a dictionary column on demand and caches the
decoded array, so every consumer of values keeps working unchanged; the
executor reads codes through :meth:`Table.encoding` / :meth:`Table.raw_column`
and never pays the decode on its hot paths. :meth:`Table.take` subsets
codes directly (an ``int32`` gather instead of an object-array gather),
which is what makes derived sub-databases cheap.

Every table carries a process-unique :attr:`Table.encoding_version`; a
rebuilt or re-encoded table gets a fresh version, the key a cache of
derived results invalidates on.

:meth:`Table.key_facts` gives an ``INT`` column's bounds, NULL-freedom and
uniqueness, computed on first request and kept: a join reads them for its
keys instead of deriving them from the rows on every run.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .kernels import KeyFacts
from .schema import INT_NULL, Column, ColumnType, SchemaError, TableSchema

#: Process-wide monotonically increasing encoding version source. Every
#: constructed Table (including subsets) draws a fresh version, so any
#: rebuild / re-encode observably changes the version.
_ENCODING_VERSIONS = itertools.count(1)


class DictEncoded:
    """A dictionary-encoded string column.

    ``dictionary`` is the sorted array of distinct values (object dtype,
    ascending by Python string order — identical to numpy ``U`` order for
    well-formed text), ``codes`` is one ``int32`` per row indexing into
    it. Equal values have equal codes and code order equals value order.

    :meth:`from_values` encodes a sequence of strings. A generator that
    draws each row as an index into a short list of values encodes the
    draws with :meth:`from_picks` instead, and never builds the per-row
    list; one whose rows are all distinct (synthetic names) encodes a ``U``
    array with :meth:`from_distinct`. A :class:`Table` stores an encoding
    handed to a ``STR`` column as it is.
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray) -> None:
        self.codes = codes
        self.dictionary = dictionary

    @classmethod
    def from_values(cls, values: Sequence[str]) -> "DictEncoded":
        """Encode ``values``: ``np.unique(values, return_inverse=True)``'s
        sorted object dictionary and its codes as ``int32``.

        The values are hashed into a set, only the distinct ones are
        sorted, and each row's code is a dict lookup, so the sort never
        touches the (usually far more numerous) rows.
        """
        distinct = sorted(set(values))
        code_of = {value: code for code, value in enumerate(distinct)}
        codes = np.fromiter(
            map(code_of.__getitem__, values), dtype=np.int32, count=len(values)
        )
        return cls._frozen(codes, distinct)

    @classmethod
    def from_picks(cls, values: Sequence[str], picks: np.ndarray) -> "DictEncoded":
        """:meth:`from_values` of ``[values[i] for i in picks]``, without
        that list: the dictionary is the sorted set of the drawn values,
        and each row's code is its pick's rank in it, one gather by
        ``picks``. Only the (few) ``values`` are hashed and sorted; a value
        listed twice gets one code, and an undrawn one none.
        """
        values = list(values)
        picks = np.asarray(picks, dtype=np.int64)
        drawn = np.zeros(len(values), dtype=bool)
        drawn[picks] = True
        drawn = np.flatnonzero(drawn).tolist()
        distinct = sorted({values[i] for i in drawn})
        code_of = {value: code for code, value in enumerate(distinct)}
        rank = np.zeros(len(values), dtype=np.int32)
        rank[drawn] = [code_of[values[i]] for i in drawn]
        codes = rank[picks]
        return cls._frozen(codes, distinct)

    @classmethod
    def from_distinct(cls, values: np.ndarray) -> "DictEncoded":
        """:meth:`from_values` of a ``U`` array of distinct strings, sorted
        in C: the dictionary is the values in ``argsort`` order and the
        codes its inverse permutation."""
        order = np.argsort(values)
        codes = np.empty(len(values), dtype=np.int32)
        codes[order] = np.arange(len(values), dtype=np.int32)
        return cls._frozen(codes, values[order].astype(object))

    @classmethod
    def _frozen(cls, codes: np.ndarray, distinct: Sequence[str]) -> "DictEncoded":
        """The read-only encoding of ``codes`` over the sorted ``distinct``."""
        dictionary = np.asarray(distinct, dtype=object)
        codes.setflags(write=False)
        dictionary.setflags(write=False)
        return cls(codes, dictionary)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def n_values(self) -> int:
        return len(self.dictionary)

    def decode(self) -> np.ndarray:
        if len(self.dictionary) == 0:
            return np.empty(len(self.codes), dtype=object)
        return self.dictionary[self.codes]

    def take(self, positions: np.ndarray) -> "DictEncoded":
        codes = self.codes[positions]
        codes.setflags(write=False)
        return DictEncoded(codes, self.dictionary)


#: What a column slot may hold: a plain numpy array or an encoding.
ColumnStorage = Union[np.ndarray, DictEncoded]


def _encode_column(column: Column, array: np.ndarray) -> ColumnStorage:
    if column.ctype is ColumnType.STR:
        return DictEncoded.from_values(array)
    array.setflags(write=False)
    return array


class Table:
    """An immutable in-memory table over the dictionary-encoded column store.

    Parameters
    ----------
    schema:
        The table schema.
    columns:
        Mapping from column name to a sequence of values (all the same
        length). Values are coerced to the column's storage dtype on
        construction, and string columns dictionary-encoded; a
        :class:`DictEncoded` given for a ``STR`` column is stored as it is.
    row_ids:
        Optional explicit row ids. Defaults to ``arange(n)``; subsets carry
        the ids of the base rows they came from.
    """

    def __init__(
        self,
        schema: TableSchema,
        columns: Mapping[str, Sequence],
        row_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.schema = schema
        missing = [c.name for c in schema.columns if c.name not in columns]
        if missing:
            raise SchemaError(f"table {schema.name!r}: missing columns {missing}")
        extra = [name for name in columns if not schema.has_column(name)]
        if extra:
            raise SchemaError(f"table {schema.name!r}: unknown columns {extra}")

        self._store: dict[str, ColumnStorage] = {}
        n_rows: Optional[int] = None
        for column in schema.columns:
            values = columns[column.name]
            if not isinstance(values, DictEncoded):
                storage = _encode_column(column, column.coerce(values))
            elif column.ctype is ColumnType.STR:
                storage = values
            else:
                raise SchemaError(
                    f"table {schema.name!r}: column {column.name!r} of type "
                    f"{column.ctype.name} given a dictionary encoding"
                )
            if n_rows is None:
                n_rows = len(storage)
            elif len(storage) != n_rows:
                raise SchemaError(
                    f"table {schema.name!r}: column {column.name!r} has "
                    f"{len(storage)} values, expected {n_rows}"
                )
            self._store[column.name] = storage
        self._finish_init(int(n_rows or 0), row_ids)

    def _finish_init(self, n_rows: int, row_ids: Optional[np.ndarray]) -> None:
        self._n_rows = n_rows
        self._decoded: dict[str, np.ndarray] = {}
        self._facts: dict[str, Optional[KeyFacts]] = {}
        # Set by `statistics.compute_database_stats` on its first request.
        self._stats = None
        self.encoding_version = next(_ENCODING_VERSIONS)
        if row_ids is None:
            row_ids = np.arange(self._n_rows, dtype=np.int64)
        else:
            row_ids = np.asarray(row_ids, dtype=np.int64)
            if len(row_ids) != self._n_rows:
                raise SchemaError(
                    f"table {self.schema.name!r}: {len(row_ids)} row ids for "
                    f"{self._n_rows} rows"
                )
        row_ids.setflags(write=False)
        self.row_ids = row_ids

    @classmethod
    def _from_store(
        cls,
        schema: TableSchema,
        store: dict[str, ColumnStorage],
        n_rows: int,
        row_ids: Optional[np.ndarray],
    ) -> "Table":
        """Internal fast path: build a table from already-stored columns."""
        table = cls.__new__(cls)
        table.schema = schema
        table._store = store
        table._finish_init(n_rows, row_ids)
        return table

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._n_rows

    def column(self, name: str) -> np.ndarray:
        """The value array of a column (read-only; dictionary columns are
        decoded once and cached)."""
        self.schema.column(name)  # validates the name
        storage = self._store[name]
        if isinstance(storage, np.ndarray):
            return storage
        cached = self._decoded.get(name)
        if cached is None:
            cached = self._decoded[name] = storage.decode()
            cached.setflags(write=False)
        return cached

    def encoding(self, name: str) -> Optional[DictEncoded]:
        """The dictionary encoding of a column (None when stored plain)."""
        self.schema.column(name)
        storage = self._store[name]
        return None if isinstance(storage, np.ndarray) else storage

    def raw_column(self, name: str) -> np.ndarray:
        """The physical array of a column: codes when encoded, else values.

        For dictionary columns this is the ``int32`` code array (compare
        with :attr:`DictEncoded.dictionary` order); for every other column
        it is :meth:`column` itself.
        """
        self.schema.column(name)
        storage = self._store[name]
        return storage if isinstance(storage, np.ndarray) else storage.codes

    def dictionary(self, name: str) -> Optional[np.ndarray]:
        """The sorted dictionary of a dict-encoded column, else None."""
        storage = self._store.get(name)
        if isinstance(storage, DictEncoded):
            return storage.dictionary
        return None

    def key_facts(self, name: str) -> Optional[KeyFacts]:
        """The :class:`~repro.db.kernels.KeyFacts` of an ``INT`` column
        (None for any other type), computed on first request and kept."""
        if name not in self._facts:
            column = self.schema.column(name)
            self._facts[name] = (
                _int_facts(self._store[name]) if column.ctype is ColumnType.INT else None
            )
        return self._facts[name]

    def row(self, index: int) -> dict[str, object]:
        """Materialize one row (by position, not row id) as a dict."""
        if not 0 <= index < self._n_rows:
            raise IndexError(
                f"table {self.name!r}: row {index} out of range 0..{self._n_rows - 1}"
            )
        return {name: self.column(name)[index] for name in self.schema.column_names}

    def rows(self) -> Iterator[dict[str, object]]:
        """Iterate over all rows as dicts. Intended for tests and display."""
        for index in range(self._n_rows):
            yield self.row(index)

    def null_mask(self, name: str) -> np.ndarray:
        dictionary = self.dictionary(name)
        if dictionary is None:
            return self.schema.column(name).null_mask(self.column(name))
        # The NULL string "" sorts first: it is code 0 iff present.
        return (self.raw_column(name) == 0) & (dictionary[:1] == "").any()

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def take(self, positions: np.ndarray) -> "Table":
        """A new table containing the rows at ``positions`` (in order).

        Row ids are carried through, so a subset of a subset still refers
        to base-table rows. Subsetting gathers dictionary codes directly
        (dictionaries are shared, not copied).
        """
        positions = np.asarray(positions, dtype=np.int64)
        store: dict[str, ColumnStorage] = {}
        for name, storage in self._store.items():
            if isinstance(storage, np.ndarray):
                taken = storage[positions]
                taken.setflags(write=False)
                store[name] = taken
            else:
                store[name] = storage.take(positions)
        return Table._from_store(
            self.schema, store, len(positions), self.row_ids[positions]
        )

    def filter_mask(self, mask: np.ndarray) -> "Table":
        """A new table keeping rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._n_rows:
            raise ValueError(
                f"table {self.name!r}: mask length {len(mask)} != {self._n_rows} rows"
            )
        return self.take(np.flatnonzero(mask))

    def subset_by_row_ids(self, keep_ids: Iterable[int]) -> "Table":
        """A new table keeping rows whose *row id* is in ``keep_ids``."""
        keep = np.asarray(sorted(set(int(i) for i in keep_ids)), dtype=np.int64)
        mask = np.isin(self.row_ids, keep)
        return self.filter_mask(mask)

    # ------------------------------------------------------------------ #
    # display
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={self._n_rows}, cols={self.schema.column_names})"

    def _repr_html_(self) -> str:
        """Jupyter rendering (the paper targets notebook EDA sessions)."""
        limit = 10
        names = self.schema.column_names
        columns = {name: self.column(name) for name in names}
        rows = [
            [columns[name][i] for name in names]
            for i in range(min(limit, self._n_rows))
        ]
        caption = f"{self.name} — {self._n_rows} rows"
        if self._n_rows > limit:
            caption += f" (showing {limit})"
        return render_html_table(names, rows, caption=caption)


def _int_facts(values: np.ndarray) -> KeyFacts:
    """Bounds of the non-NULL values, NULL-freedom and uniqueness (one
    stable sort, a single run for a column stored in key order)."""
    ordered = np.sort(values, kind="stable")
    # NULL is the least int64, so the NULLs are the sorted head.
    n_nulls = int(np.searchsorted(ordered, INT_NULL, side="right"))
    low, high = (int(ordered[n_nulls]), int(ordered[-1])) if n_nulls < len(ordered) else (0, -1)
    return KeyFacts(
        low=low,
        high=high,
        null_free=n_nulls == 0,
        unique=not (ordered[1:] == ordered[:-1]).any(),
    )


def _html_escape(value: object) -> str:
    text = str(value)
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_html_table(headers, rows, caption: str = "") -> str:
    """Minimal HTML table used by the Jupyter reprs (no styling deps)."""
    parts = ["<table>"]
    if caption:
        parts.append(f"<caption>{_html_escape(caption)}</caption>")
    parts.append(
        "<thead><tr>"
        + "".join(f"<th>{_html_escape(h)}</th>" for h in headers)
        + "</tr></thead><tbody>"
    )
    for row in rows:
        parts.append(
            "<tr>" + "".join(f"<td>{_html_escape(v)}</td>" for v in row) + "</tr>"
        )
    parts.append("</tbody></table>")
    return "".join(parts)
