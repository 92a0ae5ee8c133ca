"""Query execution: filters, hash equi-joins, projection, aggregation.

The executor is deliberately simple but real: predicate pushdown to base
tables, statistics-driven join ordering over the join graph, and joins /
distinct / aggregation running on the shared vectorized kernels in
:mod:`repro.db.kernels` (multi-column key factorization + sort /
``searchsorted``). It executes the same :class:`~repro.db.query.SPJQuery`
objects against the full database and against approximation-set
sub-databases, which is what Eq. 1 of the paper compares.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs.clock import perf_counter, process_time
from . import kernels
from .kernels import KeyFacts
from ..obs import context as _context
from ..obs import memory as _memory
from ..obs import telemetry as _telemetry
from ..obs import trace as _trace
from ..obs.runtime import STATE as _OBS
from .database import Database, prepared
from .expressions import (
    Expression,
    TrueExpr,
    _resolve_ref,
    conjoin,
    conjuncts,
    first_value_code,
    null_mask,
    rewrite_for_codes,
)
from .plan import PlanNode, QueryPlan
from .query import (
    AggFunc,
    AggregateQuery,
    JoinCondition,
    QueryError,
    SPJQuery,
    joins_between,
)
from .statistics import (
    DEFAULT_CONJUNCT_SELECTIVITY,
    estimate_ndv,
    estimate_predicate_selectivity,
    estimated_join_cardinality,
)


@dataclass
class QueryStats:
    """Per-query resource accounting envelope (DESIGN.md §11).

    Attached to :attr:`ResultSet.stats` by the observed execution path
    and surfaced in EXPLAIN ANALYZE. ``cpu_seconds`` is the process's
    ``process_time`` delta over the query.
    """

    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    rows_scanned: int = 0
    rows_produced: int = 0
    #: 128-bit request trace id (repro.obs.context) — the handle that
    #: resolves this query in `repro analyze --trace`.
    trace_id: Optional[str] = None

    def to_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "rows_scanned": self.rows_scanned,
            "rows_produced": self.rows_produced,
        }


@dataclass
class ResultSet:
    """A relational intermediate / final result.

    ``columns`` maps qualified refs (``"table.column"``) to value arrays;
    ``row_ids`` maps each base table to the base row id contributing to each
    output row. All arrays share the same length.

    Late materialization: dictionary-encoded string columns stay as
    ``int32`` code arrays in ``columns`` with their sorted dictionaries in
    ``encodings`` — predicates, join keys, sorts, and DISTINCT all compare
    codes, and :func:`execute` returns the result still encoded. A column's
    values are decoded on first read through :meth:`column` (and cached per
    column), which every reader — :meth:`to_rows`, :meth:`tuple_keys`,
    :meth:`decoded_context` — goes through; a caller that reads only
    ``row_ids`` or the length decodes nothing.

    ``facts`` holds the :class:`~repro.db.kernels.KeyFacts` of the integer
    join keys of a leaf's table (:meth:`Table.key_facts`), by ref. Bounds
    and NULL-freedom hold for any rows of a column, so a filter, a
    projection and a join keep them; uniqueness holds while no row
    repeats, so only the operators that never repeat one carry them (a
    join sets its output's itself).
    """

    columns: dict[str, np.ndarray]
    row_ids: dict[str, np.ndarray]
    n_rows: int
    encodings: dict[str, np.ndarray] = field(default_factory=dict)
    facts: dict[str, KeyFacts] = field(default_factory=dict, repr=False, compare=False)
    #: Per-query resource accounting, attached by the observed execution
    #: path (None on internal intermediates and unobserved runs).
    stats: Optional[QueryStats] = field(default=None, repr=False, compare=False)
    _decoded: dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __len__(self) -> int:
        return self.n_rows

    def resolve(self, ref: str) -> str:
        """The qualified key a (possibly bare) ref denotes, or raise."""
        if ref in self.columns:
            return ref
        matches = [key for key in self.columns if key.endswith("." + ref)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise QueryError(
                f"column reference {ref!r} is ambiguous; matches {sorted(matches)}"
            )
        raise QueryError(f"result has no column {ref!r}; available: {sorted(self.columns)}")

    def column(self, ref: str) -> np.ndarray:
        """Decoded values of a column (dictionary columns materialize)."""
        key = self.resolve(ref)
        dictionary = self.encodings.get(key)
        if dictionary is None:
            return self.columns[key]
        cached = self._decoded.get(key)
        if cached is None:
            cached = self._decoded[key] = _decode_codes(
                dictionary, self.columns[key]
            )
        return cached

    def decoded_context(self) -> Mapping[str, np.ndarray]:
        """A {ref: values} view for predicate evaluation: every ref is
        there, and a column decodes when the predicate reads it."""
        return _DecodedView(self)

    def take(
        self, positions: np.ndarray, live: Optional[set[str]] = None
    ) -> "ResultSet":
        """The rows at ``positions``: every row id, and the ``live``
        columns (None: all of them) with their facts (a caller whose
        positions repeat a row resets uniqueness)."""
        positions = np.asarray(positions, dtype=np.int64)
        if live is None:
            columns = {ref: arr[positions] for ref, arr in self.columns.items()}
            encodings, facts = self.encodings, self.facts
        else:
            columns = {
                ref: arr[positions] for ref, arr in self.columns.items() if ref in live
            }
            encodings = {ref: d for ref, d in self.encodings.items() if ref in live}
            facts = {ref: f for ref, f in self.facts.items() if ref in live}
        return ResultSet(
            columns=columns,
            row_ids={t: arr[positions] for t, arr in self.row_ids.items()},
            n_rows=len(positions),
            encodings=encodings,
            facts=facts,
        )

    def tuple_keys(self) -> list[tuple]:
        """Hashable identity per output row (projected values)."""
        refs = sorted(self.columns)
        return _row_tuples([self.column(ref) for ref in refs], self.n_rows)

    def provenance_keys(self) -> list[tuple]:
        """Hashable identity per output row by base-row provenance."""
        tables = sorted(self.row_ids)
        return _row_tuples([self.row_ids[t] for t in tables], self.n_rows)

    def to_rows(self) -> list[dict[str, object]]:
        refs = list(self.columns)
        arrays = {ref: self.column(ref) for ref in refs}
        return [
            {ref: arrays[ref][i] for ref in refs} for i in range(self.n_rows)
        ]

    def _repr_html_(self) -> str:
        """Jupyter rendering of the first rows."""
        from .table import render_html_table

        refs = list(self.columns)
        arrays = {ref: self.column(ref) for ref in refs}
        limit = 20
        rows = [
            [arrays[ref][i] for ref in refs]
            for i in range(min(limit, self.n_rows))
        ]
        caption = f"{self.n_rows} rows"
        if self.n_rows > limit:
            caption += f" (showing {limit})"
        return render_html_table(refs, rows, caption=caption)


class _DecodedView(Mapping):
    """The refs of a result, each read through :meth:`ResultSet.column`."""

    def __init__(self, result: ResultSet) -> None:
        self._result = result

    def __getitem__(self, ref: str) -> np.ndarray:
        if ref not in self._result.columns:
            raise KeyError(ref)
        return self._result.column(ref)

    def __contains__(self, ref: object) -> bool:
        return ref in self._result.columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._result.columns)

    def __len__(self) -> int:
        return len(self._result.columns)


def _row_tuples(arrays: list[np.ndarray], n_rows: int) -> list[tuple]:
    """One tuple of Python scalars per row (they hash and compare equal to
    the numpy scalars); ``n_rows`` empty tuples when there are no columns."""
    if not arrays:
        return [()] * n_rows
    return list(zip(*(array.tolist() for array in arrays)))


def _decode_codes(dictionary: np.ndarray, codes: np.ndarray) -> np.ndarray:
    if len(dictionary) == 0:
        return np.empty(len(codes), dtype=object)
    return dictionary[codes]


@dataclass
class AggregateResult:
    """Result of an aggregate query: one row per group."""

    group_columns: Tuple[str, ...]
    agg_names: Tuple[str, ...]
    rows: list[dict[str, object]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def as_mapping(self) -> dict[tuple, dict[str, float]]:
        """Map group-key tuple -> {aggregate name: value}."""
        mapping: dict[tuple, dict[str, float]] = {}
        for row in self.rows:
            key = tuple(row[c] for c in self.group_columns)
            mapping[key] = {name: row[name] for name in self.agg_names}
        return mapping

    def _repr_html_(self) -> str:
        """Jupyter rendering of the grouped answer."""
        from .table import render_html_table

        headers = list(self.group_columns) + list(self.agg_names)
        rows = [[row[h] for h in headers] for row in self.rows[:50]]
        return render_html_table(headers, rows, caption=f"{len(self.rows)} groups")


class ExecutionError(RuntimeError):
    """Raised when a query cannot be executed against a database."""


def _base_context(db: Database, table_name: str) -> ResultSet:
    """Encoded scan context: dictionary columns enter as code arrays.

    Integer and float columns come in as the table stores them, string
    columns as ``int32`` codes plus their sorted dictionaries — the
    executor's late-materialization contract.
    """
    table = db.table(table_name)
    columns: dict[str, np.ndarray] = {}
    encodings: dict[str, np.ndarray] = {}
    for name in table.schema.column_names:
        ref = f"{table_name}.{name}"
        columns[ref] = table.raw_column(name)
        dictionary = table.dictionary(name)
        if dictionary is not None:
            encodings[ref] = dictionary
    return ResultSet(
        columns=columns,
        row_ids={table_name: table.row_ids},
        n_rows=len(table),
        encodings=encodings,
    )


def _rewrite_predicate(predicate: Expression, result: ResultSet):
    """The predicate in the result's physical value space, or None.

    With no encoded columns the physical space is the value space and the
    predicate passes through; otherwise string atoms are rewritten to
    dictionary codes (:func:`repro.db.expressions.rewrite_for_codes`),
    and ``None`` means "not rewritable — evaluate on decoded values".
    """
    if not result.encodings:
        return predicate
    return rewrite_for_codes(predicate, result.encodings, list(result.columns))


def _filter_positions(
    result: ResultSet, predicate: Expression, rewritten: Optional[Expression]
) -> np.ndarray:
    """Positions of rows satisfying the predicate (physical-space eval).

    Evaluates ``rewritten`` — :func:`_rewrite_predicate`'s answer for
    this predicate and result — when there is one, else the predicate on
    values decoded into a view, so a prepared scan context never keeps
    them.
    """
    if rewritten is None:
        return np.flatnonzero(predicate.evaluate(_view(result).decoded_context()))
    return np.flatnonzero(rewritten.evaluate(result.columns))


def _view(result: ResultSet) -> ResultSet:
    """A new result over the same arrays, with its own stats and decodes."""
    return ResultSet(
        columns=dict(result.columns),
        row_ids=dict(result.row_ids),
        n_rows=result.n_rows,
        encodings=dict(result.encodings),
        facts=result.facts,
    )


_NO_ROWS = np.zeros(0, dtype=np.int64)


def _scan_selectivity(context: ResultSet, predicate: Expression) -> float:
    """Planner selectivity estimate in whichever space evaluates cheaply."""
    rewritten = _rewrite_predicate(predicate, context)
    if rewritten is None:
        return estimate_predicate_selectivity(predicate, context.decoded_context())
    return estimate_predicate_selectivity(rewritten, context.columns)


def _tables_of(expression: Expression) -> set[str]:
    return {ref.split(".", 1)[0] for ref in expression.columns() if "." in ref}


def _pushdown(predicate: Expression, tables: Sequence[str]) -> tuple[dict[str, Expression], Expression]:
    """Split a predicate into per-table conjuncts plus a residual.

    Conjuncts touching exactly one table are applied before joining; the
    rest (multi-table or OR-of-multi-table) run on the joined context.
    """
    per_table: dict[str, list[Expression]] = {t: [] for t in tables}
    residual: list[Expression] = []
    for part in conjuncts(predicate):
        touched = _tables_of(part)
        if len(touched) == 1 and next(iter(touched)) in per_table:
            per_table[next(iter(touched))].append(part)
        elif not touched and len(tables) == 1:
            # Bare (unqualified) refs in a single-table query can only
            # mean that table — push down so the scan filters them.
            per_table[tables[0]].append(part)
        else:
            residual.append(part)
    return (
        {t: conjoin(parts) for t, parts in per_table.items()},
        conjoin(residual),
    )


def _columns_read(
    query: SPJQuery,
    residual: Expression,
    outputs: Optional[Sequence[str]],
    scanned: Sequence[ResultSet],
) -> Optional[set[str]]:
    """The columns a query reads past its joins, or None for all of them.

    The residual predicate's refs, the ORDER BY ref and ``outputs`` — what
    an aggregate reads of its core query, by default the projection —
    each resolved against every column of the ``scanned`` tables.
    ``SELECT *`` reads them all. So does a query with a ref that is not
    exactly one column, join keys included: it runs unpruned and fails
    where and how it always did (the messages list the columns available).
    """
    if outputs is None:
        outputs = query.projection
        if not outputs:
            return None
    filtered = residual.columns()
    if not filtered and not isinstance(residual, TrueExpr):
        return None  # a constant predicate takes its row count from a column
    refs = [*outputs, *filtered]
    if query.order_by:
        refs.append(query.order_by)
    keys = {key for context in scanned for key in context.columns}
    read = {_resolve_ref(ref, keys) for ref in refs}
    if None in read or not _join_keys(query.joins) <= keys:
        return None
    return read


def _join_keys(joins: Sequence[JoinCondition]) -> set[str]:
    return {ref for join in joins for ref in (join.left, join.right)}


def _join_order(
    tables: Sequence[str],
    joins: Sequence[JoinCondition],
    contexts: dict[str, "ResultSet"],
    sizes: dict[str, float],
    observed: bool,
) -> tuple[list[str], dict[str, float]]:
    """Statistics-driven greedy connected ordering over the join graph.

    Starts from the smallest input and repeatedly expands to the
    connected table with the smallest estimated output cardinality (the
    classic ``|L|·|R| / max(NDV)`` equi-join estimate). ``sizes`` are the
    per-table input cardinalities — materialized post-pushdown lengths
    when the query runs, estimated post-filter sizes under plain EXPLAIN —
    and ``contexts`` the per-table columns the NDVs are sampled from.

    Returns ``(order, estimates)`` where ``estimates[table]`` is the
    estimated intermediate cardinality after that table joins — the same
    numbers the ordering decision used, re-surfaced by EXPLAIN and the
    passive per-join q-error metric. An estimate (and the NDVs under it)
    is computed only where it is read: up to the last step at which two
    connected tables compete, and throughout when ``observed``. A chain
    nobody watches is ordered by its join graph alone.
    """
    if len(tables) <= 1:
        return list(tables), {}
    ndv_cache: dict[str, int] = {}

    def _ndv(ref: str) -> int:
        if ref not in ndv_cache:
            table = ref.split(".", 1)[0]
            array = contexts[table].columns.get(ref)
            ndv_cache[ref] = estimate_ndv(array) if array is not None else 1
        return ndv_cache[ref]

    def _estimate(rows: float, table: str, usable: Sequence[JoinCondition]) -> float:
        if not usable:  # disconnected: a cross product
            return rows * max(sizes[table], 1)
        first = usable[0]
        est = estimated_join_cardinality(
            rows, _ndv(first.left), sizes[table], _ndv(first.right)
        )
        for j in usable[1:]:  # extra equi-conditions filter further
            est /= max(_ndv(j.left), _ndv(j.right), 1)
        return est

    start = min(tables, key=lambda t: sizes[t])
    order = [start]
    joined = {start}
    remaining = [t for t in tables if t != start]
    est_rows = float(sizes[start])
    estimates: dict[str, float] = {}
    pending: list[tuple[str, Sequence[JoinCondition]]] = []  # joined, not yet estimated

    def settle() -> None:
        nonlocal est_rows
        for table, usable in pending:
            est_rows = estimates[table] = max(_estimate(est_rows, table, usable), 1.0)
        pending.clear()

    while remaining:
        connected = [
            (t, usable) for t in remaining if (usable := joins_between(joins, t, joined))
        ]
        if len(connected) > 1:  # a choice, made on the rows estimated so far
            settle()
            step = min(connected, key=lambda c: _estimate(est_rows, *c))
        elif connected:
            step = connected[0]
        else:  # disconnected: cheapest cross product
            step = min(remaining, key=lambda t: sizes[t]), ()
        pending.append(step)
        order.append(step[0])
        joined.add(step[0])
        remaining.remove(step[0])
    if observed:
        settle()
    return order, estimates


def _ordered_joins(
    query: SPJQuery, leaves: dict[str, _Rel], observed: bool, read: Optional[set[str]]
) -> tuple[
    list[str], dict[str, float], dict[str, list[JoinCondition]], list[Optional[set[str]]]
]:
    """:func:`_join_order` over the leaves, plus the conditions each table
    joins the intermediate on (none: a cross product) and, per join in
    order, the columns it keeps: those a later join reads or ``read``,
    what is read past the joins (None: every column)."""
    order, estimates = _join_order(
        query.tables, query.joins,
        {t: leaf.data for t, leaf in leaves.items()},
        {t: leaf.rows for t, leaf in leaves.items()},
        observed=observed,
    )
    conditions = {}
    for i, table in enumerate(order[1:], 1):
        conditions[table] = joins_between(query.joins, table, set(order[:i]))
    live = [read]
    for table in reversed(order[2:]):
        later = live[0]
        live.insert(0, None if later is None else later | _join_keys(conditions[table]))
    return order, estimates, conditions, live


def _aligned_key_pair(
    left: ResultSet, left_ref: str, right: ResultSet, right_ref: str
) -> tuple[np.ndarray, np.ndarray]:
    """One join condition's key arrays in a shared comparable space.

    Dictionary-encoded keys on both sides are aligned through a merged
    sorted dictionary (:func:`repro.db.kernels.merge_dictionaries`) so
    the join compares small integer codes instead of strings; a mixed
    encoded/plain pair decodes the encoded side.
    """
    left_array = left.columns[left_ref]
    right_array = right.columns[right_ref]
    left_dict = left.encodings.get(left_ref)
    right_dict = right.encodings.get(right_ref)
    if left_dict is not None and right_dict is not None:
        _, left_map, right_map = kernels.merge_dictionaries(left_dict, right_dict)
        return left_map[left_array], right_map[right_array]
    if left_dict is not None:
        return _decode_codes(left_dict, left_array), right_array
    if right_dict is not None:
        return left_array, _decode_codes(right_dict, right_array)
    return left_array, right_array


def _hash_join(
    left: ResultSet,
    right: ResultSet,
    conditions: Sequence[JoinCondition],
    live: Optional[set[str]],
) -> ResultSet:
    """Inner equi-join of two contexts on one or more conditions, keeping
    the ``live`` columns (None: all of them)."""
    refs = []
    for cond in conditions:
        if cond.left in left.columns and cond.right in right.columns:
            refs.append((cond.left, cond.right))
        elif cond.right in left.columns and cond.left in right.columns:
            refs.append((cond.right, cond.left))
        else:
            raise ExecutionError(
                f"join condition {cond.to_sql()!r} does not span the two inputs"
            )
    if not (len(left) and len(right)):  # an empty input matches nothing
        return _merge(right.take(_NO_ROWS, live), left.take(_NO_ROWS, live))
    # A NULL key equals nothing: with none on the smaller side, none matches.
    swap = len(right) < len(left)
    if swap:
        right = _without_null_keys(right, [r_ref for _, r_ref in refs])
    else:
        left = _without_null_keys(left, [l_ref for l_ref, _ in refs])
    left_keys, right_keys = [], []
    for l_ref, r_ref in refs:
        l_key, r_key = _aligned_key_pair(left, l_ref, right, r_ref)
        left_keys.append(l_key)
        right_keys.append(r_key)

    # One key a side: its facts, where they bound every value it holds
    # (the smaller side has lost its NULL rows above).
    left_facts = right_facts = None
    if len(refs) == 1:
        ((l_ref, r_ref),) = refs
        left_facts, right_facts = left.facts.get(l_ref), right.facts.get(r_ref)
    build_facts, probe_facts = (right_facts, left_facts) if swap else (left_facts, right_facts)
    if probe_facts is not None and not probe_facts.null_free:
        probe_facts = None

    # Build on the smaller side, probe with the larger (as the per-row
    # hash join did); the kernel preserves its bucket emission order. A
    # probe side every row of which matches once (None) is kept uncopied.
    build_keys, probe_keys = (right_keys, left_keys) if swap else (left_keys, right_keys)
    probe_idx, build_idx = kernels.join_positions(
        build_keys, probe_keys, build_facts, probe_facts
    )
    left_idx, right_idx = (probe_idx, build_idx) if swap else (build_idx, probe_idx)
    right_out, left_out = _side(right, right_idx, live), _side(left, left_idx, live)
    out = _merge(right_out, left_out)
    # A side's rows repeat unless the other side's key is unique.
    out.facts = {
        **_repeated(right_out, left_facts is not None and left_facts.unique),
        **_repeated(left_out, right_facts is not None and right_facts.unique),
    }
    return out


def _repeated(result: ResultSet, unique: bool) -> dict[str, KeyFacts]:
    """A join input's facts as its output rows hold them: uniqueness is
    lost unless no row of it repeats (``unique``)."""
    if unique:
        return result.facts
    return {
        ref: KeyFacts(f.low, f.high, f.null_free, False) if f.unique else f
        for ref, f in result.facts.items()
    }


def _side(
    result: ResultSet, positions: Optional[np.ndarray], live: Optional[set[str]]
) -> ResultSet:
    """One join input's rows at ``positions``; None keeps every row, its
    ``live`` columns uncopied."""
    if positions is None:
        kept = [key for key in result.columns if live is None or key in live]
        return _project(result, dict(zip(kept, kept)))
    return result.take(positions, live)


def _without_null_keys(result: ResultSet, refs: Sequence[str]) -> ResultSet:
    """``result`` less its rows with a NULL in any of the ``refs``."""
    nulls = None
    for ref in refs:
        facts = result.facts.get(ref)
        if facts is not None and facts.null_free:
            continue
        dictionary = result.encodings.get(ref)
        if dictionary is not None and not first_value_code(dictionary):
            continue  # no code is NULL
        mask = null_mask(result.columns[ref]) if dictionary is None else result.columns[ref] == 0
        nulls = mask if nulls is None else nulls | mask
    return result if nulls is None or not nulls.any() else result.take(np.flatnonzero(~nulls))


def _cross_join(left: ResultSet, right: ResultSet, live: Optional[set[str]]) -> ResultSet:
    left_idx = np.repeat(np.arange(len(left)), len(right))
    right_idx = np.tile(np.arange(len(right)), len(left))
    return _merge(left.take(left_idx, live), right.take(right_idx, live))


def _merge(left: ResultSet, right: ResultSet) -> ResultSet:
    """Two row-aligned results side by side — the output of every join."""
    return ResultSet(
        columns={**left.columns, **right.columns},
        row_ids={**left.row_ids, **right.row_ids},
        n_rows=len(left),
        encodings={**left.encodings, **right.encodings},
    )


def _join(
    left: ResultSet,
    right: ResultSet,
    conditions: Sequence[JoinCondition],
    estimate: float,
    live: Optional[set[str]],
) -> ResultSet:
    """Hash-join on the conditions linking the two inputs, else cross-join;
    the output carries the ``live`` columns (None: all of them)."""
    if not conditions:
        out = _cross_join(left, right, live)
    else:
        with _trace.span("execute.hash_join") as sp:
            out = _hash_join(left, right, conditions, live)
            if sp:
                sp.set(conditions=[c.to_sql() for c in conditions])
                sp.count("rows_in", len(left) + len(right))
                sp.count("rows_out", len(out))
                # The planner's estimate beside the actual: a reader takes
                # the join's q-error from the span, EXPLAIN or not.
                sp.count("estimated_rows", estimate)
    return out


def _resolve_refs(result: ResultSet, predicate: Expression) -> None:
    """Raise what filtering ``result`` would for a ref it cannot resolve,
    touching no row (plain EXPLAIN never evaluates the predicate itself)."""
    empty = result.take(_NO_ROWS)
    _filter_positions(empty, predicate, _rewrite_predicate(predicate, empty))


def _order_ref(query: SPJQuery) -> str:
    ref = query.order_by
    assert ref is not None
    if "." in ref or len(query.tables) > 1:
        return ref
    return f"{query.tables[0]}.{ref}"


def _sort(result: ResultSet, key_ref: str, descending: bool) -> ResultSet:
    # Sorted dictionaries make code order equal value order, so ORDER BY
    # on an encoded column argsorts the int32 codes directly.
    key = result.columns[key_ref]
    if key.dtype == object:
        key = np.asarray([str(v) for v in key], dtype="U")
    positions = np.argsort(key, kind="stable")
    if key.dtype.kind == "f":  # NaN first, as INT_NULL and ""
        nulls = np.isnan(key[positions])
        if nulls.any():
            positions = np.concatenate([positions[nulls], positions[~nulls]])
    if descending:
        positions = positions[::-1]
    return result.take(positions)


def _project(result: ResultSet, resolved: dict[str, str]) -> ResultSet:
    """Keep ``resolved``'s columns: {output ref: key in ``result``}."""
    return ResultSet(
        columns={ref: result.columns[key] for ref, key in resolved.items()},
        row_ids=result.row_ids,
        n_rows=len(result),
        encodings={
            ref: result.encodings[key]
            for ref, key in resolved.items()
            if key in result.encodings
        },
        facts={
            ref: result.facts[key] for ref, key in resolved.items() if key in result.facts
        },
    )


def _distinct(result: ResultSet) -> ResultSet:
    # Physical arrays: codes have the same equality structure as their
    # values, so DISTINCT never needs to materialize strings.
    return result.take(kernels.distinct_positions(list(result.columns.values())))


def _ndv_product(arrays, cap: float) -> float:
    """Estimated distinct combinations of some columns: the product of
    their NDVs, within ``[1, cap]`` (``cap`` = the rows they come from)."""
    product = 1.0
    for array in arrays:
        product *= max(estimate_ndv(array), 1)
        if product >= cap:
            break
    return float(max(min(product, cap), 1.0))


# ------------------------------------------------------------------ #
# the one pass: execute, EXPLAIN ANALYZE, EXPLAIN
# ------------------------------------------------------------------ #
_EXECUTE, _ANALYZE, _ESTIMATE = "execute", "analyze", "estimate"


class _Rel(NamedTuple):
    """What one operator hands the next."""

    data: object                      # ResultSet (AggregateResult after aggregate)
    node: Optional[PlanNode] = None   # only when explaining
    estimate: Optional[float] = None  # only under plain EXPLAIN, which ran nothing

    @property
    def rows(self) -> float:
        """Rows flowing out: counted when the pass runs, estimated when not."""
        return float(len(self.data)) if self.estimate is None else self.estimate


class _Plan:
    """What running one query derives from the query and the database alone.

    The pass asks for each part where it needs it — the pushdown split,
    the scan contexts and the columns read, each leaf's code-space
    predicate, the join order with its
    estimates, the resolved ORDER BY, projection, GROUP BY and aggregate
    refs. The first ask derives the part there, from the same inputs as
    an unprepared pass; every later ask returns it. A part references the
    database's arrays and copies none; a filtered row, a join index or a
    result is never a part, so every run still filters, joins, sorts and
    aggregates.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: dict = {}

    def part(self, key, derive):
        value = self.parts.get(key, _NO_PART)
        if value is _NO_PART:
            value = self.parts[key] = derive()
        return value


_NO_PART = object()


class _Pass:
    """One walk over a query's operators, in one of three modes.

    ``scan → pushdown filter → join order → hash/cross joins → residual
    filter → sort → project → distinct → limit (→ aggregate)`` is written
    once, below; every operator goes through :meth:`step`, the only place
    the modes differ:

    * *execute* runs the operator and builds nothing else — no label, no
      estimate, no :class:`PlanNode`, no timer;
    * *analyze* (EXPLAIN ANALYZE) runs it and records a plan node with
      the actual row count and the wall time taken at the operator
      boundary;
    * *estimate* (plain EXPLAIN) records the node without running it. A
      scan still opens its table (that copies nothing); every other
      operator hands on its input — the unfiltered rows the estimates
      sample from — and a join the zero-row union of its inputs' columns,
      so later refs resolve exactly as they would at run time.

    What the walk derives from the query and the database alone goes
    through a :class:`_Plan`. *execute* keeps one per query on the
    database (:attr:`Database.plans`, bounded by
    :data:`~repro.db.database.PREPARED_QUERIES`) and reuses it on the next
    run of an equal query; the explaining modes derive a fresh one per
    walk, so EXPLAIN shows the plan as the data stands.
    """

    def __init__(self, db: Database, mode: str) -> None:
        self.db = db
        self.running = mode != _ESTIMATE
        self.explaining = mode != _EXECUTE

    def plan(self, query) -> _Plan:
        """The query's prepared plan (a fresh one when explaining)."""
        if self.explaining:
            return _Plan()
        return prepared(self.db.plans, query, _Plan)

    def step(self, op: str, inputs: Sequence[_Rel], run, describe) -> _Rel:
        """Apply one operator to ``inputs``.

        ``run()`` produces its output; ``describe()`` returns its
        ``(label, estimated_rows)`` from the inputs and is called
        only when explaining.
        """
        if not self.explaining:
            return _Rel(run())
        start = perf_counter()
        if self.running or not inputs:
            data = run()
        elif len(inputs) == 1:
            data = inputs[0].data
        else:
            data = _merge(*(rel.data.take(_NO_ROWS) for rel in inputs))
        seconds = perf_counter() - start
        label, estimate = describe()
        node = PlanNode(
            op, label, estimated_rows=estimate, children=[rel.node for rel in inputs]
        )
        if not self.running:
            return _Rel(data, node, max(estimate, 1.0))
        node.actual_rows, node.seconds = len(data), seconds
        return _Rel(data, node)

    def span(self, name: str):
        """An execution span — none under plain EXPLAIN, which executes nothing."""
        return _trace.span(name) if self.running else _trace.NULL_SPAN

    # -- SPJ --------------------------------------------------------- #
    def spj(
        self,
        query: SPJQuery,
        outputs: Optional[Sequence[str]] = None,
        plan: Optional[_Plan] = None,
    ) -> _Rel:
        """The SPJ operators; ``outputs`` are the refs an enclosing
        aggregate reads of the result (default: the projection) and
        ``plan`` the plan it keeps for its core (default: the query's)."""
        db = self.db
        for table in query.tables:
            if not db.has_table(table):
                raise ExecutionError(
                    f"query references unknown table {table!r}; database has {db.table_names}"
                )
        if plan is None:
            plan = self.plan(query)

        with self.span("execute.pushdown") as sp:
            per_table, residual = plan.part(
                "pushdown", lambda: _pushdown(query.predicate, query.tables)
            )
            scans = {t: self._scan(plan, t) for t in query.tables}

            # Refs resolve against every column of the scanned tables;
            # only then does each leaf drop the columns nothing reads.
            read = plan.part("read", lambda: _columns_read(
                query, residual, outputs, [scan.data for scan in scans.values()]
            ))
            # An aggregate reads no provenance of its core.
            provenance = outputs is None
            leaves = {
                t: self._leaf(plan, t, scans[t], per_table[t], read, query.joins, provenance)
                for t in query.tables
            }
            if sp:
                sp.count("rows_in", sum(len(db.table(t)) for t in query.tables))
                sp.count("rows_out", sum(len(leaf.data) for leaf in leaves.values()))

        # A running pass orders joins from materialized post-pushdown
        # cardinalities, plain EXPLAIN from the sampled estimates.
        with self.span("execute.join_order") as sp:
            observed = self.explaining or _OBS.enabled
            order, estimates, conditions, live = plan.part(
                ("join_order", observed), lambda: _ordered_joins(query, leaves, observed, read)
            )
            if sp:
                sp.set(order=list(order))
        current = leaves[order[0]]
        for table, keep in zip(order[1:], live):
            right = leaves[table]
            on = conditions[table]
            estimate = estimates.get(table)  # None when nothing will read it
            current = self.step(
                "hash_join" if on else "cross_join", [current, right],
                lambda: _join(current.data, right.data, on, estimate, keep),
                lambda: (" AND ".join(j.to_sql() for j in on), estimate),
            )

        if not isinstance(residual, TrueExpr):

            def run_residual():
                rewritten = plan.part(
                    "residual", lambda: _rewrite_predicate(residual, current.data)
                )
                return current.data.take(
                    _filter_positions(current.data, residual, rewritten)
                )

            def describe_residual():
                if self.running:
                    selectivity = _scan_selectivity(current.data, residual)
                    return residual.to_sql(), selectivity * current.rows
                # No joined rows to sample: a fixed guess per conjunct.
                _resolve_refs(current.data, residual)
                selectivity = DEFAULT_CONJUNCT_SELECTIVITY ** len(conjuncts(residual))
                return residual.to_sql(), max(selectivity * current.rows, 1.0)

            with self.span("execute.residual_filter") as sp:
                if sp:
                    sp.count("rows_in", len(current.data))
                current = self.step("filter", [current], run_residual, describe_residual)
                if sp:
                    sp.count("rows_out", len(current.data))

        # Sort on the full context (ORDER BY may reference non-projected
        # columns), then project, then dedupe (stable, keeps sort order).
        # Refs resolve outside `run`, so every mode raises alike.
        if query.order_by:
            key_ref = plan.part(
                "order_by", lambda: current.data.resolve(_order_ref(query))
            )
            current = self.step(
                "sort", [current],
                lambda: _sort(current.data, key_ref, query.descending),
                lambda: (query.order_by + (" DESC" if query.descending else ""), current.rows),
            )

        projection = plan.part("projection", query.qualified_projection)
        if projection:
            resolved = plan.part(
                "resolved", lambda: {ref: current.data.resolve(ref) for ref in projection}
            )
            current = self.step(
                "project", [current],
                lambda: _project(current.data, resolved),
                lambda: (", ".join(projection), current.rows),
            )

        if query.distinct:

            def describe_distinct():
                if not self.running:  # no projected rows to count NDVs on
                    return "", current.rows
                estimate = _ndv_product(current.data.columns.values(), current.rows)
                return ", ".join(current.data.columns), estimate

            with self.span("execute.distinct") as sp:
                if sp:
                    sp.count("rows_in", len(current.data))
                current = self.step(
                    "distinct", [current], lambda: _distinct(current.data), describe_distinct
                )
                if sp:
                    sp.count("rows_out", len(current.data))

        if query.limit is not None:
            current = self.step(
                "limit", [current],
                lambda: current.data.take(np.arange(min(query.limit, len(current.data)))),
                lambda: (str(query.limit), min(float(query.limit), current.rows)),
            )
        return current

    def _scan(self, plan: _Plan, table_name: str) -> _Rel:
        table = self.db.table(table_name)
        return self.step(
            "scan", (),
            lambda: plan.part(("scan", table_name), lambda: _base_context(self.db, table_name)),
            lambda: (table_name, float(len(table))),
        )

    def _leaf(
        self,
        plan: _Plan,
        table_name: str,
        scan: _Rel,
        predicate: Expression,
        read: Optional[set[str]],
        joins: Sequence[JoinCondition],
        provenance: bool,
    ) -> _Rel:
        """Narrow one scan to its join keys and the columns ``read`` past
        the joins (None: all of them, row ids included) and apply its
        pushed-down conjuncts, which see every column; its row ids go with
        it only with ``provenance``, and its integer join keys' facts
        (:meth:`Table.key_facts`) always.

        The scan context may be the plan's, shared by every run: it is
        only read here, and what a leaf hands on is always a new result.
        """
        unfiltered = scan.data

        def narrow():
            keys = _join_keys(joins)
            keep = unfiltered.columns if read is None else read | keys
            kept = _project(unfiltered, {key: key for key in unfiltered.columns if key in keep})
            if read is not None and not provenance:
                kept.row_ids = {}
            table = self.db.table(table_name)
            for ref in keys & kept.columns.keys():
                facts = table.key_facts(ref.split(".", 1)[1])
                if facts is not None:
                    kept.facts[ref] = facts
            return kept

        carried = plan.part(("carried", table_name), narrow)
        if isinstance(predicate, TrueExpr):
            return scan._replace(data=_view(carried))
        rewritten = plan.part(
            ("rewritten", table_name), lambda: _rewrite_predicate(predicate, unfiltered)
        )

        def describe():
            if not self.running:
                _resolve_refs(unfiltered, predicate)
            selectivity = _scan_selectivity(unfiltered, predicate)
            return predicate.to_sql(), selectivity * len(unfiltered)

        return self.step(
            "filter", [scan._replace(data=carried)],
            lambda: carried.take(_filter_positions(unfiltered, predicate, rewritten)),
            describe,
        )

    def observed(
        self,
        query: SPJQuery,
        outputs: Optional[Sequence[str]] = None,
        plan: Optional[_Plan] = None,
    ) -> _Rel:
        """The SPJ pass plus observability, returning the encoded result.

        Opens (or joins) a request context for the query, so every span
        and telemetry record recorded underneath shares one trace id —
        the causal handle ``repro analyze`` resolves later.
        EXPLAIN ANALYZE differs only in the root span's name.
        """
        if not (self.running and _OBS.enabled):
            return self.spj(query, outputs, plan)
        root = "execute.explain_analyze" if self.explaining else "execute"
        with _context.ensure() as request, _trace.span(root) as sp:
            sp.set(tables=list(query.tables))
            start = perf_counter()
            cpu_start = process_time()
            rel = self.spj(query, outputs, plan)
            wall = perf_counter() - start
            result = rel.data
            result.stats = QueryStats(
                wall_seconds=wall,
                cpu_seconds=process_time() - cpu_start,
                # Base rows entering the scans (pre-filter cardinalities).
                rows_scanned=sum(len(self.db.table(t)) for t in query.tables),
                rows_produced=result.n_rows,
                trace_id=request.trace_id,
            )
            sp.count("rows_out", result.n_rows)
            _memory.mark_epoch("executor.query")
        return rel

    # -- aggregation ------------------------------------------------- #
    def aggregate(self, query: AggregateQuery) -> _Rel:
        """Hash aggregation over the (observed) SPJ core."""
        plan = self.plan(query)
        core, outputs = plan.part("core", lambda: (
            SPJQuery(tables=query.tables, predicate=query.predicate, joins=query.joins),
            [*query.group_by, *(s.column for s in query.aggregates if s.column is not None)],
        ))

        with self.span("execute.aggregate") as sp:
            flat = self.observed(core, outputs, plan.part("core_plan", _Plan))
            group_keys = plan.part("group_keys", lambda: [
                flat.data.resolve(_qualify_ref(ref, query)) for ref in query.group_by
            ])
            value_keys = plan.part("value_keys", lambda: [
                _aggregate_input(flat.data, spec, query) for spec in query.aggregates
            ])

            def describe():
                label = ", ".join(spec.to_sql() for spec in query.aggregates)
                if query.group_by:
                    label += " GROUP BY " + ", ".join(query.group_by)
                # Whole base columns: dictionary codes have their values' NDV.
                arrays = (
                    self.db.table(table).raw_column(column)
                    for table, column in (key.split(".", 1) for key in group_keys)
                )
                return label, _ndv_product(arrays, flat.rows)

            grouped = self.step(
                "aggregate", [flat],
                lambda: _aggregate(flat.data, query, group_keys, value_keys),
                describe,
            )
            if sp:
                sp.count("groups_out", len(grouped.data))
        return grouped


def execute(db: Database, query: SPJQuery) -> ResultSet:
    """Execute an SPJ query against a database.

    The returned result keeps its string columns dictionary-encoded; their
    values are decoded on first read through :meth:`ResultSet.column`.
    """
    return _Pass(db, _EXECUTE).observed(query).data


def execute_aggregate(db: Database, query: AggregateQuery) -> AggregateResult:
    """Execute an aggregate query (hash aggregation over the SPJ core)."""
    return _Pass(db, _EXECUTE).aggregate(query).data


# ------------------------------------------------------------------ #
# EXPLAIN / EXPLAIN ANALYZE
# ------------------------------------------------------------------ #
def explain(
    db: Database,
    query: "SPJQuery | AggregateQuery",
    analyze: bool = False,
) -> QueryPlan:
    """Build the operator tree for a query (optionally executing it).

    Plain EXPLAIN estimates every operator's cardinality from statistics
    (sampled filter selectivities, NDV-based join estimates) without
    running joins or materializing intermediates; a query that could not
    run raises what running it would. EXPLAIN ANALYZE runs the query
    through the normal execution path while recording each operator's
    actual row count, q-error, and wall time; the executed result rides
    along on :attr:`QueryPlan.result`, and one ``plan`` telemetry record
    is emitted when observability is enabled.

    The two modes can pick different join orders on the margin: ANALYZE
    orders joins from materialized post-pushdown cardinalities (what the
    executor always does), while estimate-only EXPLAIN substitutes
    sampled selectivity estimates — the plan the optimizer would commit
    to before touching any data.
    """
    walk = _Pass(db, _ANALYZE if analyze else _ESTIMATE)
    start = perf_counter()
    if isinstance(query, AggregateQuery):
        root = walk.aggregate(query)
    else:
        root = walk.observed(query)
    if not analyze:
        return QueryPlan(query.to_sql(), root.node)
    total = perf_counter() - start
    result = root.data
    stats = result.stats if isinstance(result, ResultSet) else None
    plan = QueryPlan(
        query.to_sql(),
        root.node,
        analyze=True,
        total_seconds=total,
        result=result,
        query_stats=stats.to_dict() if stats else None,
    )
    if _OBS.enabled:
        _telemetry.emit(
            "plan",
            sql=plan.query_sql[:200],
            total_seconds=plan.total_seconds,
            max_q_error=plan.max_q_error(),
            operators=plan.operator_stats(),
        )
    return plan


# ------------------------------------------------------------------ #
# aggregation
# ------------------------------------------------------------------ #
def _qualify_ref(ref: str, query: AggregateQuery) -> str:
    if "." in ref:
        return ref
    if len(query.tables) == 1:
        return f"{query.tables[0]}.{ref}"
    raise QueryError(f"aggregate ref {ref!r} must be qualified")


def _aggregate_input(flat: ResultSet, spec, query: AggregateQuery) -> Optional[str]:
    """The column of ``flat`` an aggregate reads (None for ``COUNT(*)``)."""
    if spec.column is None:
        return None
    key = flat.resolve(_qualify_ref(spec.column, query))
    if spec.func is not AggFunc.COUNT and key in flat.encodings:
        raise QueryError(
            f"{spec.func.value}({spec.column}) needs a numeric column; "
            f"{key} holds strings"
        )
    return key


def _aggregate(
    flat: ResultSet,
    query: AggregateQuery,
    group_keys: Sequence[str],
    value_keys: Sequence[Optional[str]],
) -> AggregateResult:
    """Hash aggregation in a fixed number of passes over ``flat``, however
    many groups: a group number a row, then each aggregate reduces its
    column for all groups at once. Rows come out in ``str(key)`` order."""
    agg_names = tuple(spec.output_name() for spec in query.aggregates)
    result = AggregateResult(group_columns=query.group_by, agg_names=agg_names)
    if group_keys and not len(flat):  # no row, no group
        return result
    groups, sizes, keys = _groups(flat, group_keys)
    non_null = {
        key: _non_null(flat, key, groups, sizes) for key in value_keys if key is not None
    }
    columns = [  # COUNT(*) is the group sizes
        (sizes.astype(np.float64) if key is None else _reduce(spec.func, *non_null[key])).tolist()
        for spec, key in zip(query.aggregates, value_keys)
    ]
    for g in sorted(range(len(keys)), key=lambda g: str(keys[g])):
        row: dict[str, object] = dict(zip(query.group_by, keys[g]))
        row.update((name, column[g]) for name, column in zip(agg_names, columns))
        result.rows.append(row)
    return result


def _groups(
    flat: ResultSet, group_keys: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """``(groups, sizes, keys)``: each row's group, each group's row count
    and key tuple. No GROUP BY is one group, even of no row; one
    dictionary key groups on its codes as they are, other keys on
    :func:`kernels.group_codes`, and only each group's first row (one
    reversed scatter) yields its key."""
    n = len(flat)
    if not group_keys:
        return np.zeros(n, dtype=np.intp), np.asarray([n]), [()]
    arrays = [flat.columns[key] for key in group_keys]
    dictionaries = [flat.encodings.get(key) for key in group_keys]
    if len(arrays) == 1 and dictionaries[0] is not None:
        groups, sizes, present = kernels.group_rows(arrays[0], len(dictionaries[0]))
        return groups, sizes, [(value,) for value in dictionaries[0][present]]
    groups, sizes, _ = kernels.group_rows(*kernels.group_codes(arrays))
    first = np.empty(len(sizes), dtype=np.int64)
    first[groups[::-1]] = np.arange(n - 1, -1, -1)
    keys = [
        tuple(
            array[row] if dictionary is None else dictionary[array[row]]
            for array, dictionary in zip(arrays, dictionaries)
        )
        for row in first
    ]
    return groups, sizes, keys


def _null_rows(flat: ResultSet, key: str) -> Optional[np.ndarray]:
    """Where column ``key`` of ``flat`` is NULL (None: no row is); a
    dictionary column answers from its codes without decoding."""
    dictionary = flat.encodings.get(key)
    if dictionary is None:
        mask = null_mask(flat.columns[key])
    elif first_value_code(dictionary):
        mask = flat.columns[key] == 0
    else:
        return None
    return mask if mask.any() else None


def _non_null(
    flat: ResultSet, key: str, groups: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(groups, values, counts)`` of column ``key``'s non-NULL rows: an
    aggregate skips NULLs."""
    values = flat.columns[key]
    nulls = _null_rows(flat, key)
    if nulls is None:
        return groups, values, sizes
    kept = ~nulls
    groups = groups[kept]
    return groups, values[kept], np.bincount(groups, minlength=len(sizes))


#: A float64 sum of integers is exact in any order while every partial
#: sum stays below this.
_EXACT_SUM = 2**53

_PER_GROUP = {
    AggFunc.SUM: np.sum, AggFunc.AVG: np.mean, AggFunc.MIN: np.min, AggFunc.MAX: np.max,
}


def _reduce(
    func: AggFunc, groups: np.ndarray, values: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """One aggregate of every group's non-NULL ``values`` (NaN for a group
    with none). Over two groups or more an INT or BOOL column reduces in
    one scatter: MIN / MAX by ``ufunc.at``, SUM / AVG by a weighted
    ``bincount``, exact while a group's Σ|v| < 2**53. A FLOAT column
    (whose sum depends on numpy's pairwise order), a lone group or one
    past that bound reduces alone, bit-equal to numpy on that group."""
    if func is AggFunc.COUNT:
        return counts.astype(np.float64)
    n_groups = len(counts)
    out = np.full(n_groups, np.nan)
    filled = counts > 0
    if n_groups < 2 or values.dtype.kind == "f":
        return _per_group(func, groups, values, counts, np.flatnonzero(filled), out)
    if func is AggFunc.MIN or func is AggFunc.MAX:
        ufunc, start = (np.minimum, np.inf) if func is AggFunc.MIN else (np.maximum, -np.inf)
        reached = np.full(n_groups, start)
        ufunc.at(reached, groups, values.astype(np.float64))
        out[filled] = reached[filled]
        return out
    sums = np.bincount(groups, weights=values, minlength=n_groups)[filled]
    out[filled] = sums / counts[filled] if func is AggFunc.AVG else sums
    peak = max(-int(values.min()), int(values.max())) if len(values) else 0
    if peak * len(values) < _EXACT_SUM:  # no group can reach the bound
        return out
    magnitudes = np.bincount(groups, weights=np.abs(values.astype(np.float64)))
    inexact = np.flatnonzero(magnitudes >= _EXACT_SUM)
    return _per_group(func, groups, values, counts, inexact, out)


def _per_group(
    func: AggFunc,
    groups: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    which: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out`` with each group in ``which`` reduced alone over its float64
    values in row order: gathered once by a stable sort on the group
    number, each group a slice."""
    ordered = values if len(counts) == 1 else values[kernels.stable_argsort(groups, len(counts))]
    ordered = np.asarray(ordered, dtype=np.float64)
    ends = np.cumsum(counts)
    reduce = _PER_GROUP[func]
    for g in which.tolist():
        out[g] = reduce(ordered[ends[g] - counts[g] : ends[g]])
    return out


# ------------------------------------------------------------------ #
# timing helper
# ------------------------------------------------------------------ #
class TimedExecution(NamedTuple):
    """Result of :func:`timed_execute`: rows, latency, and throughput."""

    result: ResultSet
    seconds: float
    rows_per_second: float


def timed_execute(db: Database, query: SPJQuery) -> TimedExecution:
    """Execute and return ``(result, elapsed_seconds, rows_per_second)``."""
    start = perf_counter()
    result = execute(db, query)
    elapsed = perf_counter() - start
    throughput = result.n_rows / elapsed if elapsed > 0 else 0.0
    return TimedExecution(result, elapsed, throughput)
