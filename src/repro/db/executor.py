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

import hashlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs.clock import perf_counter, process_time
from . import kernels
from ..obs import context as _context
from ..obs import memory as _memory
from ..obs import metrics as _metrics
from ..obs import telemetry as _telemetry
from ..obs import trace as _trace
from ..obs.runtime import STATE as _OBS
from .database import Database
from .expressions import (
    Expression,
    TrueExpr,
    conjoin,
    conjuncts,
    rewrite_for_codes,
)
from .plan import PlanNode, QueryPlan, q_error
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
    zone_map_block_mask,
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
    #: Shadow-audit outcome (repro.obs.quality): stamped by the session
    #: when this answer was re-measured against the full database.
    audited: bool = False
    audit_recall: Optional[float] = None
    audit_agg_rel_error: Optional[float] = None

    def to_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "audited": self.audited,
            "audit_recall": self.audit_recall,
            "audit_agg_rel_error": self.audit_agg_rel_error,
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

    Late materialization: while a query runs, dictionary-encoded string
    columns stay as ``int32`` code arrays in ``columns`` with their sorted
    dictionaries in ``encodings`` — predicates, join keys, sorts, and
    DISTINCT all compare codes. :meth:`column` decodes transparently (and
    caches), and :meth:`decode_all` materializes everything at the public
    execution boundary, so callers only ever see real values.
    """

    columns: dict[str, np.ndarray]
    row_ids: dict[str, np.ndarray]
    n_rows: int
    encodings: dict[str, np.ndarray] = field(default_factory=dict)
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

    def internal_column(self, ref: str) -> np.ndarray:
        """Physical array of a column: codes when encoded, else values."""
        return self.columns[self.resolve(ref)]

    def decode_all(self) -> "ResultSet":
        """A fully materialized copy (no-op when nothing is encoded)."""
        if not self.encodings:
            return self
        columns = {
            key: (
                _decode_codes(self.encodings[key], array)
                if key in self.encodings
                else array
            )
            for key, array in self.columns.items()
        }
        return ResultSet(
            columns=columns,
            row_ids=self.row_ids,
            n_rows=self.n_rows,
            stats=self.stats,
        )

    def decoded_context(self) -> dict[str, np.ndarray]:
        """A fully decoded {ref: values} view for predicate evaluation."""
        return {key: self.column(key) for key in self.columns}

    def take(self, positions: np.ndarray) -> "ResultSet":
        positions = np.asarray(positions, dtype=np.int64)
        return ResultSet(
            columns={ref: arr[positions] for ref, arr in self.columns.items()},
            row_ids={t: arr[positions] for t, arr in self.row_ids.items()},
            n_rows=len(positions),
            encodings=self.encodings,
        )

    def tuple_keys(self) -> list[tuple]:
        """Hashable identity per output row (projected values)."""
        refs = sorted(self.columns)
        arrays = [self.column(ref) for ref in refs]
        return [tuple(arr[i] for arr in arrays) for i in range(self.n_rows)]

    def provenance_keys(self) -> list[tuple]:
        """Hashable identity per output row by base-row provenance."""
        tables = sorted(self.row_ids)
        arrays = [self.row_ids[t] for t in tables]
        return [tuple(int(arr[i]) for arr in arrays) for i in range(self.n_rows)]

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

    Integer and float columns come in decoded (bit-unpacking is cached on
    the table; the ``INT_NULL`` sentinel must keep its native ordering for
    predicate semantics), string columns as ``int32`` codes plus their
    sorted dictionaries — the executor's late-materialization contract.
    """
    table = db.table(table_name)
    columns: dict[str, np.ndarray] = {}
    encodings: dict[str, np.ndarray] = {}
    for name in table.schema.column_names:
        ref = f"{table_name}.{name}"
        dictionary = table.dictionary(name)
        if dictionary is not None:
            columns[ref] = table.raw_column(name)
            encodings[ref] = dictionary
        else:
            columns[ref] = table.column(name)
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


def _predicate_context(
    result: ResultSet, predicate: Expression
) -> Optional[dict[str, np.ndarray]]:
    """The subset of physical columns a predicate touches, or None when a
    ref cannot be uniquely resolved (evaluation will raise the error)."""
    context: dict[str, np.ndarray] = {}
    for ref in predicate.columns():
        try:
            key = result.resolve(ref)
        except QueryError:
            return None
        context[key] = result.columns[key]
    return context


def _filter_positions(result: ResultSet, predicate: Expression) -> np.ndarray:
    """Positions of rows satisfying the predicate (physical-space eval).

    Evaluates in code space when the predicate rewrites, else on decoded
    values.
    """
    rewritten = _rewrite_predicate(predicate, result)
    if rewritten is None:
        return np.flatnonzero(predicate.evaluate(result.decoded_context()))
    return np.flatnonzero(rewritten.evaluate(result.columns))


#: Pruning is only attempted above this many rows — below it the block
#: mask costs more than the scan it saves.
_PRUNE_MIN_ROWS = 4096


def _scan_filter(
    table, context: ResultSet, predicate: Expression
) -> tuple[ResultSet, dict]:
    """Filter a base-table scan, consulting zone maps to skip blocks.

    Returns the filtered context plus a detail dict (blocks total/pruned,
    selectivity cap) surfaced by EXPLAIN and the scan metrics. Pruning is
    strictly conservative: a pruned block provably contains no matching
    row, so the result is identical to the unpruned scan.
    """
    detail: dict = {}
    rewritten = _rewrite_predicate(predicate, context)
    if rewritten is None or len(context) < _PRUNE_MIN_ROWS:
        return context.take(_filter_positions(context, predicate)), detail

    zmaps = table.zone_maps()
    column_maps = {
        f"{table.name}.{name}": zone for name, zone in zmaps.columns.items()
    }
    block_mask = zone_map_block_mask(rewritten, column_maps, zmaps.n_blocks)
    kept_blocks = int(block_mask.sum())
    detail["blocks_total"] = zmaps.n_blocks
    detail["blocks_pruned"] = zmaps.n_blocks - kept_blocks
    if _OBS.enabled:
        registry = _metrics.registry()
        registry.add("scan.blocks_total", zmaps.n_blocks)
        registry.add("scan.blocks_pruned", zmaps.n_blocks - kept_blocks)

    if kept_blocks == 0:
        return context.take(np.zeros(0, dtype=np.int64)), detail
    if kept_blocks == zmaps.n_blocks:
        return context.take(_filter_positions(context, predicate)), detail

    # Evaluate only the candidate rows of the surviving blocks.
    blocks = np.flatnonzero(block_mask)
    starts = blocks * zmaps.block_rows
    stops = np.minimum(starts + zmaps.block_rows, zmaps.n_rows)
    candidates = np.concatenate(
        [np.arange(a, b, dtype=np.int64) for a, b in zip(starts, stops)]
    )
    eval_context = _predicate_context(context, rewritten)
    if eval_context is None:
        return context.take(_filter_positions(context, predicate)), detail
    sliced = {key: array[candidates] for key, array in eval_context.items()}
    mask = rewritten.evaluate(sliced)
    return context.take(candidates[np.flatnonzero(mask)]), detail


def _zone_map_detail(
    table, context: ResultSet, predicate: Expression
) -> dict:
    """Blocks total/pruned for a scan predicate, without executing it.

    The estimate-only EXPLAIN path: same zone-map consultation as
    :func:`_scan_filter`, surfacing pruning in the plan before any data
    is touched (and tightening the filter's cardinality estimate).
    """
    detail: dict = {}
    rewritten = _rewrite_predicate(predicate, context)
    if rewritten is None or len(context) < _PRUNE_MIN_ROWS:
        return detail
    zmaps = table.zone_maps()
    if zmaps.n_blocks == 0:
        return detail
    column_maps = {
        f"{table.name}.{name}": zone for name, zone in zmaps.columns.items()
    }
    block_mask = zone_map_block_mask(rewritten, column_maps, zmaps.n_blocks)
    detail["blocks_total"] = zmaps.n_blocks
    detail["blocks_pruned"] = zmaps.n_blocks - int(block_mask.sum())
    return detail


def _scan_selectivity(
    context: ResultSet, predicate: Expression, detail: dict
) -> float:
    """Planner selectivity estimate in whichever space evaluates cheaply,
    capped by the zone-map bound when blocks were pruned."""
    rewritten = _rewrite_predicate(predicate, context)
    if rewritten is None:
        estimate = estimate_predicate_selectivity(
            predicate, context.decoded_context()
        )
    else:
        estimate = estimate_predicate_selectivity(rewritten, context.columns)
    blocks_total = detail.get("blocks_total")
    if blocks_total:
        kept_fraction = (blocks_total - detail["blocks_pruned"]) / blocks_total
        estimate = min(estimate, max(kept_fraction, 0.0))
    return estimate


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
            # mean that table — push down so the scan sees zone maps.
            per_table[tables[0]].append(part)
        else:
            residual.append(part)
    return (
        {t: conjoin(parts) for t, parts in per_table.items()},
        conjoin(residual),
    )


def _join_order(
    tables: Sequence[str],
    joins: Sequence[JoinCondition],
    contexts: Optional[dict[str, "ResultSet"]] = None,
    sizes: Optional[dict[str, float]] = None,
) -> tuple[list[str], dict[str, float]]:
    """Statistics-driven greedy connected ordering over the join graph.

    With per-table ``contexts`` (post-pushdown), starts from the smallest
    input and repeatedly expands to the connected table with the smallest
    estimated output cardinality (the classic ``|L|·|R| / max(NDV)``
    equi-join estimate). Without contexts, falls back to the listed-order
    greedy connected walk.

    Returns ``(order, estimates)`` where ``estimates[table]`` is the
    estimated intermediate cardinality after that table joins — the same
    numbers the ordering decision used, re-surfaced by EXPLAIN and the
    passive per-join q-error metric. ``sizes`` overrides the per-table
    input cardinalities (the estimate-only planner passes estimated
    post-filter sizes instead of materialized context lengths).
    """
    if len(tables) <= 1:
        return list(tables), {}
    adjacency: dict[str, set[str]] = {t: set() for t in tables}
    for join in joins:
        adjacency[join.left_table].add(join.right_table)
        adjacency[join.right_table].add(join.left_table)

    if contexts is None:
        order = [tables[0]]
        remaining = [t for t in tables[1:]]
        while remaining:
            connected = [t for t in remaining if any(n in order for n in adjacency[t])]
            nxt = connected[0] if connected else remaining[0]
            order.append(nxt)
            remaining.remove(nxt)
        return order, {}

    if sizes is None:
        sizes = {t: float(len(contexts[t])) for t in tables}
    ndv_cache: dict[str, int] = {}

    def _ndv(ref: str) -> int:
        if ref not in ndv_cache:
            table = ref.split(".", 1)[0]
            array = contexts[table].columns.get(ref)
            ndv_cache[ref] = estimate_ndv(array) if array is not None else 1
        return ndv_cache[ref]

    start = min(tables, key=lambda t: sizes[t])
    order = [start]
    joined = {start}
    remaining = [t for t in tables if t != start]
    est_rows = float(sizes[start])
    estimates: dict[str, float] = {}
    while remaining:
        best: Optional[str] = None
        best_est = np.inf
        for t in remaining:
            usable = joins_between(joins, t, joined)
            if not usable:
                continue
            first = usable[0]
            est = estimated_join_cardinality(
                est_rows, _ndv(first.left), sizes[t], _ndv(first.right)
            )
            for j in usable[1:]:  # extra equi-conditions filter further
                est /= max(_ndv(j.left), _ndv(j.right), 1)
            if est < best_est:
                best, best_est = t, est
        if best is None:  # disconnected: cheapest cross product
            best = min(remaining, key=lambda t: sizes[t])
            best_est = est_rows * max(sizes[best], 1)
        order.append(best)
        joined.add(best)
        remaining.remove(best)
        est_rows = max(best_est, 1.0)
        estimates[best] = est_rows
    return order, estimates


def _hash_join(left: ResultSet, right: ResultSet, conditions: Sequence[JoinCondition]) -> ResultSet:
    """Inner equi-join of two contexts on one or more conditions."""
    with _trace.span("execute.hash_join") as sp:
        if sp:
            sp.set(conditions=[c.to_sql() for c in conditions])
            sp.count("rows_in", len(left) + len(right))
        out = _hash_join_impl(left, right, conditions)
        if sp:
            sp.count("rows_out", len(out))
            _metrics.registry().add("executor.join.rows_in", len(left) + len(right))
            _metrics.registry().add("executor.join.rows_out", len(out))
    return out


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


def _hash_join_impl(left: ResultSet, right: ResultSet, conditions: Sequence[JoinCondition]) -> ResultSet:
    left_keys = []
    right_keys = []
    for cond in conditions:
        if cond.left in left.columns and cond.right in right.columns:
            l_key, r_key = _aligned_key_pair(left, cond.left, right, cond.right)
        elif cond.right in left.columns and cond.left in right.columns:
            l_key, r_key = _aligned_key_pair(left, cond.right, right, cond.left)
        else:
            raise ExecutionError(
                f"join condition {cond.to_sql()!r} does not span the two inputs"
            )
        left_keys.append(l_key)
        right_keys.append(r_key)

    # Build on the smaller side, probe with the larger (as the per-row
    # hash join did); the kernel preserves its bucket emission order.
    swap = len(right) < len(left)
    build, probe = (right, left) if swap else (left, right)
    build_keys = right_keys if swap else left_keys
    probe_keys = left_keys if swap else right_keys

    probe_idx, build_idx = kernels.join_positions(build_keys, probe_keys)
    probe_part = probe.take(probe_idx)
    build_part = build.take(build_idx)
    left_part, right_part = (build_part, probe_part) if swap else (probe_part, build_part)

    columns = dict(left_part.columns)
    columns.update(right_part.columns)
    row_ids = dict(left_part.row_ids)
    row_ids.update(right_part.row_ids)
    encodings = dict(left_part.encodings)
    encodings.update(right_part.encodings)
    return ResultSet(
        columns=columns, row_ids=row_ids, n_rows=len(probe_idx),
        encodings=encodings,
    )


def _distinct_positions(result: ResultSet, refs: Sequence[str]) -> np.ndarray:
    # Physical arrays: codes have the same equality structure as their
    # values, so DISTINCT never needs to materialize strings.
    arrays = [result.internal_column(ref) for ref in refs]
    return kernels.distinct_positions(arrays)


def execute(db: Database, query: SPJQuery) -> ResultSet:
    """Execute an SPJ query against a database.

    The returned result is fully materialized — encoded columns decode at
    this boundary (the aggregate path keeps the encoded form internally).
    """
    return _execute_observed(db, query).decode_all()


def _query_fingerprint(query) -> str:
    """Short stable query id — names the request context and root span."""
    digest = hashlib.sha1(query.to_sql().encode("utf-8"))
    return digest.hexdigest()[:12]


def _rows_scanned(db: Database, query) -> int:
    """Base rows entering the scans (pre-filter table cardinalities)."""
    return sum(
        len(db.table(table)) for table in query.tables if db.has_table(table)
    )


def _finish_query_stats(
    db: Database, query, wall: float, cpu: float, rows_out: int, trace_id: str
) -> QueryStats:
    """Build the QueryStats envelope for one observed query."""
    return QueryStats(
        wall_seconds=wall,
        cpu_seconds=cpu,
        rows_scanned=_rows_scanned(db, query),
        rows_produced=rows_out,
        trace_id=trace_id,
    )


def _execute_observed(db: Database, query: SPJQuery) -> ResultSet:
    """Execution plus observability, returning the encoded result.

    Opens (or joins) a request context for the query, so every span,
    telemetry record, and histogram exemplar recorded underneath shares
    one trace id — the causal handle ``repro analyze`` resolves later.
    """
    if not _OBS.enabled:
        return _execute_impl(db, query)
    fingerprint = _query_fingerprint(query)
    with _context.ensure(fingerprint=fingerprint) as request, \
            _trace.span("execute") as sp:
        sp.set(tables=list(query.tables), fingerprint=fingerprint)
        start = perf_counter()
        cpu_start = process_time()
        result = _execute_impl(db, query)
        wall = perf_counter() - start
        result.stats = _finish_query_stats(
            db, query, wall, process_time() - cpu_start, result.n_rows,
            request.trace_id,
        )
        sp.count("rows_out", result.n_rows)
        registry = _metrics.registry()
        registry.add("executor.queries")
        registry.add("executor.rows_out", result.n_rows)
        # Module-level observe, not registry.observe: the SLO tracker's
        # sample hook taps the former, and `executor.p95 < ...`
        # objectives must see every execution.
        _metrics.observe("executor.query.seconds", wall)
        _memory.mark_epoch("executor.query")
    return result


class _PlanCapture:
    """Mutable holder threaded through ``_execute_impl`` in ANALYZE mode.

    When present, every execution stage appends a :class:`PlanNode` with
    its estimate, actual row count, and wall time; ``root`` ends up as
    the full operator tree. The normal execution path passes ``None``
    and pays one ``is None`` check per stage.
    """

    __slots__ = ("root",)

    def __init__(self) -> None:
        self.root: Optional[PlanNode] = None


def _execute_impl(
    db: Database, query: SPJQuery, capture: Optional[_PlanCapture] = None
) -> ResultSet:
    for table in query.tables:
        if not db.has_table(table):
            raise ExecutionError(
                f"query references unknown table {table!r}; database has {db.table_names}"
            )

    table_nodes: dict[str, PlanNode] = {}
    with _trace.span("execute.pushdown") as sp:
        per_table, residual = _pushdown(query.predicate, query.tables)
        contexts: dict[str, ResultSet] = {}
        rows_in = 0
        for table in query.tables:
            stage_start = perf_counter() if capture is not None else 0.0
            context = _base_context(db, table)
            base_rows = len(context)
            rows_in += base_rows
            predicate = per_table.get(table, TrueExpr())
            if capture is not None:
                node = PlanNode(
                    op="scan",
                    label=table,
                    estimated_rows=float(base_rows),
                    actual_rows=base_rows,
                    seconds=perf_counter() - stage_start,
                )
            if not isinstance(predicate, TrueExpr):
                unfiltered = context
                stage_start = perf_counter() if capture is not None else 0.0
                context, scan_detail = _scan_filter(
                    db.table(table), context, predicate
                )
                if capture is not None:
                    selectivity = _scan_selectivity(
                        unfiltered, predicate, scan_detail
                    )
                    node = PlanNode(
                        op="filter",
                        label=predicate.to_sql(),
                        estimated_rows=selectivity * base_rows,
                        actual_rows=len(context),
                        seconds=perf_counter() - stage_start,
                        detail=scan_detail,
                        children=[node],
                    )
            contexts[table] = context
            if capture is not None:
                table_nodes[table] = node
        if sp:
            sp.count("rows_in", rows_in)
            sp.count("rows_out", sum(len(c) for c in contexts.values()))

    with _trace.span("execute.join_order") as sp:
        order, join_estimates = _join_order(query.tables, query.joins, contexts)
        if sp:
            sp.set(order=list(order))
    current = contexts[order[0]]
    current_node = table_nodes.get(order[0])
    joined = {order[0]}
    pending = list(query.joins)
    track_joins = capture is not None or _OBS.enabled
    for table in order[1:]:
        usable = joins_between(pending, table, joined)
        estimate = join_estimates.get(table) if track_joins else None
        stage_start = perf_counter() if capture is not None else 0.0
        if usable:
            current = _hash_join(current, contexts[table], usable)
            for j in usable:
                pending.remove(j)
            op, label = "hash_join", " AND ".join(j.to_sql() for j in usable)
        else:
            current = _cross_join(current, contexts[table])
            op, label = "cross_join", ""
        if estimate is not None and _OBS.enabled:
            # Passive estimator-accuracy tracking: one q-error sample per
            # executed join, independent of EXPLAIN mode (`repro stats`
            # surfaces the histogram).
            _metrics.observe(
                "executor.join.q_error", q_error(estimate, len(current))
            )
        if capture is not None:
            current_node = PlanNode(
                op=op,
                label=label,
                estimated_rows=estimate,
                actual_rows=len(current),
                seconds=perf_counter() - stage_start,
                children=[n for n in (current_node, table_nodes.get(table)) if n],
            )
        joined.add(table)
        # Apply any join condition that became fully available.
        newly = [
            j
            for j in pending
            if j.left_table in joined and j.right_table in joined
        ]
        for j in newly:
            stage_start = perf_counter() if capture is not None else 0.0
            rows_before = len(current)
            left_key, right_key = _aligned_key_pair(
                current, j.left, current, j.right
            )
            mask = left_key == right_key
            current = current.take(np.flatnonzero(mask))
            pending.remove(j)
            if capture is not None:
                ndv = max(
                    estimate_ndv(current.columns[j.left]) if len(current) else 1, 1
                )
                current_node = PlanNode(
                    op="join_filter",
                    label=j.to_sql(),
                    estimated_rows=rows_before / ndv,
                    actual_rows=len(current),
                    seconds=perf_counter() - stage_start,
                    children=[n for n in (current_node,) if n],
                )

    if not isinstance(residual, TrueExpr):
        with _trace.span("execute.residual_filter") as sp:
            if sp:
                sp.count("rows_in", len(current))
            if capture is not None:
                selectivity = _scan_selectivity(current, residual, {})
            stage_start = perf_counter() if capture is not None else 0.0
            rows_before = len(current)
            current = current.take(_filter_positions(current, residual))
            if capture is not None:
                current_node = PlanNode(
                    op="filter",
                    label=residual.to_sql(),
                    estimated_rows=selectivity * rows_before,
                    actual_rows=len(current),
                    seconds=perf_counter() - stage_start,
                    children=[n for n in (current_node,) if n],
                )
            if sp:
                sp.count("rows_out", len(current))

    # Sort on the full context (ORDER BY may reference non-projected
    # columns), then project, then dedupe (stable, keeps sort order).
    if query.order_by:
        stage_start = perf_counter() if capture is not None else 0.0
        # Sorted dictionaries make code order equal value order, so ORDER
        # BY on an encoded column argsorts the int32 codes directly.
        key = current.internal_column(_order_ref(query, current))
        if key.dtype == object:
            key = np.asarray([str(v) for v in key], dtype="U")
        positions = np.argsort(key, kind="stable")
        if query.descending:
            positions = positions[::-1]
        current = current.take(positions)
        if capture is not None:
            current_node = PlanNode(
                op="sort",
                label=query.order_by + (" DESC" if query.descending else ""),
                estimated_rows=float(len(current)),
                actual_rows=len(current),
                seconds=perf_counter() - stage_start,
                children=[n for n in (current_node,) if n],
            )

    projection = query.qualified_projection()
    if projection:
        stage_start = perf_counter() if capture is not None else 0.0
        resolved = {ref: current.resolve(ref) for ref in projection}
        current = ResultSet(
            columns={
                ref: current.columns[key] for ref, key in resolved.items()
            },
            row_ids=current.row_ids,
            n_rows=len(current),
            encodings={
                ref: current.encodings[key]
                for ref, key in resolved.items()
                if key in current.encodings
            },
        )
        if capture is not None:
            current_node = PlanNode(
                op="project",
                label=", ".join(projection),
                estimated_rows=float(len(current)),
                actual_rows=len(current),
                seconds=perf_counter() - stage_start,
                children=[n for n in (current_node,) if n],
            )

    if query.distinct:
        with _trace.span("execute.distinct") as sp:
            if sp:
                sp.count("rows_in", len(current))
            refs = list(current.columns)
            if capture is not None:
                estimate = _estimate_distinct(current, refs, len(current))
            stage_start = perf_counter() if capture is not None else 0.0
            current = current.take(_distinct_positions(current, refs))
            if capture is not None:
                current_node = PlanNode(
                    op="distinct",
                    label=", ".join(refs),
                    estimated_rows=estimate,
                    actual_rows=len(current),
                    seconds=perf_counter() - stage_start,
                    children=[n for n in (current_node,) if n],
                )
            if sp:
                sp.count("rows_out", len(current))

    if query.limit is not None:
        estimate = min(query.limit, len(current))
        current = current.take(np.arange(min(query.limit, len(current))))
        if capture is not None:
            current_node = PlanNode(
                op="limit",
                label=str(query.limit),
                estimated_rows=float(estimate),
                actual_rows=len(current),
                children=[n for n in (current_node,) if n],
            )

    if capture is not None:
        capture.root = current_node
    return current


def _estimate_distinct(
    result: ResultSet, refs: Sequence[str], rows_in: int
) -> float:
    """NDV-product estimate of a distinct output, capped at the input."""
    product = 1.0
    for ref in refs:
        if ref in result.columns:
            product *= max(estimate_ndv(result.columns[ref]), 1)
        if product >= rows_in:
            return float(max(rows_in, 1))
    return float(max(min(product, rows_in), 1))


def _order_ref(query: SPJQuery, result: ResultSet) -> str:
    ref = query.order_by
    assert ref is not None
    if "." in ref or len(query.tables) > 1:
        return ref
    return f"{query.tables[0]}.{ref}"


def _cross_join(left: ResultSet, right: ResultSet) -> ResultSet:
    left_idx = np.repeat(np.arange(len(left)), len(right))
    right_idx = np.tile(np.arange(len(right)), len(left))
    left_part = left.take(left_idx)
    right_part = right.take(right_idx)
    columns = dict(left_part.columns)
    columns.update(right_part.columns)
    row_ids = dict(left_part.row_ids)
    row_ids.update(right_part.row_ids)
    encodings = dict(left_part.encodings)
    encodings.update(right_part.encodings)
    return ResultSet(
        columns=columns, row_ids=row_ids, n_rows=len(left_idx),
        encodings=encodings,
    )


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
    running joins or materializing intermediates. EXPLAIN ANALYZE runs
    the query through the normal execution path while recording each
    operator's actual row count, q-error, and wall time; the executed
    result rides along on :attr:`QueryPlan.result`, and one ``plan``
    telemetry record is emitted when observability is enabled.

    The two modes can pick different join orders on the margin: ANALYZE
    orders joins from materialized post-pushdown cardinalities (what the
    executor always does), while estimate-only EXPLAIN substitutes
    sampled selectivity estimates — the plan the optimizer would commit
    to before touching any data.
    """
    if isinstance(query, AggregateQuery):
        return _explain_aggregate(db, query, analyze)
    if not analyze:
        return QueryPlan(query.to_sql(), _estimate_only_plan(db, query))
    capture = _PlanCapture()
    fingerprint = _query_fingerprint(query)
    with ExitStack() as stack:
        request = None
        if _OBS.enabled:
            # Same identity layer as _execute_observed: one request
            # context per ANALYZE run, trace id into stats and footer.
            request = stack.enter_context(
                _context.ensure(fingerprint=fingerprint)
            )
        start = perf_counter()
        cpu_start = process_time()
        with _trace.span("execute.explain_analyze") as sp:
            result = _execute_impl(db, query, capture)
            wall = perf_counter() - start
            if _OBS.enabled:
                result.stats = _finish_query_stats(
                    db, query, wall, process_time() - cpu_start, result.n_rows,
                    request.trace_id,
                )
                sp.set(fingerprint=fingerprint)
            if sp:
                sp.count("rows_out", result.n_rows)
    plan = QueryPlan(
        query.to_sql(),
        capture.root,
        analyze=True,
        total_seconds=wall,
        result=result.decode_all(),
        query_stats=result.stats.to_dict() if result.stats else None,
    )
    _emit_plan_telemetry(plan)
    return plan


def _estimate_only_plan(db: Database, query: SPJQuery) -> PlanNode:
    """The estimated operator tree, built without executing any operator."""
    for table in query.tables:
        if not db.has_table(table):
            raise ExecutionError(
                f"query references unknown table {table!r}; database has {db.table_names}"
            )
    per_table, residual = _pushdown(query.predicate, query.tables)
    contexts: dict[str, ResultSet] = {}
    table_nodes: dict[str, PlanNode] = {}
    est_sizes: dict[str, float] = {}
    for table in query.tables:
        context = _base_context(db, table)
        base_rows = len(context)
        node = PlanNode("scan", table, estimated_rows=float(base_rows))
        estimate = float(base_rows)
        predicate = per_table.get(table, TrueExpr())
        if not isinstance(predicate, TrueExpr):
            detail = _zone_map_detail(db.table(table), context, predicate)
            selectivity = _scan_selectivity(context, predicate, detail)
            estimate = selectivity * base_rows
            node = PlanNode(
                "filter", predicate.to_sql(), estimated_rows=estimate,
                detail=detail, children=[node],
            )
        contexts[table] = context
        table_nodes[table] = node
        est_sizes[table] = max(estimate, 1.0)

    order, estimates = _join_order(
        query.tables, query.joins, contexts, sizes=est_sizes
    )
    current_node = table_nodes[order[0]]
    est_rows = est_sizes[order[0]]
    joined = {order[0]}
    pending = list(query.joins)
    for table in order[1:]:
        usable = joins_between(pending, table, joined)
        est_rows = max(estimates.get(table, est_rows * est_sizes[table]), 1.0)
        if usable:
            for j in usable:
                pending.remove(j)
            op, label = "hash_join", " AND ".join(j.to_sql() for j in usable)
        else:
            op, label = "cross_join", ""
        current_node = PlanNode(
            op, label, estimated_rows=est_rows,
            children=[current_node, table_nodes[table]],
        )
        joined.add(table)
        newly = [
            j for j in pending
            if j.left_table in joined and j.right_table in joined
        ]
        for j in newly:
            pending.remove(j)
            ndv = max(
                estimate_ndv(contexts[j.left_table].columns[j.left]),
                estimate_ndv(contexts[j.right_table].columns[j.right]),
                1,
            )
            est_rows = max(est_rows / ndv, 1.0)
            current_node = PlanNode(
                "join_filter", j.to_sql(), estimated_rows=est_rows,
                children=[current_node],
            )

    if not isinstance(residual, TrueExpr):
        est_rows *= DEFAULT_CONJUNCT_SELECTIVITY ** len(conjuncts(residual))
        est_rows = max(est_rows, 1.0)
        current_node = PlanNode(
            "filter", residual.to_sql(), estimated_rows=est_rows,
            children=[current_node],
        )
    if query.order_by:
        current_node = PlanNode(
            "sort",
            query.order_by + (" DESC" if query.descending else ""),
            estimated_rows=est_rows,
            children=[current_node],
        )
    projection = query.qualified_projection()
    if projection:
        current_node = PlanNode(
            "project", ", ".join(projection), estimated_rows=est_rows,
            children=[current_node],
        )
    if query.distinct:
        current_node = PlanNode(
            "distinct", estimated_rows=est_rows, children=[current_node]
        )
    if query.limit is not None:
        est_rows = min(float(query.limit), est_rows)
        current_node = PlanNode(
            "limit", str(query.limit), estimated_rows=est_rows,
            children=[current_node],
        )
    return current_node


def _explain_aggregate(
    db: Database, query: AggregateQuery, analyze: bool
) -> QueryPlan:
    core = SPJQuery(
        tables=query.tables, predicate=query.predicate, joins=query.joins
    )
    label = ", ".join(spec.to_sql() for spec in query.aggregates)
    if query.group_by:
        label += " GROUP BY " + ", ".join(query.group_by)
    if not analyze:
        child = _estimate_only_plan(db, core)
        cap = child.estimated_rows if child.estimated_rows is not None else np.inf
        root = PlanNode(
            "aggregate", label,
            estimated_rows=_estimate_groups(db, query, cap),
            children=[child],
        )
        return QueryPlan(query.to_sql(), root)
    capture = _PlanCapture()
    start = perf_counter()
    with _trace.span("execute.explain_analyze"):
        result = _execute_aggregate_impl(db, query, capture)
    total = perf_counter() - start
    child = capture.root
    child_seconds = sum(
        node.seconds or 0.0 for node in (child.walk() if child else ())
    )
    cap = child.actual_rows if child and child.actual_rows is not None else np.inf
    root = PlanNode(
        "aggregate", label,
        estimated_rows=_estimate_groups(db, query, cap),
        actual_rows=len(result),
        seconds=max(total - child_seconds, 0.0),
        children=[child] if child else [],
    )
    plan = QueryPlan(
        query.to_sql(), root, analyze=True, total_seconds=total, result=result
    )
    _emit_plan_telemetry(plan)
    return plan


def _estimate_groups(db: Database, query: AggregateQuery, cap: float) -> float:
    """Estimated group count: NDV product of the grouping columns."""
    if not query.group_by:
        return 1.0
    product = 1.0
    for ref in query.group_by:
        qualified = _qualify_ref(ref, query)
        table, column = qualified.split(".", 1)
        # Physical arrays: dictionary codes have the same NDV as values.
        product *= max(estimate_ndv(db.table(table).raw_column(column)), 1)
    return float(max(min(product, cap), 1.0))


def _emit_plan_telemetry(plan: QueryPlan) -> None:
    if not _OBS.enabled:
        return
    _telemetry.emit(
        "plan",
        sql=plan.query_sql[:200],
        total_seconds=plan.total_seconds,
        max_q_error=plan.max_q_error(),
        operators=plan.operator_stats(),
    )
    _metrics.add("executor.explain_analyze")


# ------------------------------------------------------------------ #
# aggregation
# ------------------------------------------------------------------ #
def execute_aggregate(db: Database, query: AggregateQuery) -> AggregateResult:
    """Execute an aggregate query (hash aggregation over the SPJ core)."""
    if not _OBS.enabled:
        return _execute_aggregate_impl(db, query)
    with _trace.span("execute.aggregate") as sp:
        result = _execute_aggregate_impl(db, query)
        sp.count("groups_out", len(result))
        _metrics.registry().add("executor.aggregate_queries")
    return result


def _execute_aggregate_impl(
    db: Database, query: AggregateQuery, capture: Optional[_PlanCapture] = None
) -> AggregateResult:
    core = SPJQuery(tables=query.tables, predicate=query.predicate, joins=query.joins)
    if capture is not None:
        flat = _execute_impl(db, core, capture)
    else:
        flat = _execute_observed(db, core)

    group_refs = tuple(_qualify_ref(ref, query) for ref in query.group_by)
    agg_names = tuple(spec.output_name() for spec in query.aggregates)
    result = AggregateResult(group_columns=query.group_by, agg_names=agg_names)

    if group_refs:
        # Group on the physical arrays (codes group exactly like their
        # values); only each group's representative key decodes.
        keys = [flat.resolve(ref) for ref in group_refs]
        key_arrays = [flat.columns[key] for key in keys]
        dictionaries = [flat.encodings.get(key) for key in keys]
        # Positions within each group are ascending, so group[0] is the
        # first occurrence and yields the representative key values.
        groups = []
        for positions in kernels.group_by_positions(key_arrays):
            first = positions[0]
            rep = tuple(
                dic[arr[first]] if dic is not None else arr[first]
                for arr, dic in zip(key_arrays, dictionaries)
            )
            groups.append((rep, positions))
    else:
        groups = [((), np.arange(len(flat), dtype=np.int64))]

    for key, idx in sorted(groups, key=lambda kv: str(kv[0])):
        row: dict[str, object] = {
            col: key[j] for j, col in enumerate(query.group_by)
        }
        for spec, name in zip(query.aggregates, agg_names):
            row[name] = _compute_aggregate(flat, spec, idx, query)
        result.rows.append(row)
    return result


def _qualify_ref(ref: str, query: AggregateQuery) -> str:
    if "." in ref:
        return ref
    if len(query.tables) == 1:
        return f"{query.tables[0]}.{ref}"
    raise QueryError(f"aggregate ref {ref!r} must be qualified")


def _compute_aggregate(
    flat: ResultSet, spec, idx: np.ndarray, query: AggregateQuery
) -> float:
    if spec.func is AggFunc.COUNT and spec.column is None:
        return float(len(idx))
    ref = _qualify_ref(spec.column, query)
    values = flat.column(ref)[idx]
    if spec.func is AggFunc.COUNT:
        return float(len(values))
    if len(values) == 0:
        return float("nan")
    values = np.asarray(values, dtype=np.float64)
    if spec.func is AggFunc.SUM:
        return float(np.sum(values))
    if spec.func is AggFunc.AVG:
        return float(np.mean(values))
    if spec.func is AggFunc.MIN:
        return float(np.min(values))
    if spec.func is AggFunc.MAX:
        return float(np.max(values))
    raise QueryError(f"unsupported aggregate {spec.func}")


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
