"""Per-table / per-column statistics.

Used by four consumers:

* the **workload generator** (paper §4.5, "Unknown Query Workloads"):
  means/stds of numeric columns and popularity-weighted categorical samples
  feed the query templates;
* the **QuickR baseline**, which keeps a catalog of per-table samples and
  statistics;
* the **skyline baseline**, which ranks categorical values by frequency;
* the **executor's join ordering**, which uses cheap NDV / row-count
  estimates (:func:`estimate_ndv`, :func:`estimated_join_cardinality`)
  to expand the join graph smallest-estimated-cardinality first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .database import Database
from .kernels import sorted_unique
from .table import Table


@dataclass
class NumericStats:
    """Summary statistics of a numeric column (NULLs excluded)."""

    count: int
    n_null: int
    mean: float
    std: float
    minimum: float
    maximum: float
    quantiles: dict[float, float] = field(default_factory=dict)

    @property
    def value_range(self) -> float:
        return self.maximum - self.minimum


@dataclass
class CategoricalStats:
    """Frequency table of a categorical column."""

    count: int
    n_null: int
    n_distinct: int
    frequencies: dict[str, int] = field(default_factory=dict)

    def top_values(self, n: int) -> list[str]:
        ranked = sorted(self.frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
        return [value for value, _ in ranked[:n]]

    def sample_weighted(self, rng: np.random.Generator, n: int) -> list[str]:
        """Sample values proportionally to popularity (with replacement)."""
        values = list(self.frequencies)
        weights = np.asarray([self.frequencies[v] for v in values], dtype=np.float64)
        weights /= weights.sum()
        picks = rng.choice(len(values), size=n, p=weights)
        return [values[i] for i in picks]


@dataclass
class TableStats:
    """All column statistics of one table."""

    table_name: str
    n_rows: int
    numeric: dict[str, NumericStats] = field(default_factory=dict)
    categorical: dict[str, CategoricalStats] = field(default_factory=dict)


_DEFAULT_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def compute_table_stats(table: Table, max_distinct: int = 10_000) -> TableStats:
    """Scan a table once and summarize every column."""
    stats = TableStats(table_name=table.name, n_rows=len(table))
    for column in table.schema.columns:
        nulls = table.null_mask(column.name)
        n_null = int(nulls.sum())
        if column.ctype.is_numeric:
            values = np.asarray(table.column(column.name)[~nulls], dtype=np.float64)
            if len(values) == 0:
                values = np.zeros(1)
            quantiles = np.quantile(values, _DEFAULT_QUANTILES)
            stats.numeric[column.name] = NumericStats(
                count=len(table) - n_null,
                n_null=n_null,
                mean=float(values.mean()),
                std=float(values.std()),
                minimum=float(values.min()),
                maximum=float(values.max()),
                quantiles=dict(zip(_DEFAULT_QUANTILES, quantiles.tolist())),
            )
        else:
            # By dictionary code, in first-occurrence order; counting stops at
            # the row where distinct value ``max_distinct + 1`` first appears.
            dictionary = table.dictionary(column.name)
            codes = table.raw_column(column.name)[~nulls]
            first = np.full(len(dictionary), len(codes))
            np.minimum.at(first, codes, np.arange(len(codes)))
            seen = np.flatnonzero(first < len(codes))
            seen = seen[np.argsort(first[seen])][: max_distinct + 1]
            if len(seen) > max_distinct:
                codes = codes[: first[seen[-1]] + 1]
            counts = np.bincount(codes)[seen]
            frequencies = dict(zip(dictionary[seen].tolist(), counts.tolist()))
            stats.categorical[column.name] = CategoricalStats(
                count=len(table) - n_null,
                n_null=n_null,
                n_distinct=len(frequencies),
                frequencies=frequencies,
            )
    return stats


def compute_database_stats(db: Database) -> dict[str, TableStats]:
    """Statistics for every table in the database."""
    return {table.name: compute_table_stats(table) for table in db}


#: Above this many rows, NDV is estimated from a strided sample.
_NDV_SAMPLE_CAP = 8192


def estimate_ndv(array, sample_cap: int = _NDV_SAMPLE_CAP) -> int:
    """Cheap number-of-distinct-values estimate of one column.

    Exact (one sort of the column) up to ``sample_cap`` rows; above that,
    a deterministic strided sample is scanned and the sample's distinct
    ratio is linearly extrapolated — a first-order estimate that is
    cheap, deterministic, and accurate enough to order equi-joins.
    """
    values = np.asarray(array)
    n = len(values)
    if n == 0:
        return 0
    if n > sample_cap:
        stride = -(-n // sample_cap)  # ceil
        sample = values[::stride]
    else:
        sample = values
    try:
        distinct = len(sorted_unique(sample))
    except TypeError:  # unsortable object mix
        distinct = len(set(sample.tolist()))
    if len(sample) == n:
        return distinct
    return max(distinct, int(distinct * n / len(sample)))


def estimated_join_cardinality(
    n_left: float, ndv_left: int, n_right: float, ndv_right: int
) -> float:
    """Classic equi-join size estimate: ``|L|·|R| / max(NDV(l), NDV(r))``."""
    return (n_left * n_right) / max(ndv_left, ndv_right, 1)


#: Above this many rows, predicate selectivity is estimated on a sample.
_SELECTIVITY_SAMPLE_CAP = 1024

#: Fallback per-conjunct selectivity when no input arrays are available
#: (e.g. estimating a residual multi-table filter before any join ran).
DEFAULT_CONJUNCT_SELECTIVITY = 1.0 / 3.0


def estimate_predicate_selectivity(
    predicate,
    columns: dict,
    sample_cap: int = _SELECTIVITY_SAMPLE_CAP,
) -> float:
    """Estimated fraction of rows a predicate keeps, from a strided sample.

    Evaluates the predicate on up to ``sample_cap`` evenly strided rows of
    the given column arrays — the planner's selectivity estimate for
    EXPLAIN's filter nodes. Deterministic, cheap (one vectorized evaluate
    on <= ``sample_cap`` rows), and clamped away from exactly zero so
    downstream cardinality estimates never collapse to nothing.
    """
    refs = [ref for ref in predicate.columns() if ref in columns]
    if not refs:
        return 1.0
    n = len(columns[refs[0]])
    if n == 0:
        return 1.0
    stride = max(1, -(-n // sample_cap))  # ceil(n / cap)
    sampled = {ref: array[::stride] for ref, array in columns.items()}
    mask = predicate.evaluate(sampled)
    kept = float(np.count_nonzero(mask))
    total = max(1, len(next(iter(sampled.values()))))
    return max(kept / total, 0.5 / n)


# --------------------------------------------------------------------- #
# zone maps (block-level min/max) for scan pruning
# --------------------------------------------------------------------- #

#: Rows per zone-map block. Small enough that selective predicates skip
#: most of a large table, large enough that per-block overhead is noise.
DEFAULT_BLOCK_ROWS = 4096


@dataclass
class ColumnZoneMap:
    """Per-block min/max (and NaN presence) of one physical column.

    For dictionary-encoded string columns the statistics are over the
    *codes* — valid because the dictionary is sorted, so code order equals
    value order and code-space predicates compare directly. For integer
    columns they are over decoded ``int64`` values *including* the
    ``INT_NULL`` sentinel, exactly matching the engine's comparison
    semantics (the sentinel compares as a very small ordinary value).
    """

    mins: np.ndarray
    maxs: np.ndarray
    has_nan: Optional[np.ndarray] = None


@dataclass
class TableZoneMaps:
    """Zone maps of every column of one table, at a fixed block size."""

    block_rows: int
    n_rows: int
    n_blocks: int
    columns: dict[str, ColumnZoneMap] = field(default_factory=dict)

    def block_bounds(self, block: int) -> tuple[int, int]:
        start = block * self.block_rows
        return start, min(start + self.block_rows, self.n_rows)


def _column_zone_map(values: np.ndarray, starts: np.ndarray) -> ColumnZoneMap:
    if np.issubdtype(values.dtype, np.floating):
        with np.errstate(invalid="ignore"):
            mins = np.fmin.reduceat(values, starts)
            maxs = np.fmax.reduceat(values, starts)
            nan_counts = np.add.reduceat(np.isnan(values).astype(np.int64), starts)
        return ColumnZoneMap(mins=mins, maxs=maxs, has_nan=nan_counts > 0)
    mins = np.minimum.reduceat(values, starts)
    maxs = np.maximum.reduceat(values, starts)
    return ColumnZoneMap(mins=mins, maxs=maxs)


def build_zone_maps(table: Table, block_rows: int = DEFAULT_BLOCK_ROWS) -> TableZoneMaps:
    """Build per-block min/max statistics for every column of a table.

    One ``reduceat`` pass per column; string columns are profiled in code
    space (see :class:`ColumnZoneMap`), numeric columns in value space.
    """
    n_rows = len(table)
    n_blocks = -(-n_rows // block_rows) if n_rows else 0
    maps = TableZoneMaps(block_rows=block_rows, n_rows=n_rows, n_blocks=n_blocks)
    if n_blocks == 0:
        return maps
    starts = np.arange(n_blocks, dtype=np.int64) * block_rows
    for column in table.schema.columns:
        if column.ctype.name == "STR":
            encoding = table.encoding(column.name)
            if encoding is None:
                continue  # plain object column: no cheap block stats
            values = encoding.codes
        else:
            values = table.column(column.name)
        maps.columns[column.name] = _column_zone_map(values, starts)
    return maps


def _atom_block_mask(node, zone: ColumnZoneMap) -> Optional[np.ndarray]:
    """Blocks that *may* contain a matching row for one atom, else None.

    Strictly conservative: a True entry means "cannot rule out", a False
    entry means "provably no row in this block satisfies the atom".
    """
    from . import expressions as E

    mins, maxs = zone.mins, zone.maxs
    with np.errstate(invalid="ignore"):
        if isinstance(node, E.Comparison):
            value = node.value
            if isinstance(value, str):
                return None  # string atom against a non-code zone map
            if node.op == "=":
                return (mins <= value) & (maxs >= value)
            if node.op == "!=":
                keep = ~((mins == value) & (maxs == value))
                if zone.has_nan is not None:
                    keep |= zone.has_nan  # NaN != v is True
                return keep
            if node.op == "<":
                return mins < value
            if node.op == "<=":
                return mins <= value
            if node.op == ">":
                return maxs > value
            if node.op == ">=":
                return maxs >= value
            return None
        if isinstance(node, E.Between):
            if isinstance(node.low, str) or isinstance(node.high, str):
                return None
            return (maxs >= node.low) & (mins <= node.high)
        if isinstance(node, E.InSet):
            if any(isinstance(v, str) for v in node.values):
                return None
            lo = min(node.values)
            hi = max(node.values)
            return (maxs >= lo) & (mins <= hi)
        if isinstance(node, E.IsNull):
            if zone.has_nan is not None:
                return zone.has_nan.copy()
            if np.issubdtype(mins.dtype, np.integer):
                from .schema import INT_NULL

                return mins == INT_NULL
            return None
        if isinstance(node, E.IsNotNull):
            if zone.has_nan is not None:
                return ~np.isnan(mins)  # all-NaN blocks have fmin == NaN
            if np.issubdtype(mins.dtype, np.integer):
                from .schema import INT_NULL

                return maxs != INT_NULL
            return None
    return None


def zone_map_block_mask(
    predicate,
    column_maps: dict,
    n_blocks: int,
) -> np.ndarray:
    """Conservative keep-mask over scan blocks for a (rewritten) predicate.

    ``column_maps`` maps *qualified* column refs to :class:`ColumnZoneMap`
    objects in the same value space the predicate literals are in — i.e.
    code space for dictionary columns after
    :func:`repro.db.expressions.rewrite_for_codes`, raw value space
    otherwise. Unknown atoms, NOT, and unresolvable refs keep all blocks.
    """
    from . import expressions as E

    all_blocks = np.ones(n_blocks, dtype=bool)
    if isinstance(predicate, E.TrueExpr):
        return all_blocks
    if isinstance(predicate, E.FalseExpr):
        return np.zeros(n_blocks, dtype=bool)
    if isinstance(predicate, E.And):
        mask = all_blocks
        for operand in predicate.operands:
            mask = mask & zone_map_block_mask(operand, column_maps, n_blocks)
        return mask
    if isinstance(predicate, E.Or):
        mask = np.zeros(n_blocks, dtype=bool)
        for operand in predicate.operands:
            mask = mask | zone_map_block_mask(operand, column_maps, n_blocks)
        return mask
    if isinstance(
        predicate, (E.Comparison, E.Between, E.InSet, E.IsNull, E.IsNotNull)
    ):
        refs = list(column_maps)
        resolved = E._resolve_ref(predicate.column, refs)
        if resolved is None:
            return all_blocks
        zone = column_maps[resolved]
        atom_mask = _atom_block_mask(predicate, zone)
        return all_blocks if atom_mask is None else np.asarray(atom_mask, dtype=bool)
    # NOT, LIKE (only reaches here un-rewritten), unknown nodes: no pruning.
    return all_blocks


def zone_map_selectivity_cap(
    block_mask: np.ndarray, zmaps: TableZoneMaps
) -> float:
    """Upper bound on predicate selectivity implied by pruned blocks.

    If only ``k`` of ``n`` blocks can contain matches, selectivity is at
    most (rows in kept blocks) / n_rows — used to clamp the planner's
    sampled estimate.
    """
    if zmaps.n_rows == 0 or zmaps.n_blocks == 0:
        return 1.0
    kept_rows = 0
    for block in np.flatnonzero(block_mask):
        start, stop = zmaps.block_bounds(int(block))
        kept_rows += stop - start
    return kept_rows / zmaps.n_rows


def column_selectivity(table: Table, column_name: str, value) -> float:
    """Fraction of rows of ``table`` where ``column = value``."""
    array = table.column(column_name)
    if len(array) == 0:
        return 0.0
    if array.dtype == object:
        hits = sum(1 for v in array if str(v) == str(value))
    else:
        hits = int(np.sum(array == value))
    return hits / len(array)
