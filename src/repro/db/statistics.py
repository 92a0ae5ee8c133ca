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

#: Distinct values a categorical column's frequency table counts at most.
MAX_DISTINCT = 10_000


def compute_table_stats(table: Table) -> TableStats:
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
            # the row where distinct value ``MAX_DISTINCT + 1`` first appears.
            dictionary = table.dictionary(column.name)
            codes = table.raw_column(column.name)[~nulls]
            first = np.full(len(dictionary), len(codes))
            np.minimum.at(first, codes, np.arange(len(codes)))
            seen = np.flatnonzero(first < len(codes))
            seen = seen[np.argsort(first[seen])][: MAX_DISTINCT + 1]
            if len(seen) > MAX_DISTINCT:
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
    """Statistics for every table in the database.

    Each table is scanned once (:func:`compute_table_stats`) and keeps its
    :class:`TableStats`, as it keeps its decoded columns: a table never
    changes, so the generators, ``preprocess`` and ``load_model`` on one
    database share the same objects. Treat them as read-only.
    """
    for table in db:
        if table._stats is None:
            table._stats = compute_table_stats(table)
    return {table.name: table._stats for table in db}


#: Above this many rows, NDV is estimated from a strided sample.
_NDV_SAMPLE_CAP = 8192


def estimate_ndv(array) -> int:
    """Cheap number-of-distinct-values estimate of one column.

    Exact (one sort of the column) up to ``_NDV_SAMPLE_CAP`` rows; above that,
    a deterministic strided sample is scanned and the sample's distinct
    ratio is linearly extrapolated — a first-order estimate that is
    cheap, deterministic, and accurate enough to order equi-joins.
    """
    values = np.asarray(array)
    n = len(values)
    if n == 0:
        return 0
    if n > _NDV_SAMPLE_CAP:
        stride = -(-n // _NDV_SAMPLE_CAP)  # ceil
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


def estimate_predicate_selectivity(predicate, columns: dict) -> float:
    """Estimated fraction of rows a predicate keeps, from a strided sample.

    Evaluates the predicate on up to ``_SELECTIVITY_SAMPLE_CAP`` evenly
    strided rows of the given column arrays — the planner's selectivity
    estimate for EXPLAIN's filter nodes. Deterministic, cheap (one
    vectorized evaluate on that many rows at most), and clamped away from exactly zero so
    downstream cardinality estimates never collapse to nothing.
    """
    refs = [ref for ref in predicate.columns() if ref in columns]
    if not refs:
        return 1.0
    n = len(columns[refs[0]])
    if n == 0:
        return 1.0
    stride = max(1, -(-n // _SELECTIVITY_SAMPLE_CAP))  # ceil(n / cap)
    sampled = {ref: array[::stride] for ref, array in columns.items()}
    mask = predicate.evaluate(sampled)
    kept = float(np.count_nonzero(mask))
    total = max(1, len(next(iter(sampled.values()))))
    return max(kept / total, 0.5 / n)
