"""DeepDB: Sum-Product Network AQP (paper §6.4, Fig. 12).

A from-scratch relational SPN in the style of [Hilprecht et al. 2019]:

* **Sum nodes** split *rows* into clusters (k-means on standardized
  features) and mix children by cluster weight;
* **Product nodes** split *columns* into (approximately) independent
  groups, tested by pairwise correlation / Cramér-style association;
* **Leaves** hold one column each: equi-width histograms with per-bin sums
  for numerics, frequency tables for categoricals.

The network answers COUNT / SUM / AVG (with GROUP BY) under conjunctive
predicates over one table: ``COUNT ≈ N·P(pred)``, ``SUM ≈ N·E[X·1(pred)]``,
``AVG = SUM/COUNT``, group-by iterates the group column's vocabulary and
conditions on each value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..db.expressions import Between, Comparison, Expression, InSet, conjuncts
from ..db.kernels import sorted_unique
from ..db.query import AggFunc, AggregateQuery
from ..db.table import Table

MIN_ROWS_TO_SPLIT = 256
INDEPENDENCE_THRESHOLD = 0.25
N_HISTOGRAM_BINS = 32
#: Rows an SPN is learned from at most (a uniform sample beyond it).
MAX_ROWS = 20_000


# ------------------------------------------------------------------ #
# predicate conditions per column
# ------------------------------------------------------------------ #
@dataclass
class Interval:
    """Numeric condition: closed interval (±inf for one-sided)."""

    low: float = -np.inf
    high: float = np.inf

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.low, other.low), min(self.high, other.high))

    @property
    def empty(self) -> bool:
        return self.low > self.high


@dataclass
class ValueSet:
    """Categorical condition: allowed values."""

    values: frozenset

    def intersect(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(self.values & other.values)

    @property
    def empty(self) -> bool:
        return not self.values


Condition = Union[Interval, ValueSet]


class UnsupportedQueryError(ValueError):
    """Raised for queries outside the SPN's single-table conjunctive class."""


def conditions_from_predicate(
    predicate: Expression, column_names: Sequence[str], table_name: str
) -> dict[str, Condition]:
    """Translate a conjunctive predicate into per-column conditions."""
    conditions: dict[str, Condition] = {}

    def merge(column: str, condition: Condition) -> None:
        existing = conditions.get(column)
        if existing is None:
            conditions[column] = condition
        elif type(existing) is type(condition):
            conditions[column] = existing.intersect(condition)  # type: ignore[arg-type]
        else:
            raise UnsupportedQueryError(
                f"mixed numeric/categorical conditions on {column!r}"
            )

    for part in conjuncts(predicate):
        refs = part.columns()
        if len(refs) != 1:
            raise UnsupportedQueryError(f"multi-column conjunct: {part.to_sql()}")
        ref = refs[0]
        column = ref.split(".", 1)[1] if "." in ref else ref
        if column not in column_names:
            raise UnsupportedQueryError(f"unknown column {column!r}")
        if isinstance(part, Between):
            merge(column, Interval(float(part.low), float(part.high)))
        elif isinstance(part, Comparison):
            value = part.value
            if isinstance(value, str):
                if part.op == "=":
                    merge(column, ValueSet(frozenset({value})))
                else:
                    raise UnsupportedQueryError(
                        f"categorical operator {part.op!r} unsupported"
                    )
            else:
                v = float(value)
                if part.op == "=":
                    merge(column, Interval(v, v))
                elif part.op in (">", ">="):
                    merge(column, Interval(low=v))
                elif part.op in ("<", "<="):
                    merge(column, Interval(high=v))
                else:
                    raise UnsupportedQueryError(f"operator {part.op!r} unsupported")
        elif isinstance(part, InSet):
            if all(isinstance(v, str) for v in part.values):
                merge(column, ValueSet(frozenset(part.values)))
            else:
                raise UnsupportedQueryError("numeric IN-sets unsupported")
        else:
            raise UnsupportedQueryError(f"conjunct {part.to_sql()!r} unsupported")
    return conditions


# ------------------------------------------------------------------ #
# SPN nodes
# ------------------------------------------------------------------ #
class _Node:
    scope: frozenset  # column names this node models

    def prob_and_expectation(
        self, conditions: dict[str, Condition], target: Optional[str]
    ) -> tuple[float, float]:
        """Return ``(P(conditions), E[target · 1(conditions)])``.

        When ``target`` is None the expectation slot returns 0.
        """
        raise NotImplementedError


class _NumericLeaf(_Node):
    #: Columns with at most this many distinct values keep an exact
    #: frequency table, so point conditions (equality / integer group-by)
    #: have real probability mass instead of zero measure.
    MAX_DISCRETE = 256

    def __init__(self, column: str, values: np.ndarray) -> None:
        self.scope = frozenset({column})
        self.column = column
        low, high = float(values.min()), float(values.max())
        if high <= low:
            high = low + 1.0
        self.edges = np.linspace(low, high, N_HISTOGRAM_BINS + 1)
        which = np.clip(
            np.digitize(values, self.edges) - 1, 0, N_HISTOGRAM_BINS - 1
        )
        self.counts = np.bincount(which, minlength=N_HISTOGRAM_BINS).astype(float)
        self.sums = np.bincount(
            which, weights=values, minlength=N_HISTOGRAM_BINS
        ).astype(float)
        self.total = float(self.counts.sum())
        distinct = sorted_unique(values)
        self.point_masses: Optional[dict[float, float]] = None
        if len(distinct) <= self.MAX_DISCRETE:
            self.point_masses = {}
            for value in distinct:
                self.point_masses[float(value)] = float(np.sum(values == value))

    def prob_and_expectation(self, conditions, target):
        condition = conditions.get(self.column)
        if condition is None:
            p = 1.0
            expectation = float(self.sums.sum()) / self.total
        elif isinstance(condition, ValueSet):
            raise UnsupportedQueryError(
                f"categorical condition on numeric column {self.column!r}"
            )
        elif condition.empty:
            p, expectation = 0.0, 0.0
        elif (
            condition.low == condition.high
            and self.point_masses is not None
        ):
            mass = self.point_masses.get(float(condition.low), 0.0)
            p = mass / self.total
            expectation = float(condition.low) * p
        else:
            p_mass = 0.0
            s_mass = 0.0
            for b in range(N_HISTOGRAM_BINS):
                lo, hi = self.edges[b], self.edges[b + 1]
                width = hi - lo
                overlap = max(0.0, min(hi, condition.high) - max(lo, condition.low))
                if b == N_HISTOGRAM_BINS - 1 and condition.high >= hi:
                    overlap = max(0.0, hi - max(lo, condition.low))
                if width <= 0 or overlap <= 0:
                    # Point bins / point intervals: include fully if inside.
                    if width <= 0 and condition.low <= lo <= condition.high:
                        p_mass += self.counts[b]
                        s_mass += self.sums[b]
                    continue
                fraction = min(1.0, overlap / width)
                p_mass += self.counts[b] * fraction
                s_mass += self.sums[b] * fraction
            p = p_mass / self.total
            expectation = s_mass / self.total
        if target == self.column:
            return p, expectation
        return p, 0.0


class _CategoricalLeaf(_Node):
    def __init__(self, column: str, values: Sequence[str]) -> None:
        self.scope = frozenset({column})
        self.column = column
        self.frequencies: dict[str, int] = {}
        for value in values:
            key = str(value)
            self.frequencies[key] = self.frequencies.get(key, 0) + 1
        self.total = float(sum(self.frequencies.values()))

    def prob_and_expectation(self, conditions, target):
        condition = conditions.get(self.column)
        if condition is None:
            return 1.0, 0.0
        if isinstance(condition, Interval):
            raise UnsupportedQueryError(
                f"numeric condition on categorical column {self.column!r}"
            )
        mass = sum(self.frequencies.get(v, 0) for v in condition.values)
        return mass / self.total, 0.0

    def vocabulary(self) -> list[str]:
        return sorted(self.frequencies)


class _ProductNode(_Node):
    def __init__(self, children: list[_Node]) -> None:
        self.children = children
        self.scope = frozenset().union(*(c.scope for c in children))

    def prob_and_expectation(self, conditions, target):
        p_total = 1.0
        expectation_factor = 0.0
        target_seen = False
        for child in self.children:
            p, expectation = child.prob_and_expectation(
                {k: v for k, v in conditions.items() if k in child.scope},
                target if target in child.scope else None,
            )
            p_total *= p
            if target is not None and target in child.scope:
                target_seen = True
                # E[X·1(all)] = E[X·1(child conds)] · Π other P
                expectation_factor = expectation
                p_of_target_child = p
        if target is None or not target_seen:
            return p_total, 0.0
        if p_of_target_child > 0:
            others = p_total / p_of_target_child
        else:
            others = 0.0
        return p_total, expectation_factor * others


class _SumNode(_Node):
    def __init__(self, children: list[_Node], weights: np.ndarray) -> None:
        self.children = children
        self.weights = weights / weights.sum()
        self.scope = children[0].scope

    def prob_and_expectation(self, conditions, target):
        p_total = 0.0
        e_total = 0.0
        for child, weight in zip(self.children, self.weights):
            p, expectation = child.prob_and_expectation(conditions, target)
            p_total += weight * p
            e_total += weight * expectation
        return p_total, e_total


# ------------------------------------------------------------------ #
# structure learning
# ------------------------------------------------------------------ #
def _numeric_matrix(table: Table, columns: list[str], positions: np.ndarray) -> np.ndarray:
    """Standardized numeric codes for clustering (categoricals hashed)."""
    features = []
    for name in columns:
        array = table.column(name)[positions]
        if table.schema.column(name).ctype.is_numeric:
            values = np.asarray(array, dtype=np.float64)
        else:
            values = np.asarray([hash(str(v)) % 997 for v in array], dtype=np.float64)
        std = values.std()
        features.append((values - values.mean()) / (std if std > 1e-9 else 1.0))
    return np.column_stack(features)


def _association(a: np.ndarray, b: np.ndarray) -> float:
    """|correlation| of the standardized codes (0 when degenerate)."""
    if a.std() < 1e-9 or b.std() < 1e-9:
        return 0.0
    return float(abs(np.corrcoef(a, b)[0, 1]))


def _independent_groups(codes: np.ndarray, columns: list[str]) -> list[list[int]]:
    """Connected components of the pairwise-association graph."""
    n = len(columns)
    adjacency = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _association(codes[:, i], codes[:, j]) > INDEPENDENCE_THRESHOLD:
                adjacency[i][j] = adjacency[j][i] = True
    groups: list[list[int]] = []
    unseen = set(range(n))
    while unseen:
        start = min(unseen)
        stack = [start]
        component = []
        while stack:
            node = stack.pop()
            if node not in unseen:
                continue
            unseen.discard(node)
            component.append(node)
            stack.extend(j for j in range(n) if adjacency[node][j] and j in unseen)
        groups.append(sorted(component))
    return groups


def _build_leaf(table: Table, column: str, positions: np.ndarray) -> _Node:
    array = table.column(column)[positions]
    if table.schema.column(column).ctype.is_numeric:
        return _NumericLeaf(column, np.asarray(array, dtype=np.float64))
    return _CategoricalLeaf(column, [str(v) for v in array])


def _build_node(
    table: Table,
    columns: list[str],
    positions: np.ndarray,
    rng: np.random.Generator,
    depth: int,
) -> _Node:
    if len(columns) == 1:
        return _build_leaf(table, columns[0], positions)
    codes = _numeric_matrix(table, columns, positions)
    if depth < 6:
        groups = _independent_groups(codes, columns)
        if len(groups) > 1:
            children = [
                _build_node(table, [columns[i] for i in group], positions, rng, depth + 1)
                for group in groups
            ]
            return _ProductNode(children)
    if len(positions) >= MIN_ROWS_TO_SPLIT and depth < 6:
        from ..embedding.cluster import kmeans

        result = kmeans(codes, 2, rng, n_iter=15, n_restarts=1)
        sizes = [len(result.members(c)) for c in range(2)]
        if min(sizes) >= max(16, len(positions) // 20):
            children = []
            weights = []
            for c in range(2):
                members = result.members(c)
                children.append(
                    _build_node(table, columns, positions[members], rng, depth + 1)
                )
                weights.append(float(len(members)))
            return _SumNode(children, np.asarray(weights))
    # Fallback: treat columns as independent.
    return _ProductNode([_build_leaf(table, c, positions) for c in columns])


class SPNModel:
    """A DeepDB-style SPN over one table."""

    def __init__(self, table: Table, seed: int = 0) -> None:
        self.table = table
        rng = np.random.default_rng(seed)
        positions = np.arange(len(table))
        if len(table) > MAX_ROWS:
            positions = np.sort(rng.choice(len(table), size=MAX_ROWS, replace=False))
        self.n_rows = len(table)
        self.columns = list(table.schema.column_names)
        self.root = _build_node(table, self.columns, positions, rng, depth=0)
        self._vocab_cache: dict[str, list[str]] = {}

    # -------------------------------------------------------------- #
    def _group_vocabulary(self, column: str) -> list[str]:
        if column not in self._vocab_cache:
            array = self.table.column(column)
            if self.table.schema.column(column).ctype.is_numeric:
                values = sorted({float(v) for v in array})
                self._vocab_cache[column] = values  # type: ignore[assignment]
            else:
                self._vocab_cache[column] = sorted({str(v) for v in array})
        return self._vocab_cache[column]

    def answer(self, query: AggregateQuery) -> dict[tuple, dict[str, float]]:
        """Estimate the aggregate answer in the same shape as the executor."""
        if len(query.tables) != 1 or query.joins:
            raise UnsupportedQueryError("SPN answers single-table queries only")
        if query.tables[0] != self.table.name:
            raise UnsupportedQueryError(
                f"model is for {self.table.name!r}, query targets {query.tables[0]!r}"
            )
        base_conditions = conditions_from_predicate(
            query.predicate, self.columns, self.table.name
        )
        group_columns = [
            ref.split(".", 1)[1] if "." in ref else ref for ref in query.group_by
        ]

        def estimate(conditions: dict[str, Condition]) -> dict[str, float]:
            row: dict[str, float] = {}
            for spec in query.aggregates:
                name = spec.output_name()
                target = None
                if spec.column is not None:
                    target = (
                        spec.column.split(".", 1)[1]
                        if "." in spec.column
                        else spec.column
                    )
                p, expectation = self.root.prob_and_expectation(conditions, target)
                if spec.func is AggFunc.COUNT:
                    row[name] = self.n_rows * p
                elif spec.func is AggFunc.SUM:
                    row[name] = self.n_rows * expectation
                elif spec.func is AggFunc.AVG:
                    row[name] = (expectation / p) if p > 1e-12 else float("nan")
                else:
                    raise UnsupportedQueryError(
                        f"SPN does not estimate {spec.func.value}"
                    )
            return row

        if not group_columns:
            return {(): estimate(base_conditions)}
        if len(group_columns) > 1:
            raise UnsupportedQueryError("SPN group-by supports one column")
        group_column = group_columns[0]
        results: dict[tuple, dict[str, float]] = {}
        is_numeric = self.table.schema.column(group_column).ctype.is_numeric
        for value in self._group_vocabulary(group_column):
            conditions = dict(base_conditions)
            if is_numeric:
                extra: Condition = Interval(float(value), float(value))
            else:
                extra = ValueSet(frozenset({str(value)}))
            existing = conditions.get(group_column)
            if existing is not None:
                if type(existing) is not type(extra):
                    continue
                extra = existing.intersect(extra)  # type: ignore[arg-type]
                if extra.empty:
                    continue
            conditions[group_column] = extra
            row = estimate(conditions)
            count_like = [
                v for k, v in row.items() if k.startswith(("count", "sum"))
            ]
            if count_like and all(abs(v) < 0.5 for v in count_like):
                continue  # prune empty groups like DeepDB does
            key_value: object = value
            if is_numeric and float(value).is_integer():
                key_value = int(value)
            results[(key_value,)] = row
        return results
