"""Query object model: SPJ queries and aggregate queries.

ASQP-RL's problem definition (paper §3) is over select-project-join (SPJ)
queries; aggregate queries appear twice — in the input workload (rewritten
to SPJ by dropping aggregation, paper §3 "Aggregate Queries") and at
inference time (paper §4.4, evaluated in §6.4).

Queries are plain data objects. Execution lives in
:mod:`repro.db.executor`; SQL-text parsing in :mod:`repro.db.sql`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from .expressions import Expression, TrueExpr


class QueryError(ValueError):
    """Raised for structurally invalid queries."""


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join ``left = right`` between two qualified column refs."""

    left: str
    right: str

    def __post_init__(self) -> None:
        for ref in (self.left, self.right):
            if "." not in ref:
                raise QueryError(f"join condition needs qualified refs, got {ref!r}")

    @property
    def left_table(self) -> str:
        return self.left.split(".", 1)[0]

    @property
    def right_table(self) -> str:
        return self.right.split(".", 1)[0]

    def to_sql(self) -> str:
        return f"{self.left} = {self.right}"


def _qualify(ref: str, tables: Sequence[str]) -> str:
    """Qualify a bare column ref when the query touches a single table."""
    if "." in ref:
        return ref
    if len(tables) == 1:
        return f"{tables[0]}.{ref}"
    raise QueryError(
        f"column ref {ref!r} must be table-qualified in a multi-table query"
    )


@dataclass(frozen=True)
class SPJQuery:
    """A select-project-join query.

    Parameters
    ----------
    tables:
        Tables in the FROM clause (no aliases; table names are unique).
    predicate:
        Selection predicate over qualified column refs.
    joins:
        Equi-join conditions connecting the tables.
    projection:
        Qualified column refs to output; empty means ``SELECT *``.
    order_by / descending / limit / distinct:
        Standard modifiers. ``limit`` is applied after ordering.
    name:
        Optional label used in workload files and logs.
    """

    tables: Tuple[str, ...]
    predicate: Expression = field(default_factory=TrueExpr)
    joins: Tuple[JoinCondition, ...] = ()
    projection: Tuple[str, ...] = ()
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None
    distinct: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if not self.tables:
            raise QueryError("a query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise QueryError(f"duplicate tables in FROM clause: {self.tables}")
        for join in self.joins:
            if join.left_table == join.right_table:
                raise QueryError(
                    f"join condition {join.to_sql()!r} has both sides in one "
                    "table; write it as a predicate"
                )
            for table in (join.left_table, join.right_table):
                if table not in self.tables:
                    raise QueryError(
                        f"join condition {join.to_sql()!r} references table "
                        f"{table!r} not in FROM {self.tables}"
                    )

    # -------------------------------------------------------------- #
    @property
    def is_aggregate(self) -> bool:
        return False

    def qualified_projection(self) -> Tuple[str, ...]:
        return tuple(_qualify(ref, self.tables) for ref in self.projection)

    def with_limit(self, limit: Optional[int]) -> "SPJQuery":
        return replace(self, limit=limit)

    def with_predicate(self, predicate: Expression) -> "SPJQuery":
        return replace(self, predicate=predicate)

    def to_sql(self) -> str:
        cols = ", ".join(self.projection) if self.projection else "*"
        select = "SELECT DISTINCT" if self.distinct else "SELECT"
        sql = f"{select} {cols} FROM {', '.join(self.tables)}"
        where_parts = [join.to_sql() for join in self.joins]
        if not isinstance(self.predicate, TrueExpr):
            where_parts.append(self.predicate.to_sql())
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        if self.order_by:
            sql += f" ORDER BY {self.order_by}" + (" DESC" if self.descending else "")
        if self.limit is not None:
            sql += f" LIMIT {self.limit}"
        return sql

    def tokens(self) -> list[str]:
        """Structural tokens for the query embedder."""
        tokens = [f"table:{t}" for t in self.tables]
        tokens += [f"join:{j.left}={j.right}" for j in self.joins]
        tokens += self.predicate.tokens()
        tokens += [f"proj:{c}" for c in self.projection]
        return tokens

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"{self.name}: " if self.name else ""
        return f"SPJQuery({label}{self.to_sql()})"


class AggFunc(enum.Enum):
    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output, e.g. ``SUM(flights.dep_delay) AS total_delay``."""

    func: AggFunc
    column: Optional[str] = None  # None => COUNT(*)
    alias: str = ""

    def __post_init__(self) -> None:
        if self.func is not AggFunc.COUNT and self.column is None:
            raise QueryError(f"{self.func.value} requires a column")

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        target = self.column if self.column else "*"
        return f"{self.func.value.lower()}({target})"

    def to_sql(self) -> str:
        target = self.column if self.column else "*"
        sql = f"{self.func.value}({target})"
        if self.alias:
            sql += f" AS {self.alias}"
        return sql


@dataclass(frozen=True)
class AggregateQuery:
    """An aggregate query with optional GROUP BY over an SPJ core.

    ``strip_aggregates()`` implements the paper's rewrite: drop aggregation
    and grouping, and select the columns the aggregates / grouping touch.
    """

    tables: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]
    predicate: Expression = field(default_factory=TrueExpr)
    joins: Tuple[JoinCondition, ...] = ()
    group_by: Tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise QueryError("an aggregate query needs at least one aggregate")
        # Reuse SPJ validation for tables/joins.
        SPJQuery(tables=self.tables, joins=self.joins)

    @property
    def is_aggregate(self) -> bool:
        return True

    def strip_aggregates(self) -> SPJQuery:
        """Rewrite to the SPJ query the paper trains on (§3)."""
        projection: list[str] = []
        for ref in self.group_by:
            if ref not in projection:
                projection.append(ref)
        for spec in self.aggregates:
            if spec.column and spec.column not in projection:
                projection.append(spec.column)
        return SPJQuery(
            tables=self.tables,
            predicate=self.predicate,
            joins=self.joins,
            projection=tuple(projection),
            name=(self.name + ":spj") if self.name else "",
        )

    def to_sql(self) -> str:
        cols = list(self.group_by) + [spec.to_sql() for spec in self.aggregates]
        sql = f"SELECT {', '.join(cols)} FROM {', '.join(self.tables)}"
        where_parts = [join.to_sql() for join in self.joins]
        if not isinstance(self.predicate, TrueExpr):
            where_parts.append(self.predicate.to_sql())
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        if self.group_by:
            sql += " GROUP BY " + ", ".join(self.group_by)
        return sql

    def tokens(self) -> list[str]:
        tokens = self.strip_aggregates().tokens()
        tokens += [f"agg:{spec.func.value.lower()}" for spec in self.aggregates]
        tokens += [f"group:{ref}" for ref in self.group_by]
        return tokens

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"{self.name}: " if self.name else ""
        return f"AggregateQuery({label}{self.to_sql()})"


def joins_between(
    joins: Sequence[JoinCondition], table: str, joined: set[str]
) -> list[JoinCondition]:
    """Join conditions linking ``table`` to any already-joined table.

    The executor and the planner both expand the join graph one table at
    a time; this is the shared "which equi-conditions become usable when
    ``table`` joins the intermediate" predicate.
    """
    return [
        j
        for j in joins
        if (j.left_table == table and j.right_table in joined)
        or (j.right_table == table and j.left_table in joined)
    ]


Query = SPJQuery  # the workload type used throughout the core package
