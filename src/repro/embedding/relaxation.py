"""Query relaxation (paper §4.2, "Query Pre-processing").

Relaxation *generalizes* a query before it is embedded and executed: it
loosens predicate conditions so the result set grows, pulling near-miss
tuples into the action space and guarding against overfitting to the known
workload (challenge C4). Two standard relaxation moves are applied:

1. **Range widening** — numeric comparisons and BETWEENs widen by
   ``RANGE_WIDEN_FRACTION`` of the column's observed range.
2. **Equality generalization** — ``col = v`` on a categorical column becomes
   ``col IN (v, siblings...)`` with the ``EQUALITY_SIBLINGS`` most popular
   sibling values.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from ..db.expressions import (
    Between,
    Comparison,
    Expression,
    InSet,
    conjoin,
    conjuncts,
)
from ..db.query import AggregateQuery, SPJQuery
from ..db.statistics import TableStats


#: Numeric bounds move outward by this fraction of the column range.
RANGE_WIDEN_FRACTION = 0.10
#: How many popular sibling values join a generalized equality.
EQUALITY_SIBLINGS = 3


class QueryRelaxer:
    """Applies relaxation moves using per-table statistics."""

    def __init__(self, stats: Mapping[str, TableStats]) -> None:
        self.stats = dict(stats)

    # -------------------------------------------------------------- #
    def relax(self, query: Union[SPJQuery, AggregateQuery]) -> SPJQuery:
        """Relaxed SPJ form of ``query`` (aggregates are stripped first)."""
        spj = query.strip_aggregates() if query.is_aggregate else query
        parts = [self._relax_conjunct(part, spj) for part in conjuncts(spj.predicate)]
        relaxed = spj.with_predicate(conjoin(parts))
        # Relaxation is about enlarging result sets: lift LIMITs too.
        if relaxed.limit is not None:
            relaxed = relaxed.with_limit(None)
        return relaxed

    # -------------------------------------------------------------- #
    def _relax_conjunct(self, part: Expression, query: SPJQuery) -> Expression:
        if isinstance(part, Between):
            margin = self._margin(part.column, query)
            if margin is not None and isinstance(part.low, (int, float)):
                return Between(part.column, part.low - margin, part.high + margin)
            return part
        if isinstance(part, Comparison):
            return self._relax_comparison(part, query)
        return part

    def _relax_comparison(self, part: Comparison, query: SPJQuery) -> Expression:
        if part.op == "=" and isinstance(part.value, str):
            cat = self._categorical(part.column, query)
            if cat is not None and EQUALITY_SIBLINGS > 0:
                siblings = cat.top_values(EQUALITY_SIBLINGS + 1)
                values = {part.value, *siblings}
                if len(values) > 1:
                    return InSet(part.column, values)
            return part
        if isinstance(part.value, (int, float)):
            margin = self._margin(part.column, query)
            if margin is None:
                return part
            if part.op in (">", ">="):
                return Comparison(part.column, part.op, part.value - margin)
            if part.op in ("<", "<="):
                return Comparison(part.column, part.op, part.value + margin)
            if part.op == "=":
                return Between(part.column, part.value - margin, part.value + margin)
        return part

    # -------------------------------------------------------------- #
    def _split_ref(self, ref: str, query: SPJQuery) -> Optional[tuple[str, str]]:
        if "." in ref:
            table, column = ref.split(".", 1)
            return table, column
        if len(query.tables) == 1:
            return query.tables[0], ref
        return None

    def _margin(self, ref: str, query: SPJQuery) -> Optional[float]:
        split = self._split_ref(ref, query)
        if split is None:
            return None
        table, column = split
        table_stats = self.stats.get(table)
        if table_stats is None:
            return None
        numeric = table_stats.numeric.get(column)
        if numeric is None or numeric.value_range <= 0:
            return None
        return numeric.value_range * RANGE_WIDEN_FRACTION

    def _categorical(self, ref: str, query: SPJQuery):
        split = self._split_ref(ref, query)
        if split is None:
            return None
        table, column = split
        table_stats = self.stats.get(table)
        if table_stats is None:
            return None
        return table_stats.categorical.get(column)
