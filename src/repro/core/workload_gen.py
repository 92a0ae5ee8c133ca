"""Workload generation for the no-workload scenario (paper §4.5, Fig. 6).

"Our system utilizes statistical information collected from the tables,
such as the mean and standard deviation of numerical columns, a sampled
set of categorical columns (with repetition to account for popularity of
certain values), and standard query templates, to generate query
workloads."

Three standard templates, filled from statistics:

1. single-table numeric range around a sampled center (mean ± z·std);
2. single-table categorical equality / IN over popularity-sampled values;
3. foreign-key join between two tables with one predicate on each side.

``refine_with_user_queries`` biases subsequent generation toward the
tables/columns the user's own queries touch — the iterative alignment loop
of §4.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..db.database import Database
from ..db.expressions import Between, Comparison, Expression, InSet, conjoin, conjuncts
from ..db.query import AggregateQuery, JoinCondition, SPJQuery
from ..db.statistics import TableStats, compute_database_stats
from ..datasets.workloads import Workload

QueryLike = Union[SPJQuery, AggregateQuery]


@dataclass
class WorkloadGenerator:
    """Generates SPJ workloads from table statistics and templates."""

    db: Database
    rng: np.random.Generator
    stats: dict[str, TableStats] = field(default_factory=dict)
    # Preference weights over (table, column) targets, raised by refinement.
    _column_bias: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stats:
            self.stats = compute_database_stats(self.db)

    # -------------------------------------------------------------- #
    def generate(self, n_queries: int, name_prefix: str = "gen") -> Workload:
        """Generate ``n_queries`` SPJ queries across the three templates."""
        queries: list[QueryLike] = []
        for i in range(n_queries):
            template = int(self.rng.integers(0, 3))
            if template == 2 and self._join_edges():
                query = self._join_template()
            elif template == 1 and self._categorical_targets():
                query = self._categorical_template()
            else:
                query = self._numeric_template()
            if query is not None:
                queries.append(
                    SPJQuery(
                        tables=query.tables,
                        predicate=query.predicate,
                        joins=query.joins,
                        projection=query.projection,
                        name=f"{name_prefix}_q{i:03d}",
                    )
                )
        if not queries:
            raise ValueError("could not generate any queries from the statistics")
        return Workload(queries, name=name_prefix)

    # -------------------------------------------------------------- #
    def refine_with_user_queries(self, user_queries: Sequence[QueryLike]) -> None:
        """Bias future generation toward what the user actually asks."""
        for query in user_queries:
            spj = query.strip_aggregates() if query.is_aggregate else query
            for part in conjuncts(spj.predicate):
                for ref in part.columns():
                    if "." in ref:
                        table, column = ref.split(".", 1)
                    elif len(spj.tables) == 1:
                        table, column = spj.tables[0], ref
                    else:
                        continue
                    key = (table, column)
                    self._column_bias[key] = self._column_bias.get(key, 1.0) + 2.0

    # -------------------------------------------------------------- #
    def _weighted_pick(self, targets: list[tuple[str, str]]) -> tuple[str, str]:
        weights = np.asarray(
            [self._column_bias.get(t, 1.0) for t in targets], dtype=np.float64
        )
        weights /= weights.sum()
        index = int(self.rng.choice(len(targets), p=weights))
        return targets[index]

    def _numeric_targets(self) -> list[tuple[str, str]]:
        targets = []
        for table_name, table_stats in self.stats.items():
            for column, numeric in table_stats.numeric.items():
                if numeric.value_range > 0:
                    targets.append((table_name, column))
        return targets

    def _categorical_targets(self) -> list[tuple[str, str]]:
        targets = []
        for table_name, table_stats in self.stats.items():
            for column, cat in table_stats.categorical.items():
                if 1 < cat.n_distinct <= 200:
                    targets.append((table_name, column))
        return targets

    def _join_edges(self) -> list[tuple[str, str, str, str]]:
        edges = []
        for table in self.db:
            for fk in table.schema.foreign_keys:
                if self.db.has_table(fk.ref_table):
                    edges.append((table.name, fk.column, fk.ref_table, fk.ref_column))
        return edges

    # -------------------------------------------------------------- #
    def _numeric_predicate(self, table: str, column: str) -> Expression:
        numeric = self.stats[table].numeric[column]
        center = float(self.rng.normal(numeric.mean, max(numeric.std, 1e-9)))
        center = float(np.clip(center, numeric.minimum, numeric.maximum))
        half_width = max(numeric.std, numeric.value_range * 0.05) * float(
            self.rng.uniform(0.3, 1.5)
        )
        low, high = center - half_width, center + half_width
        is_integral = float(numeric.minimum).is_integer() and float(
            numeric.maximum
        ).is_integer()
        if is_integral:
            return Between(f"{table}.{column}", int(low), int(np.ceil(high)))
        return Between(f"{table}.{column}", round(low, 2), round(high, 2))

    def _categorical_predicate(self, table: str, column: str) -> Expression:
        cat = self.stats[table].categorical[column]
        n_values = int(self.rng.integers(1, 4))
        values = set(cat.sample_weighted(self.rng, n_values))
        if len(values) == 1:
            return Comparison(f"{table}.{column}", "=", next(iter(values)))
        return InSet(f"{table}.{column}", values)

    def _numeric_template(self) -> Optional[SPJQuery]:
        targets = self._numeric_targets()
        if not targets:
            return None
        table, column = self._weighted_pick(targets)
        predicates = [self._numeric_predicate(table, column)]
        # Half the time add a second predicate on the same table.
        same_table = [t for t in targets if t[0] == table and t[1] != column]
        if same_table and self.rng.random() < 0.5:
            _, other = same_table[int(self.rng.integers(0, len(same_table)))]
            predicates.append(self._numeric_predicate(table, other))
        return SPJQuery(tables=(table,), predicate=conjoin(predicates))

    def _categorical_template(self) -> Optional[SPJQuery]:
        targets = self._categorical_targets()
        if not targets:
            return None
        table, column = self._weighted_pick(targets)
        predicates = [self._categorical_predicate(table, column)]
        numeric_here = [t for t in self._numeric_targets() if t[0] == table]
        if numeric_here and self.rng.random() < 0.6:
            _, other = numeric_here[int(self.rng.integers(0, len(numeric_here)))]
            predicates.append(self._numeric_predicate(table, other))
        return SPJQuery(tables=(table,), predicate=conjoin(predicates))

    def _join_template(self) -> Optional[SPJQuery]:
        edges = self._join_edges()
        if not edges:
            return None
        table, column, ref_table, ref_column = edges[
            int(self.rng.integers(0, len(edges)))
        ]
        join = JoinCondition(f"{table}.{column}", f"{ref_table}.{ref_column}")
        predicates: list[Expression] = []
        for side in (table, ref_table):
            numeric_here = [t for t in self._numeric_targets() if t[0] == side]
            categorical_here = [t for t in self._categorical_targets() if t[0] == side]
            if numeric_here and (not categorical_here or self.rng.random() < 0.5):
                _, col = numeric_here[int(self.rng.integers(0, len(numeric_here)))]
                predicates.append(self._numeric_predicate(side, col))
            elif categorical_here:
                _, col = categorical_here[
                    int(self.rng.integers(0, len(categorical_here)))
                ]
                predicates.append(self._categorical_predicate(side, col))
        if not predicates:
            return None
        return SPJQuery(
            tables=(table, ref_table),
            joins=(join,),
            predicate=conjoin(predicates),
        )

