"""Query embeddings (the paper's ``Emb_sql``).

A query embeds from its structural tokens: tables, join edges, predicate
columns/operators, constants, and projections (see ``SPJQuery.tokens``).
Numeric constants are additionally *bucketized* against the column's value
range so that two range queries over nearby intervals share bucket tokens
and land close together — the behaviour the estimator and representative
selection need.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..db.expressions import Between, Comparison, InSet, conjuncts
from ..db.query import AggregateQuery, SPJQuery
from ..db.statistics import TableStats
from .text import TokenHasher

#: Number of buckets numeric constants are quantized into per column.
N_VALUE_BUCKETS = 16


class QueryEmbedder:
    """Embeds SPJ / aggregate queries into a shared vector space.

    Parameters
    ----------
    stats:
        Optional per-table statistics; when provided, numeric predicate
        constants produce range-bucket tokens, making embeddings smooth in
        the constants (not just the query shape).
    """

    def __init__(self, stats: Optional[Mapping[str, TableStats]] = None) -> None:
        self.hasher = TokenHasher()
        self.stats = dict(stats) if stats else {}

    @property
    def dim(self) -> int:
        return self.hasher.dim

    # -------------------------------------------------------------- #
    def tokens(self, query: Union[SPJQuery, AggregateQuery]) -> list[str]:
        """Structural tokens plus value-bucket tokens for numeric constants."""
        tokens = list(query.tokens())
        spj = query.strip_aggregates() if query.is_aggregate else query
        tokens.extend(self._bucket_tokens(spj))
        return tokens

    def embed(self, query: Union[SPJQuery, AggregateQuery]) -> np.ndarray:
        return self.hasher.embed(self.tokens(query))

    def embed_workload(
        self, queries: Sequence[Union[SPJQuery, AggregateQuery]]
    ) -> np.ndarray:
        return self.hasher.embed_many(self.tokens(q) for q in queries)

    # -------------------------------------------------------------- #
    def _bucket_tokens(self, query: SPJQuery) -> list[str]:
        tokens: list[str] = []
        for part in conjuncts(query.predicate):
            if isinstance(part, Comparison) and isinstance(part.value, (int, float)):
                bucket = self._bucket(part.column, float(part.value), query)
                if bucket is not None:
                    tokens.append(f"bucket:{part.column}@{bucket}")
            elif isinstance(part, Between):
                for value in (part.low, part.high):
                    if isinstance(value, (int, float)):
                        bucket = self._bucket(part.column, float(value), query)
                        if bucket is not None:
                            tokens.append(f"bucket:{part.column}@{bucket}")
            elif isinstance(part, InSet):
                for value in part.values:
                    if isinstance(value, (int, float)):
                        bucket = self._bucket(part.column, float(value), query)
                        if bucket is not None:
                            tokens.append(f"bucket:{part.column}@{bucket}")
        return tokens

    def _bucket(self, ref: str, value: float, query: SPJQuery) -> Optional[int]:
        if "." in ref:
            table_name, column = ref.split(".", 1)
        elif len(query.tables) == 1:
            table_name, column = query.tables[0], ref
        else:
            return None
        table_stats = self.stats.get(table_name)
        if table_stats is None:
            return None
        numeric = table_stats.numeric.get(column)
        if numeric is None or numeric.value_range <= 0:
            return None
        fraction = (value - numeric.minimum) / numeric.value_range
        return int(np.clip(fraction * N_VALUE_BUCKETS, 0, N_VALUE_BUCKETS - 1))
