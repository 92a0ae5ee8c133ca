"""Tuple embeddings (the paper's ``Emb_tab``).

The paper adapts sentence-BERT for tabular rows by "including column names
as tokens to capture both the meaning of the column as well as the value"
(§4.2). We mirror that: a row embeds from ``table``, ``column`` and
``column=value`` tokens; numeric values contribute a bucket token (so
near-equal numbers share tokens) and the raw value token.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from ..db.schema import ColumnType
from ..db.statistics import TableStats
from ..db.table import Table
from .query_embed import N_VALUE_BUCKETS
from .text import DEFAULT_DIM, TokenHasher, normalize_rows


class TupleEmbedder:
    """Embeds rows of tables into the same hashed vector space."""

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        stats: Optional[Mapping[str, TableStats]] = None,
    ) -> None:
        self.hasher = TokenHasher(dim=dim)
        self.stats = dict(stats) if stats else {}

    @property
    def dim(self) -> int:
        return self.hasher.dim

    # -------------------------------------------------------------- #
    def row_tokens(self, table: Table, position: int) -> list[str]:
        """Tokens of one row: table, column names, and column=value pairs (a
        NULL numeric keeps its value token and gets no bucket). The row embeds
        as the normalized sum of their directions, added in this order."""
        tokens = [f"table:{table.name}"]
        for column in table.schema.columns:
            cell = table.column(column.name)[position : position + 1]
            tokens.append(f"col:{table.name}.{column.name}")
            tokens.append(f"val:{table.name}.{column.name}={cell[0]}")
            if column.ctype is not ColumnType.STR and not column.null_mask(cell)[0]:
                bucket = self._bucket(table.name, column.name, float(cell[0]))
                if bucket is not None:
                    tokens.append(f"bucket:{table.name}.{column.name}@{bucket}")
        return tokens

    def embed_row(self, table: Table, position: int) -> np.ndarray:
        return self.embed_table(table, [position])[0]

    def embed_table(self, table: Table, positions: Optional[Sequence[int]] = None) -> np.ndarray:
        """Embedding matrix for ``positions`` (default: all rows): a token's
        direction is looked up once per distinct value at ``positions`` and
        gathered to the rows, column by column, so every row's sum gets the
        additions of :meth:`row_tokens` in its order."""
        if positions is None:
            positions = np.arange(len(table))
        positions = np.asarray(positions, dtype=np.int64)
        directions = self.hasher.token_vectors
        total = np.zeros((len(positions), self.dim))
        total += self.hasher.token_vector(f"table:{table.name}")
        for column in table.schema.columns:
            name = f"{table.name}.{column.name}"
            total += self.hasher.token_vector(f"col:{name}")
            if column.ctype is ColumnType.STR:
                keys = table.raw_column(column.name)[positions]
            else:  # by bit pattern, as a number's text is: -0.0 is not 0.0
                keys = table.column(column.name)[positions].view(np.int64)
            distinct, inverse = np.unique(keys, return_inverse=True)
            if column.ctype is ColumnType.STR:
                values = table.dictionary(column.name)[distinct]
            else:
                values = distinct.view(column.ctype.dtype)
            total += directions([f"val:{name}={v}" for v in values])[inverse]
            if column.ctype is ColumnType.STR:
                continue
            rows = np.flatnonzero(~column.null_mask(values)[inverse])
            known = values[inverse[rows]].astype(np.float64)
            buckets = self._bucket(table.name, column.name, known)
            if buckets is not None:
                ids, slots = np.unique(buckets, return_inverse=True)
                total[rows] += directions([f"bucket:{name}@{b}" for b in ids])[slots]
        return normalize_rows(total)

    def embed_group(self, rows: Sequence[tuple[Table, int]]) -> np.ndarray:
        """Embedding of one join group of ``(table, position)`` rows: the
        normalized mean of the rows' vectors, summed in order as ``np.mean``
        does; a group of none embeds as zero."""
        total = np.zeros(self.dim)
        for table, position in rows:
            total += self.embed_row(table, position)
        total /= max(len(rows), 1)
        return normalize_rows(total[None, :])[0]

    # -------------------------------------------------------------- #
    def _bucket(self, table_name: str, column: str, value: float | np.ndarray):
        """Bucket id of a non-NULL float or of each one in an array."""
        table_stats = self.stats.get(table_name)
        if table_stats is None:
            return None
        numeric = table_stats.numeric.get(column)
        if numeric is None or numeric.value_range <= 0:
            return None
        fraction = (value - numeric.minimum) / numeric.value_range
        return np.clip(fraction * N_VALUE_BUCKETS, 0, N_VALUE_BUCKETS - 1).astype(np.int64)
