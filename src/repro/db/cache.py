"""An LRU tuple cache simulating a database buffer cache.

Substrate for the CACH baseline (paper §6.1 baseline 5): the cache holds
tuples touched by recently executed queries, evicting least-recently-used
entries when the memory budget ``k`` (total tuples) is exceeded. The
"realistic use case" footnote of the paper — interleaved queries from users
with different interests — is modelled by feeding the cache a shuffled
query stream.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Tuple

TupleKey = Tuple[str, int]  # (table name, base row id)


class LRUTupleCache:
    """Fixed-capacity LRU cache of ``(table, row_id)`` tuple keys."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[TupleKey, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: TupleKey) -> bool:
        return key in self._entries

    def touch(self, key: TupleKey) -> bool:
        """Access a tuple: insert or refresh it. Returns True on a hit."""
        hit = key in self._entries
        if hit:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
            self._entries[key] = None
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return hit

    def touch_many(self, keys: Iterable[TupleKey]) -> int:
        """Access a batch of tuples (deduplicated); returns the hit count."""
        hits = 0
        seen: set[TupleKey] = set()
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            if self.touch(key):
                hits += 1
        return hits

    def contents(self) -> dict[str, list[int]]:
        """Current cache contents grouped by table (row ids sorted)."""
        grouped: dict[str, list[int]] = {}
        for table_name, row_id in self._entries:
            grouped.setdefault(table_name, []).append(row_id)
        return {table: sorted(ids) for table, ids in grouped.items()}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
