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

from ..obs import metrics as _metrics
from ..obs.runtime import STATE as _OBS

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
        # Counter totals already published to the metrics registry.
        self._published = (0, 0, 0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: TupleKey) -> bool:
        return key in self._entries

    def _touch(self, key: TupleKey) -> bool:
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

    def touch(self, key: TupleKey) -> bool:
        """Access a tuple: insert or refresh it. Returns True on a hit."""
        hit = self._touch(key)
        if _OBS.enabled:
            self._publish_delta()
        return hit

    def touch_many(self, keys: Iterable[TupleKey]) -> int:
        """Access a batch of tuples (deduplicated); returns the hit count."""
        hits = 0
        seen: set[TupleKey] = set()
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            if self._touch(key):
                hits += 1
        if _OBS.enabled:
            self._publish_delta()
        return hits

    def _publish_delta(self) -> None:
        """Sync the registry's cache counters to this cache's totals.

        Counters accumulate deltas since the last publish, so several
        caches in one process aggregate into one registry series.
        """
        registry = _metrics.registry()
        registry.add("cache.hits", self.hits - self._published[0])
        registry.add("cache.misses", self.misses - self._published[1])
        registry.add("cache.evictions", self.evictions - self._published[2])
        registry.set_gauge("cache.size", len(self._entries))
        self._published = (self.hits, self.misses, self.evictions)

    def cache_stats(self) -> dict[str, float]:
        """Lifetime statistics of this cache (standalone accessor)."""
        return {
            "capacity": float(self.capacity),
            "size": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "hit_rate": self.hit_rate,
        }

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
