"""Bounded LRU mapping with hit/miss/eviction accounting.

The process-wide hot-path caches (compiled simulators, synthesis,
codegen, ISS decode, and the HW and ISS run memos) all use it.
``repro serve`` runs estimates on several threads of one process, so
another thread may evict a key between the lookup and the LRU touch of
a hit; the hit path tolerates that instead of raising ``KeyError``.
Every cache registers itself, so :func:`clear_process_caches` empties
them all without a list to keep in step with the code.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")

#: Every live :class:`LruCache`; see :func:`clear_process_caches`.
_PROCESS_CACHES: "weakref.WeakSet[LruCache]" = weakref.WeakSet()


def clear_process_caches() -> None:
    """Empty every live :class:`LruCache` and reset its stats.

    Running this before a measurement or a design point emulates a cold
    process; the per-cache ``clear_*`` functions empty one cache each.
    """
    for cache in list(_PROCESS_CACHES):
        cache.clear()


class CacheStats:
    """Process-wide hit/miss/eviction counts of one cache."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class LruCache(Generic[V]):
    """At most ``capacity`` entries; the least recently used is evicted."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        _PROCESS_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def touch(self, key: Hashable) -> Optional[V]:
        """The entry under ``key``, marked most recently used, or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            try:
                self._entries.move_to_end(key)
            except KeyError:  # evicted by another thread; the entry stays valid
                pass
        return entry

    def get(self, key: Hashable) -> Optional[V]:
        """Like :meth:`touch`, counting a hit or a miss."""
        entry = self.touch(key)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def put(self, key: Hashable, value: V) -> None:
        """Insert ``value`` as the most recent entry, evicting beyond capacity."""
        entries = self._entries
        entries[key] = value
        while len(entries) > self.capacity:
            try:
                entries.popitem(last=False)
            except KeyError:  # emptied by another thread
                break
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the stats."""
        self._entries.clear()
        self.stats.reset()
