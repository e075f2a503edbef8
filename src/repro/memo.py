"""The one memo primitive: a bounded LRU map that counts its traffic.

Six caches pay for themselves (see DESIGN.md, "Caches"), and all six are
a :class:`Memo`: the pipeline's schedule and launch cache (``cache``), and
the process-wide simulated profile, dependence, emptiness, Farkas block
and ILP memos (``sim.profile_cache``, ``cache.deps``, ``cache.emptiness``,
``cache.farkas``, ``cache.ilp``).  Each counts
``<name>.hits``, ``<name>.misses`` and ``<name>.evictions`` into the
ambient metrics registry, and keeps the same totals for :meth:`stats`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.runtime import get_obs


class Memo:
    """A bounded LRU map from hashable keys to non-``None`` values.

    :meth:`get` returns ``None`` on a miss; a hit makes the entry the most
    recently used, and :meth:`put` evicts the least recently used entries
    beyond ``max_entries``.
    """

    __slots__ = ("name", "max_entries", "_entries", "hits", "misses",
                 "evictions", "_hit", "_miss", "_evict")

    def __init__(self, name: str, max_entries: int):
        self.name = name
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = 0
        self._hit, self._miss, self._evict = (
            f"{name}.hits", f"{name}.misses", f"{name}.evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The value stored under ``key``, or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            get_obs().metrics.count(self._miss)
        else:
            self._entries.move_to_end(key)
            self.hits += 1
            get_obs().metrics.count(self._hit)
        return value

    def put(self, key, value) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
            get_obs().metrics.count(self._evict)

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0
