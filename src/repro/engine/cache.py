"""The session result cache.

:class:`ResultCache` is a small LRU keyed by
``(pattern fingerprint, snapshot version, strategy)`` — the
:attr:`~repro.engine.planner.QueryPlan.cache_key`.  Because the snapshot
version is part of the key, a stale entry can never be *served* (any
mutation moves the version); eviction is therefore purely about memory:
the session subscribes to the compiled snapshot's patch layer
(:meth:`~repro.graph.compiled.CompiledGraph.add_patch_listener`) and drops
entries for superseded versions the moment a patch lands, instead of
letting them age out of the LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.analysis import sanitize as _sanitize
from repro.exceptions import EngineError
from repro.matching.match_result import MatchResult

__all__ = ["ResultCache", "DEFAULT_RESULT_CACHE_SIZE"]

#: Default cap on cached match results per session.
DEFAULT_RESULT_CACHE_SIZE = 256

#: ``(pattern fingerprint, snapshot version, strategy)`` — the plan's
#: :attr:`~repro.engine.planner.QueryPlan.cache_key`.
#: :meth:`ResultCache.evict_stale` reads the version at index 1.
CacheKey = Tuple[str, int, str]


class ResultCache:
    """A size-capped LRU of :class:`MatchResult` values with hit/miss stats."""

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_data")

    def __init__(self, max_entries: Optional[int] = DEFAULT_RESULT_CACHE_SIZE) -> None:
        if max_entries is not None and max_entries < 1:
            raise EngineError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[CacheKey, MatchResult]" = OrderedDict()

    def get(self, key: CacheKey) -> Optional[MatchResult]:
        """The cached result for *key* (refreshing recency), or ``None``."""
        data = self._data
        result = data.get(key)
        if result is None:
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: CacheKey, result: MatchResult) -> None:
        """Cache *result* under *key*, evicting the oldest entry past the cap."""
        if _sanitize.ENABLED:
            _sanitize.result_cache_put(key, result)
        data = self._data
        data[key] = result
        data.move_to_end(key)
        if self.max_entries is not None and len(data) > self.max_entries:
            data.popitem(last=False)
            self.evictions += 1

    def evict_stale(self, current_version: int) -> int:
        """Drop every entry keyed to a snapshot version other than *current_version*.

        Returns the number of entries evicted.  Called by the session's
        patch listener and on out-of-band staleness detection.
        """
        stale = [key for key in self._data if key[1] != current_version]
        for key in stale:
            del self._data[key]
        self.evictions += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self.evictions += len(self._data)
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._data
