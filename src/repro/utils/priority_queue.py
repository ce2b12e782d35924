"""An addressable min-priority queue.

Shortest-path repairs over weighted edges need a priority queue that
supports *decrease-key* and *remove* on arbitrary items.  Python's ``heapq``
does not support these directly, so this module implements the standard
lazy-deletion wrapper: stale heap entries are skipped when popped.  (The
unit-weight deletion repair of :mod:`repro.distance.incremental` uses
distance buckets instead.)
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Hashable, Iterator, Optional, Tuple

__all__ = ["AddressablePriorityQueue"]

_REMOVED = object()


class AddressablePriorityQueue:
    """A min-priority queue with ``decrease-key`` style updates.

    Items must be hashable.  Each item has exactly one live entry; pushing an
    item that is already present replaces its priority (whether larger or
    smaller).  Popping returns the item with the smallest priority, breaking
    ties by insertion order.

    Example
    -------
    >>> pq = AddressablePriorityQueue()
    >>> pq.push("a", 3)
    >>> pq.push("b", 1)
    >>> pq.push("a", 0)          # reprioritise
    >>> pq.pop()
    ('a', 0)
    >>> pq.pop()
    ('b', 1)
    >>> pq.empty()
    True
    """

    def __init__(self) -> None:
        self._heap: list[list[Any]] = []
        self._entries: dict[Hashable, list[Any]] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def empty(self) -> bool:
        """Return ``True`` when no live items remain."""
        return not self._entries

    def push(self, item: Hashable, priority) -> None:
        """Insert *item* with *priority*, replacing any existing entry."""
        if item in self._entries:
            self.remove(item)
        entry = [priority, next(self._counter), item]
        self._entries[item] = entry
        heapq.heappush(self._heap, entry)

    def push_if_smaller(self, item: Hashable, priority) -> bool:
        """Insert *item* only if absent or *priority* improves on the current one.

        Returns ``True`` when the queue was modified.
        """
        current = self.priority_of(item)
        if current is not None and current <= priority:
            return False
        self.push(item, priority)
        return True

    def priority_of(self, item: Hashable):
        """Return the live priority of *item*, or ``None`` if absent."""
        entry = self._entries.get(item)
        if entry is None:
            return None
        return entry[0]

    def remove(self, item: Hashable) -> None:
        """Remove *item* from the queue.  Missing items are ignored."""
        entry = self._entries.pop(item, None)
        if entry is not None:
            entry[2] = _REMOVED

    def pop(self) -> Tuple[Hashable, Any]:
        """Remove and return ``(item, priority)`` for the smallest priority.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        while self._heap:
            priority, _, item = heapq.heappop(self._heap)
            if item is not _REMOVED:
                del self._entries[item]
                return item, priority
        raise IndexError("pop from an empty priority queue")

    def peek(self) -> Optional[Tuple[Hashable, Any]]:
        """Return ``(item, priority)`` for the smallest priority without removing it."""
        while self._heap:
            priority, _, item = self._heap[0]
            if item is _REMOVED:
                heapq.heappop(self._heap)
                continue
            return item, priority
        return None

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate over live ``(item, priority)`` pairs in arbitrary order."""
        for item, entry in self._entries.items():
            yield item, entry[0]

    def clear(self) -> None:
        """Drop all items."""
        self._heap.clear()
        self._entries.clear()
