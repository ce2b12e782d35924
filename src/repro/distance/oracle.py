"""Distance oracle abstraction.

Bounded simulation maps every pattern edge to a *nonempty* path in the data
graph whose length must respect the edge bound (Section 2.2).  The matching
algorithm therefore needs, for a data node ``v`` and a bound ``k``:

* the set of nodes reachable from ``v`` via a nonempty path of length at most
  ``k`` (``descendants_within``);
* symmetrically, the nodes that reach ``v`` (``ancestors_within``);
* membership tests (``within``).

The paper evaluates three ways of answering these queries (Exp-2): a
precomputed distance matrix, on-demand BFS, and 2-hop reachability labels
used as a pruning filter.  All three implement the :class:`DistanceOracle`
interface defined here, so the matching code in :mod:`repro.matching` is
oblivious to the choice.

Self-loops deserve care: the ordinary distance ``dist(v, v)`` is 0, but the
*nonempty* distance from ``v`` to itself is the length of the shortest cycle
through ``v`` (infinite when ``v`` is not on a cycle).  The helpers here
implement that adjustment once for all oracles.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Set

from repro.analysis import sanitize as _sanitize
from repro.graph.datagraph import DataGraph, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.compiled import CompiledGraph

__all__ = ["INF", "DistanceOracle", "BoundedBitsCache", "DEFAULT_BITS_CACHE_SIZE"]

#: Distance value representing "unreachable".
INF = math.inf

#: Default entry cap of the memoised-bitset LRU shared by all oracles.
DEFAULT_BITS_CACHE_SIZE = 4096


class BoundedBitsCache:
    """A size-capped LRU for memoised reachability answers.

    Every oracle memoises ``(index, bound, direction) -> bitset`` answers
    for the compiled matching path, and the compiled oracle additionally
    caches dense distance rows — the cache is value-agnostic.  An unbounded
    dict grows by one entry per distinct key for the lifetime of the oracle
    — on large graphs with many bounds that is effectively a leak — so the
    shared cache evicts the least recently used entry once *max_size* is
    exceeded (``None`` disables eviction).  A value of ``0`` is a
    legitimate cached answer; callers must test ``get`` against ``None``,
    not for truthiness.
    """

    __slots__ = ("max_size", "_data")

    def __init__(self, max_size: Optional[int] = DEFAULT_BITS_CACHE_SIZE) -> None:
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be positive, got {max_size}")
        self.max_size = max_size
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable):
        """The cached value for *key*, or ``None``; refreshes its recency."""
        data = self._data
        value = data.get(key)
        if value is not None:
            data.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Cache *value* under *key*, evicting the oldest entry past the cap."""
        if _sanitize.ENABLED:
            _sanitize.cache_put("BoundedBitsCache", key, value)
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if self.max_size is not None and len(data) > self.max_size:
            data.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached entry."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data


class DistanceOracle(ABC):
    """Answers (bounded) distance and reachability queries over a data graph.

    Subclasses must implement :meth:`distance`, :meth:`descendants_within`
    and :meth:`ancestors_within`; the nonempty-path logic is shared here, as
    is the size-capped bitset LRU (:attr:`_bits_lru`) the concrete oracles
    memoise their compiled-path answers in, keyed by
    ``(interned index, bound, forward?)``.
    """

    def __init__(
        self,
        graph: DataGraph,
        *,
        bits_cache_size: int = DEFAULT_BITS_CACHE_SIZE,
        bits_cache: Optional[BoundedBitsCache] = None,
    ) -> None:
        self._graph = graph
        # Shortest-cycle lengths per node (nonempty self-distances), keyed by
        # the graph version they were computed at.
        self._self_loop_cache: Dict[NodeId, float] = {}
        self._self_loop_version = graph.version
        # Memoised reachability bitsets for the compiled matching path.  A
        # caller owning several oracles over the same graph (the engine's
        # MatchSession) may pass one shared cache instead of a size.
        self._bits_lru = (
            bits_cache if bits_cache is not None else BoundedBitsCache(bits_cache_size)
        )

    @property
    def graph(self) -> DataGraph:
        """The data graph this oracle answers queries about."""
        return self._graph

    # ------------------------------------------------------------------
    # abstract core
    # ------------------------------------------------------------------

    @abstractmethod
    def distance(self, source: NodeId, target: NodeId) -> float:
        """Shortest-path distance (number of edges) from *source* to *target*.

        Returns 0 when ``source == target`` and :data:`INF` when *target* is
        unreachable.
        """

    @abstractmethod
    def descendants_within(self, source: NodeId, bound: Optional[int]) -> Set[NodeId]:
        """Nodes reachable from *source* via a nonempty path of length <= *bound*.

        ``bound=None`` means unbounded.  *source* itself belongs to the result
        only when it lies on a cycle of length within the bound.
        """

    @abstractmethod
    def ancestors_within(self, target: NodeId, bound: Optional[int]) -> Set[NodeId]:
        """Nodes that reach *target* via a nonempty path of length <= *bound*."""

    # ------------------------------------------------------------------
    # bitset variants (the compiled matching fast path)
    # ------------------------------------------------------------------

    def descendants_within_bits(
        self, compiled: "CompiledGraph", source: int, bound: Optional[int]
    ) -> int:
        """:meth:`descendants_within` over interned ids, as a bitset.

        *source* is a dense index of *compiled*; the result has bit ``i`` set
        when the node interned at ``i`` is reachable from *source* via a
        nonempty path within *bound*.  The default implementation wraps the
        set-based method; the concrete oracles override it with native
        integer implementations.
        """
        return compiled.encode(
            self.descendants_within(compiled.node_of(source), bound)
        )

    def ancestors_within_bits(
        self, compiled: "CompiledGraph", target: int, bound: Optional[int]
    ) -> int:
        """:meth:`ancestors_within` over interned ids, as a bitset."""
        return compiled.encode(self.ancestors_within(compiled.node_of(target), bound))

    def descendants_compact(
        self, compiled: "CompiledGraph", source: int, bound: Optional[int]
    ):
        """The forward ball in whichever representation the oracle holds.

        Returns either an ``int`` bitset (the :meth:`descendants_within_bits`
        contract) or a tuple of interned indices — the refinement hot path
        (:func:`repro.matching.bounded.refine_bits_to_fixpoint`) dispatches
        on the type.  The default forwards to the dense method.
        """
        return self.descendants_within_bits(compiled, source, bound)

    def _snapshot_is_current(self, compiled: "CompiledGraph") -> bool:
        """The single staleness rule for the memoising bits overrides.

        A snapshot may be memoised against only when it was compiled from
        *this* oracle's graph at the graph's current version; anything else
        (another graph, a collected graph, a stale version whose interning
        may differ) must take the unmemoised fallback above.
        """
        return (
            compiled.graph is self._graph
            and compiled.version == self._graph.version
        )

    # ------------------------------------------------------------------
    # shared derived queries
    # ------------------------------------------------------------------

    def nonempty_distance(self, source: NodeId, target: NodeId) -> float:
        """Length of the shortest *nonempty* path from *source* to *target*.

        Equal to :meth:`distance` when the endpoints differ; for
        ``source == target`` it is the length of the shortest cycle through
        the node (``1 + min(distance(w, source))`` over successors ``w``).
        """
        if source != target:
            return self.distance(source, target)
        if self._self_loop_version != self._graph.version:
            self._self_loop_cache.clear()
            self._self_loop_version = self._graph.version
        cached = self._self_loop_cache.get(source)
        if cached is not None:
            return cached
        best = INF
        for successor in self._graph.successors(source):
            candidate = self.distance(successor, source)
            if candidate + 1 < best:
                best = candidate + 1
        self._self_loop_cache[source] = best
        return best

    def within(self, source: NodeId, target: NodeId, bound: Optional[int]) -> bool:
        """``True`` when a nonempty path of length <= *bound* goes from *source* to *target*.

        ``bound=None`` only requires the path to exist.
        """
        dist = self.nonempty_distance(source, target)
        if dist == INF:
            return False
        return bound is None or dist <= bound

    def reaches(self, source: NodeId, target: NodeId) -> bool:
        """``True`` when a nonempty path from *source* to *target* exists."""
        return self.within(source, target, None)

    # ------------------------------------------------------------------
    # cache / staleness control
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Recompute any internal state from the current graph.

        The default implementation does nothing; oracles that precompute
        structures override this.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self._graph!r}>"
