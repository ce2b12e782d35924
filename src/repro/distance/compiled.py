"""Compiled distance engine: flat BFS kernels and a lazy ball index.

The paper's :class:`~repro.distance.matrix.DistanceMatrix` computes all of
``M`` up front — one BFS per node, ``O(|V|^2)`` cells — which dominates
``match()`` precompute even though the refinement itself runs on the
CSR/bitset core.  Following the flat-representation playbook of compiled
query engines, this module keeps the whole hot path in interned-id/array
space and computes only what a query touches:

* :class:`FlatBFSKernel` — a reusable breadth-first kernel over a
  :class:`~repro.graph.compiled.CompiledGraph`.  The dense ball search
  emits a Python-int bitset from a *level-synchronised* search whose
  frontier is itself a bitset: each step ORs whole cached neighbour rows
  (word-parallel C work) instead of touching edges one by one, which is
  what beats the dict BFS in CPython.  The sparse ball search and the
  dense distance rows walk a per-snapshot tuple-decoded CSR; a row copies
  an all ``-1`` ``array('i')`` template (one C memcpy) and doubles as the
  visited set.  No dict of node ids is ever touched.

* :class:`CompiledDistanceMatrix` — a :class:`~repro.distance.oracle.DistanceOracle`
  whose rows are *lazily* computed per-source ``array('i')`` vectors behind
  a size-capped LRU.  Columns are answered by an on-demand reverse BFS — a
  full column map is never built.  It is the default oracle of
  :func:`~repro.matching.bounded.match`: together with the worklist
  refinement it computes balls only for live candidates instead of all
  ``|V|^2`` pairs.  Each ball miss is one kernel call: dense up to
  :data:`DENSE_BALL_MAX_NODES` nodes (a bitset of at most 1 KiB), sparse
  above (see :meth:`FlatBFSKernel.ball_nodes`).  A dense ball of a finite
  bound ``b >= 3`` is *composed* rather than searched: under the
  nonempty-path semantics ``ball(v, b)`` is the union over the neighbours
  ``j`` of ``{j} | ball(j, b - 1)``, so with the sub-balls memoised it
  costs one OR per neighbour instead of one per node within ``b - 1``
  hops.  The sub-balls a miss needs are planned top down and computed
  bottom up (no recursion, no kernel call inside another, none computed
  twice within the miss; see :meth:`CompiledDistanceMatrix._composed_ball`).
  Bounds whose ``(b - 2) * |V|`` sub-balls do not fit in the ball memo are
  searched, since their sub-balls would be evicted before their reuse.

The matrix, BFS and 2-hop oracles stay available for the paper's Exp-2
comparisons.  The incremental procedures (``UpdateM`` repairs a fully
materialised ``M``) get theirs from
:func:`~repro.distance.incremental.build_store`, which fills an
:class:`~repro.distance.matrix.InternedDistanceStore` over the snapshot's
adjacency.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis import sanitize as _sanitize
from repro.exceptions import DistanceOracleError, NodeNotFoundError
from repro.graph.compiled import CompiledGraph, compile_graph, indices_to_bits
from repro.graph.datagraph import DataGraph, NodeId
from repro.distance.oracle import (
    DEFAULT_BITS_CACHE_SIZE,
    INF,
    BoundedBitsCache,
    DistanceOracle,
)

__all__ = ["FlatBFSKernel", "CompiledDistanceMatrix", "DEFAULT_ROW_CACHE_SIZE"]

#: Cap on the number of cached distance rows/columns of
#: :class:`CompiledDistanceMatrix` (each is a dense ``array('i')`` of |V|).
DEFAULT_ROW_CACHE_SIZE = 512

#: Widest snapshot whose balls :class:`CompiledDistanceMatrix` searches as
#: bitsets: 8192 bits is 1 KiB, no bigger than a 128-entry index tuple.
#: Wider snapshots use the sparse :meth:`FlatBFSKernel.ball_nodes` walk.
DENSE_BALL_MAX_NODES = 8192


class FlatBFSKernel:
    """A reusable BFS kernel over one compiled snapshot, in pure id/array space.

    Two search strategies, each chosen because it measures fastest for its
    output shape in CPython:

    * :meth:`ball_bits` runs a **bitset-frontier** BFS: the frontier, the
      visited set and the result are plain Python ints, and one level
      expands by OR-ing the cached neighbour bitsets of the frontier's
      members — ``O(frontier * |V|/64)`` word operations in C rather than
      one interpreted step per edge.  Given the neighbours' memoised
      sub-balls it composes the ball with one OR per neighbour instead.
    * :meth:`distance_row` walks a tuple-decoded CSR (interned ints only);
      the output row doubles as the visited set, so nothing else is
      allocated.  Rows start as a copy of an all ``-1`` ``array('i')``
      template (one C memcpy).

    The kernel is patch-aware: nodes with an adjacency overlay (see
    :meth:`~repro.graph.compiled.CompiledGraph.patch_edge_insert`) are
    answered from the overlay, and the decoded CSR tuples are re-derived
    when the snapshot's version moves.  Nodes interned after creation are
    covered automatically (the shared bitset cache grows with the
    snapshot).  Obtain the per-snapshot kernel through
    :meth:`~repro.graph.compiled.CompiledGraph.flat_kernel` so these caches
    are shared by every consumer of the snapshot.
    """

    __slots__ = ("compiled", "_template", "_fwd_tuples", "_rev_tuples", "_tuples_version")

    def __init__(self, compiled: CompiledGraph) -> None:
        self.compiled = compiled
        self._template = array("i", [-1]) * compiled.num_nodes
        self._fwd_tuples: Optional[List[Tuple[int, ...]]] = None
        self._rev_tuples: Optional[List[Tuple[int, ...]]] = None
        self._tuples_version: Optional[int] = None

    # ------------------------------------------------------------------
    # adjacency views
    # ------------------------------------------------------------------

    def _row_template(self) -> array:
        grow = self.compiled.num_nodes - len(self._template)
        if grow > 0:
            self._template.extend([-1] * grow)
        return self._template

    def adjacency_tuples(self, reverse: bool = False) -> List[Tuple[int, ...]]:
        """Per-node neighbour tuples, decoded from the CSR + patch overlay.

        Cached per direction and re-derived when the snapshot's version
        moves (patches and interned nodes bump it), so the decode cost is
        paid once per snapshot state, not once per search.
        """
        compiled = self.compiled
        if self._tuples_version != compiled.version:
            self._fwd_tuples = None
            self._rev_tuples = None
            self._tuples_version = compiled.version
        tuples = self._rev_tuples if reverse else self._fwd_tuples
        if tuples is None:
            fwd_off, fwd_tgt, fwd_patch, rev_off, rev_tgt, rev_patch = (
                compiled.adjacency_arrays()
            )
            if reverse:
                offsets, targets, patched = rev_off, rev_tgt, rev_patch
            else:
                offsets, targets, patched = fwd_off, fwd_tgt, fwd_patch
            tuples = [
                patched[i] if i in patched
                else tuple(targets[offsets[i] : offsets[i + 1]])
                for i in range(compiled.num_nodes)
            ]
            if reverse:
                self._rev_tuples = tuples
            else:
                self._fwd_tuples = tuples
        return tuples

    # ------------------------------------------------------------------
    # bounded balls (nonempty-path semantics, bitset output)
    # ------------------------------------------------------------------

    def ball_bits(
        self,
        source: int,
        bound: Optional[int],
        *,
        reverse: bool = False,
        sub_balls: Optional[Iterable[int]] = None,
    ) -> int:
        """Bitset of nodes within a nonempty path of length ``<= bound`` of *source*.

        Forward (descendants) by default, backward (ancestors) with
        *reverse*.  ``bound=None`` means unbounded; *source*'s own bit is set
        only when it lies on a cycle of length within the bound, matching
        :meth:`DataGraph.descendants_within`.

        Given *sub_balls* — the ``(bound - 1)``-balls of *source*'s
        neighbours, one per neighbour, in any order — the ball is composed
        instead of searched: ``ball(v, b)`` is the union over the neighbours
        ``j`` of ``{j} | ball(j, b - 1)``, so it costs one OR per neighbour
        (the neighbour row itself supplies every ``{j}``).  A self-loop or a
        path back to *source* inside a sub-ball sets *source*'s own bit, as
        the search would.
        """
        if bound is not None and bound <= 0:
            return 0
        compiled = self.compiled
        materialize = (
            compiled.predecessors_bits if reverse else compiled.successors_bits
        )
        if sub_balls is not None:
            ball = materialize(source)
            for sub in sub_balls:
                ball |= sub
            return ball
        cache, patched = compiled.adjacency_bits(reverse=reverse)
        consult_patch = bool(patched)
        source_bit = 1 << source
        visited = source_bit
        result = 0
        hit_source = False
        frontier = source_bit
        depth = 0
        while frontier and (bound is None or depth < bound):
            depth += 1
            raw = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                i = low.bit_length() - 1
                if consult_patch:
                    bits = patched.get(i)
                    if bits is None:
                        bits = cache[i]
                        if bits is None:
                            bits = materialize(i)
                else:
                    bits = cache[i]
                    if bits is None:
                        bits = materialize(i)
                raw |= bits
            if raw & source_bit:
                hit_source = True
            frontier = raw & ~visited
            visited |= frontier
            result |= frontier
        if hit_source:
            result |= source_bit
        return result

    def ball_nodes(
        self, source: int, bound: Optional[int], *, reverse: bool = False
    ) -> Union[Tuple[int, ...], int]:
        """The ball of :meth:`ball_bits`, searched sparsely, in its smaller form.

        The walk follows the tuple-decoded CSR and touches only the edges
        inside the ball, instead of OR-ing ``|V|``-bit integers per frontier
        node.  A ball of at most ``|V|/64`` members comes back as a tuple of
        interned indices, 8 bytes per member instead of a ``|V|/8``-byte
        bitset, which makes memoising *every* ball of a large batch workload
        affordable; a bigger ball comes back as the bitset, which is then
        the smaller form and is intersected word-parallel by consumers.
        """
        if bound is not None and bound <= 0:
            return ()
        adjacency = self.adjacency_tuples(reverse)
        width = self.compiled.num_nodes
        seen = {source}
        seen_add = seen.add
        frontier = [source]
        out: List[int] = []
        hit_source = False
        depth = 0
        while frontier and (bound is None or depth < bound):
            depth += 1
            next_frontier: List[int] = []
            next_append = next_frontier.append
            for i in frontier:
                for j in adjacency[i]:
                    if j not in seen:
                        seen_add(j)
                        next_append(j)
                    elif j == source:
                        hit_source = True
            out += next_frontier
            frontier = next_frontier
        if hit_source:
            out.append(source)
        if len(out) > width >> 6:
            return indices_to_bits(out, width)
        return tuple(out)

    # ------------------------------------------------------------------
    # distance rows
    # ------------------------------------------------------------------

    def distance_row(
        self, source: int, *, reverse: bool = False, bound: Optional[int] = None
    ) -> array:
        """Dense ``array('i')`` of BFS distances from (or to) *source*.

        Entry ``j`` holds the hop count, ``-1`` meaning unreachable;
        ``row[source] == 0``.  The returned array is freshly allocated (it
        is meant to be cached by the caller) and doubles as the visited set
        during the search.
        """
        adjacency = self.adjacency_tuples(reverse)
        row = array("i", self._row_template())
        row[source] = 0
        frontier = [source]
        depth = 0
        while frontier and (bound is None or depth < bound):
            depth += 1
            next_frontier: List[int] = []
            append = next_frontier.append
            for i in frontier:
                for j in adjacency[i]:
                    if row[j] < 0:
                        row[j] = depth
                        append(j)
            frontier = next_frontier
        return row


class CompiledDistanceMatrix(DistanceOracle):
    """Distance oracle over the compiled snapshot with lazy flat rows.

    The paper's Algorithm ``Match`` assumes a precomputed matrix ``M`` so
    each bounded check is O(1); building all of ``M`` up front is the
    dominant cost at scale.  This oracle keeps the O(1)-per-check contract
    where it matters while computing only what a query actually touches:

    * ``distance(u, v)`` materialises the *row* of ``u`` (one flat BFS) into
      a dense ``array('i')`` kept in a size-capped LRU; further lookups in
      that row are array reads.
    * ``ancestors_*`` queries materialise a *column* the same way — one
      on-demand reverse BFS — instead of maintaining a full column map.
    * bounded balls come from one :class:`FlatBFSKernel` search per miss
      (see :meth:`_compact_ball`) and are memoised in the shared
      :class:`~repro.distance.oracle.BoundedBitsCache`.

    Staleness follows the graph's ``version`` counter: any mutation drops
    the caches and re-pins the snapshot on the next query.  Bitset queries
    against a snapshot other than the pinned one fall back to the
    unmemoised base-class path, exactly like the legacy oracles.

    Parameters
    ----------
    graph:
        The data graph.
    bits_cache_size:
        Cap on memoised ball bitsets (see :class:`BoundedBitsCache`).
    """

    def __init__(
        self,
        graph: DataGraph,
        *,
        bits_cache_size: int = DEFAULT_BITS_CACHE_SIZE,
        bits_cache: Optional["BoundedBitsCache"] = None,
    ) -> None:
        super().__init__(graph, bits_cache_size=bits_cache_size, bits_cache=bits_cache)
        # (index, forward?) -> dense array('i') distance vector.
        self._rows_lru = BoundedBitsCache(DEFAULT_ROW_CACHE_SIZE)
        self._compiled: Optional[CompiledGraph] = None
        self._kernel: Optional[FlatBFSKernel] = None
        self._synced_version: Optional[int] = None
        self._sync()

    # ------------------------------------------------------------------
    # snapshot pinning / staleness
    # ------------------------------------------------------------------

    @property
    def snapshot(self) -> CompiledGraph:
        """The currently pinned compiled snapshot (re-pinned when stale)."""
        self._sync()
        return self._compiled

    @property
    def in_sync(self) -> bool:
        """``True`` when the caches were built for the graph's current version."""
        return self._synced_version == self._graph.version

    def _sync(self) -> CompiledGraph:
        graph = self._graph
        if self._compiled is not None and self._synced_version == graph.version:
            return self._compiled
        self._compiled = compile_graph(graph)
        self._kernel = self._compiled.flat_kernel()
        num_nodes = self._compiled.num_nodes
        self._dense_balls = num_nodes <= DENSE_BALL_MAX_NODES
        # The largest bound a dense miss composes (see _composed_ball): the
        # sub-balls of bounds 2 .. b-1 of every node must fit in the memo
        # together, or they would evict each other before they are reused.
        cap = self._bits_lru.max_size
        self._max_composed_bound = INF if cap is None else 2 + cap // max(num_nodes, 1)
        self._rows_lru.clear()
        self._bits_lru.clear()
        self._synced_version = graph.version
        return self._compiled

    def refresh(self) -> None:
        """Drop all cached rows/balls and re-pin the snapshot."""
        self._synced_version = None
        self._sync()

    # ------------------------------------------------------------------
    # lazy flat rows / columns
    # ------------------------------------------------------------------

    def _vector(self, index: int, forward: bool) -> array:
        # Re-pin before trusting the LRU: callers sync too, but a version
        # check is one int compare and keeps this safe to call directly.
        self._sync()
        key = (index, forward)
        row = self._rows_lru.get(key)
        if row is None:
            row = self._kernel.distance_row(index, reverse=not forward)
            self._rows_lru.put(key, row)
        return row

    def row_array(self, source: NodeId) -> array:
        """The dense forward distance vector of *source* (``-1`` = unreachable).

        Indexed by the pinned snapshot's interned ids; treat as read-only
        (the array is shared with the LRU).
        """
        compiled = self._sync()
        return self._vector(compiled.id_of(source), True)

    def column_array(self, target: NodeId) -> array:
        """The dense reverse distance vector into *target* (on-demand BFS)."""
        compiled = self._sync()
        return self._vector(compiled.id_of(target), False)

    def cached_vectors(self) -> int:
        """Number of dense vectors currently held by the LRU (for tests)."""
        return len(self._rows_lru)

    # ------------------------------------------------------------------
    # DistanceOracle interface
    # ------------------------------------------------------------------

    def distance(self, source: NodeId, target: NodeId) -> float:
        compiled = self._sync()
        try:
            i = compiled.id_of(source)
        except NodeNotFoundError:
            raise DistanceOracleError(f"unknown node {source!r}") from None
        try:
            j = compiled.id_of(target)
        except NodeNotFoundError:
            return INF
        dist = self._vector(i, True)[j]
        return dist if dist >= 0 else INF

    def descendants_within(self, source: NodeId, bound: Optional[int]) -> Set[NodeId]:
        return self._ball_set(source, bound, True)

    def ancestors_within(self, target: NodeId, bound: Optional[int]) -> Set[NodeId]:
        return self._ball_set(target, bound, False)

    def _ball_set(self, node: NodeId, bound: Optional[int], forward: bool) -> Set[NodeId]:
        compiled = self._sync()
        ball = self._compact_ball(compiled.id_of(node), bound, forward)
        if type(ball) is tuple:
            return set(map(compiled.node_of, ball))
        return compiled.decode(ball)

    def _compact_ball(self, index: int, bound: Optional[int], forward: bool):
        """The memoised ball of ``(index, bound)`` — bitset or tuple of indices.

        A miss runs exactly one kernel call, its form chosen by :meth:`_sync`
        from the snapshot's width: :meth:`FlatBFSKernel.ball_bits` up to
        :data:`DENSE_BALL_MAX_NODES` nodes (a bitset of at most 1 KiB),
        :meth:`FlatBFSKernel.ball_nodes` above (a tuple while the ball has at
        most ``|V|/64`` members, else a bitset).  Consumers dispatch on type.

        A dense ball of a finite bound ``b >= 3`` is composed from its
        neighbours' memoised ``(b - 1)``-balls (see :meth:`_composed_ball`)
        while ``(b - 2) * |V|`` sub-balls fit in the memo; at bound 2 the
        search already ORs one row per neighbour, an unbounded ball has no
        smaller bound to reuse, and past the memo's room the sub-balls would
        evict each other before their reuse, so those are searched.
        """
        self._sync()
        key = (index, bound, forward)
        ball = self._bits_lru.get(key)
        if ball is None:
            if not self._dense_balls:
                ball = self._kernel.ball_nodes(index, bound, reverse=not forward)
            elif bound is not None and 3 <= bound <= self._max_composed_bound:
                ball = self._composed_ball(index, bound, forward)
            else:
                ball = self._kernel.ball_bits(index, bound, reverse=not forward)
            self._memoise(key, ball)
        return ball

    def _memoise(self, key: Tuple[int, Optional[int], bool], ball) -> None:
        if _sanitize.ENABLED:
            _sanitize.primed_ball(ball, self._compiled.num_nodes)
        self._bits_lru.put(key, ball)

    def _composed_ball(self, index: int, bound: int, forward: bool) -> int:
        """The dense ball of a miss, composed from memoised sub-balls.

        Under the nonempty-path semantics ``ball(v, b)`` is the union over
        the neighbours ``j`` of ``{j} | ball(j, b - 1)``.  The plan runs top
        down: the neighbours of each level's misses need their
        ``(b - 1)``-balls; memo hits are held, misses make up the next level,
        down to bound 2, whose misses are searched.  The computation then
        runs bottom up, one :meth:`FlatBFSKernel.ball_bits` call per miss,
        each given the held balls of the level below, and every sub-ball is
        memoised as its parent level takes it.  So each miss is one kernel
        call, no call runs inside another, no sub-ball is computed twice
        within the miss whatever the memo evicts meanwhile, and no bound is
        too deep (nothing recurses).  A cold miss computes at most
        ``(b - 2) * |V|`` sub-balls, one OR per edge each level.  The
        *index* ball itself is left to the caller to memoise.
        """
        kernel = self._kernel
        reverse = not forward
        # CSR slices, not the kernel's decoded tuples: those are re-derived
        # for all of |V| after every patch, which a read after a write
        # would pay for a handful of rows.
        compiled = self._compiled
        neighbours = compiled.predecessors_indices if reverse else compiled.successors_indices
        memo = self._bits_lru.get
        levels = []  # (bound, [(miss, its neighbours)], held (bound - 1)-balls)
        misses = [index]
        level = bound
        while level > 2 and misses:
            rows = [(i, neighbours(i)) for i in misses]
            held: Dict[int, Optional[int]] = {}
            for _, row in rows:
                for j in row:
                    if j not in held:
                        held[j] = memo((j, level - 1, forward))
            levels.append((level, rows, held))
            misses = [j for j, ball in held.items() if ball is None]
            level -= 1
        balls = {j: kernel.ball_bits(j, level, reverse=reverse) for j in misses}
        for level, rows, held in reversed(levels):
            for j, ball in balls.items():
                self._memoise((j, level - 1, forward), ball)
            held.update(balls)
            balls = {
                i: kernel.ball_bits(i, level, reverse=reverse, sub_balls=map(held.__getitem__, row))
                for i, row in rows
            }
        return balls[index]

    def _ball(self, index: int, bound: Optional[int], forward: bool) -> int:
        """The memoised ball as a dense bitset (converting a sparse memo)."""
        ball = self._compact_ball(index, bound, forward)
        if type(ball) is tuple:
            bits = 0
            for i in ball:
                bits |= 1 << i
            return bits
        return ball

    def descendants_within_bits(
        self, compiled: CompiledGraph, source: int, bound: Optional[int]
    ) -> int:
        self._sync()
        if compiled is self._compiled:
            return self._ball(source, bound, True)
        if self._snapshot_is_current(compiled):
            # Same graph and version but a different snapshot object: answer
            # in that snapshot's own id space, unmemoised.
            return compiled.descendants_within_bits(source, bound)
        return super().descendants_within_bits(compiled, source, bound)

    def ancestors_within_bits(
        self, compiled: CompiledGraph, target: int, bound: Optional[int]
    ) -> int:
        self._sync()
        if compiled is self._compiled:
            return self._ball(target, bound, False)
        if self._snapshot_is_current(compiled):
            return compiled.ancestors_within_bits(target, bound)
        return super().ancestors_within_bits(compiled, target, bound)

    def descendants_compact(
        self, compiled: CompiledGraph, source: int, bound: Optional[int]
    ):
        """Sparse-or-dense memoised forward ball (see :meth:`_compact_ball`)."""
        self._sync()
        if compiled is self._compiled:
            return self._compact_ball(source, bound, True)
        return super().descendants_compact(compiled, source, bound)
