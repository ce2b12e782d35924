"""All-pairs distance matrix (the paper's matrix ``M``).

Algorithm ``Match`` (Fig. 4, line 1) precomputes the distance between every
pair of nodes so that each bounded-connectivity check is O(1).  The matrix is
computed with one BFS per node — ``O(|V| (|V| + |E|))`` for unweighted graphs,
matching the paper's analysis — and stored sparsely (only finite entries).

Both a forward index (``row(u) = {v: dist(u, v)}``) and a reverse index
(``column(v) = {u: dist(u, v)}``) are available: the matching algorithm needs
descendant queries (rows) and ancestor queries (columns) with equal
frequency.  :meth:`DistanceMatrix.refresh` computes **rows only**; a column
is materialised lazily from the rows on first access and kept in sync from
then on, so a workload that never asks an ancestor query (or asks about a
few sinks) does not pay the second ``O(|V|^2)`` dict build.

:class:`InternedDistanceStore` holds the same matrix keyed by the interned
ids of a compiled snapshot; it is what the incremental procedures
``UpdateM`` / ``UpdateBM`` (see :mod:`repro.distance.incremental`) repair in
place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple

from repro.exceptions import DistanceOracleError
from repro.graph.datagraph import DataGraph, NodeId
from repro.distance.oracle import (
    DEFAULT_BITS_CACHE_SIZE,
    INF,
    BoundedBitsCache,
    DistanceOracle,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.compiled import CompiledGraph

__all__ = ["DistanceMatrix", "InternedDistanceStore"]


class DistanceMatrix(DistanceOracle):
    """Precomputed all-pairs shortest-path distances with O(1) lookups.

    Parameters
    ----------
    graph:
        The data graph.  The matrix snapshots the graph at construction time;
        call :meth:`refresh` after arbitrary mutations, or use the incremental
        update procedures for edge insertions/deletions.
    """

    def __init__(
        self, graph: DataGraph, *, bits_cache_size: int = DEFAULT_BITS_CACHE_SIZE
    ) -> None:
        super().__init__(graph, bits_cache_size=bits_cache_size)
        self._rows: Dict[NodeId, Dict[NodeId, int]] = {}
        self._columns: Dict[NodeId, Dict[NodeId, int]] = {}
        self._graph_version = -1
        self.refresh()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Recompute the rows from the current graph (one BFS per node).

        Columns are *not* rebuilt here: the reverse index is materialised
        lazily per sink on first access (see :meth:`column`), so a refresh
        does row work only.
        """
        # Memoised bitset rows (keyed by (index, bound, forward?)) are
        # invalidated with the graph version.
        self._bits_lru.clear()
        self._bits_cache_version = self._graph.version
        # Self-loop memos taken between a mutation and this refresh were
        # computed from stale rows (possibly under the current version).
        self._self_loop_cache.clear()
        self._self_loop_version = self._graph.version
        self._rows = {}
        self._columns = {}
        for source in self._graph.nodes():
            self._rows[source] = self._graph.bfs_distances(source)
        self._graph_version = self._graph.version

    @property
    def in_sync(self) -> bool:
        """``True`` when the matrix was built/updated for the graph's current version."""
        return self._graph_version == self._graph.version

    # ------------------------------------------------------------------
    # DistanceOracle interface
    # ------------------------------------------------------------------

    def distance(self, source: NodeId, target: NodeId) -> float:
        """O(1) shortest-path distance lookup."""
        row = self._rows.get(source)
        if row is None:
            if not self._graph.has_node(source):
                raise DistanceOracleError(f"unknown node {source!r}")
            return INF if source != target else 0
        return row.get(target, INF)

    def descendants_within(self, source: NodeId, bound: Optional[int]) -> Set[NodeId]:
        row = self._rows.get(source, {})
        result = {
            node
            for node, dist in row.items()
            if dist >= 1 and (bound is None or dist <= bound)
        }
        if self._on_cycle_within(source, bound):
            result.add(source)
        return result

    def ancestors_within(self, target: NodeId, bound: Optional[int]) -> Set[NodeId]:
        column = self.column(target)
        result = {
            node
            for node, dist in column.items()
            if dist >= 1 and (bound is None or dist <= bound)
        }
        if self._on_cycle_within(target, bound):
            result.add(target)
        return result

    def descendants_within_bits(
        self, compiled: "CompiledGraph", source: int, bound: Optional[int]
    ) -> int:
        if not self._snapshot_is_current(compiled):
            # Memo keys (interned indices validated by our graph's version)
            # would be wrong — fall back to the unmemoised set-based
            # conversion in the snapshot's own id space.
            return super().descendants_within_bits(compiled, source, bound)
        cache = self._bits_cache_for_version()
        key = (source, bound, True)
        bits = cache.get(key)
        if bits is None:
            node = compiled.node_of(source)
            bits = compiled.encode_within(self._rows.get(node, {}), bound)
            if self._on_cycle_within(node, bound):
                bits |= 1 << source
            cache.put(key, bits)
        return bits

    def ancestors_within_bits(
        self, compiled: "CompiledGraph", target: int, bound: Optional[int]
    ) -> int:
        if not self._snapshot_is_current(compiled):
            return super().ancestors_within_bits(compiled, target, bound)
        cache = self._bits_cache_for_version()
        key = (target, bound, False)
        bits = cache.get(key)
        if bits is None:
            node = compiled.node_of(target)
            bits = compiled.encode_within(self.column(node), bound)
            if self._on_cycle_within(node, bound):
                bits |= 1 << target
            cache.put(key, bits)
        return bits

    def _bits_cache_for_version(self) -> BoundedBitsCache:
        if self._bits_cache_version != self._graph.version:
            self._bits_lru.clear()
            self._bits_cache_version = self._graph.version
        return self._bits_lru

    def _on_cycle_within(self, node: NodeId, bound: Optional[int]) -> bool:
        """Whether *node* lies on a directed cycle of length <= *bound*."""
        limit = None if bound is None else bound - 1
        for successor in self._graph.successors(node):
            dist = self.distance(successor, node)
            if dist != INF and (limit is None or dist <= limit):
                return True
        return False

    # ------------------------------------------------------------------
    # raw access used by the incremental procedures
    # ------------------------------------------------------------------

    def row(self, source: NodeId) -> Dict[NodeId, int]:
        """The finite distances out of *source* (live dict — do not mutate)."""
        return self._rows.setdefault(source, {source: 0})

    def column(self, target: NodeId) -> Dict[NodeId, int]:
        """The finite distances into *target* (live dict — do not mutate).

        Materialised lazily on first access by scanning the rows — *not* by
        a graph BFS, so the answer is consistent with the matrix state even
        mid-repair, when the graph has already mutated but the matrix still
        holds the pre-update distances.  Once materialised, the column is
        kept in sync by :meth:`set_distance`.
        """
        column = self._columns.get(target)
        if column is None:
            column = {}
            for source, row in self._rows.items():
                dist = row.get(target)
                if dist is not None:
                    column[source] = dist
            self._columns[target] = column
        return column

    def materialized_columns(self) -> int:
        """How many columns have been materialised (for tests/diagnostics)."""
        return len(self._columns)

    def set_distance(self, source: NodeId, target: NodeId, value: float) -> None:
        """Set ``dist(source, target)``; :data:`INF` removes the entry."""
        if len(self._bits_lru):
            self._bits_lru.clear()
        # Direct matrix mutation can change shortest-cycle lengths without a
        # graph version bump, so the memoised self-loop distances go too.
        if self._self_loop_cache:
            self._self_loop_cache.clear()
        # Only a materialised column needs the write-through; an
        # unmaterialised one will pick the value up from the rows.
        column = self._columns.get(target)
        if value == INF:
            self._rows.get(source, {}).pop(target, None)
            if column is not None:
                column.pop(source, None)
            return
        self._rows.setdefault(source, {})[target] = int(value)
        if column is not None:
            column[source] = int(value)

    def ensure_node(self, node: NodeId) -> None:
        """Make sure *node* has (possibly empty) row/column entries."""
        self._rows.setdefault(node, {node: 0})
        column = self._columns.get(node)
        if column is not None:
            column.setdefault(node, 0)

    def finite_pairs(self) -> Iterator[Tuple[NodeId, NodeId, int]]:
        """Iterate over all finite ``(source, target, distance)`` triples."""
        for source, row in self._rows.items():
            for target, dist in row.items():
                yield source, target, dist

    def num_finite_pairs(self) -> int:
        """The number of finite entries (a proxy for memory use)."""
        return sum(len(row) for row in self._rows.values())

    def copy(self) -> "DistanceMatrix":
        """Return a deep copy sharing the same graph reference."""
        clone = object.__new__(DistanceMatrix)
        DistanceOracle.__init__(clone, self._graph, bits_cache_size=self._bits_lru.max_size)
        clone._rows = {source: dict(row) for source, row in self._rows.items()}
        clone._columns = {target: dict(col) for target, col in self._columns.items()}
        clone._graph_version = self._graph_version
        clone._bits_cache_version = self._bits_cache_version
        return clone

    def equals(self, other: "DistanceMatrix") -> bool:
        """Structural equality of the finite entries (used by tests)."""
        mine = {(s, t): d for s, t, d in self.finite_pairs()}
        theirs = {(s, t): d for s, t, d in other.finite_pairs()}
        return mine == theirs


class InternedDistanceStore:
    """The matrix ``M`` re-keyed by the interned ids of a compiled snapshot.

    The compiled incremental engine repairs distances in the dense integer id
    space of a pinned :class:`~repro.graph.compiled.CompiledGraph`: rows and
    columns are plain ``dict[int, int]`` (only finite entries, exactly like
    :class:`DistanceMatrix`), so the Ramalingam–Reps repair loops hash small
    integers instead of arbitrary node ids, and bounded-reachability answers
    come out as bitsets ready for ``&``/``bit_count()`` support counting.

    Build one with :func:`~repro.distance.incremental.build_store`, or
    re-key an up-to-date :class:`DistanceMatrix` with :meth:`from_matrix`.
    :attr:`version` stamps the snapshot version the distances reflect.
    """

    __slots__ = ("compiled", "rows", "cols", "version", "_bits_memo", "_memo_version")

    def __init__(self, compiled: "CompiledGraph") -> None:
        self.compiled = compiled
        n = compiled.num_nodes
        self.rows: list = [None] * n
        self.cols: list = [None] * n
        for i in range(n):
            self.rows[i] = {i: 0}
            self.cols[i] = {i: 0}
        self.version = compiled.version
        # Memoised reachability bitsets keyed by (index, bound, forward?);
        # valid between repairs.  Entries are pinned to the snapshot version
        # they were computed against: every edge patch bumps
        # ``compiled.version`` before the repair loop runs, so the read path
        # drops the memo on version skew even if a caller forgets
        # :meth:`clear_memo`.  Size-capped like every oracle memo.
        self._bits_memo = BoundedBitsCache()
        self._memo_version = compiled.version

    @classmethod
    def from_matrix(
        cls, matrix: DistanceMatrix, compiled: "CompiledGraph"
    ) -> "InternedDistanceStore":
        """Re-key the finite entries of *matrix* into *compiled*'s id space."""
        store = cls(compiled)
        id_of = compiled.id_of
        rows = store.rows
        cols = store.cols
        for source, target, dist in matrix.finite_pairs():
            i = id_of(source)
            j = id_of(target)
            rows[i][j] = dist
            cols[j][i] = dist
        return store

    def ensure_index(self, index: int) -> None:
        """Grow the store to cover a freshly interned *index*."""
        while len(self.rows) <= index:
            i = len(self.rows)
            self.rows.append({i: 0})
            self.cols.append({i: 0})

    def distance(self, source: int, target: int) -> float:
        """Finite distance or :data:`INF` (0 on the diagonal)."""
        return self.rows[source].get(target, INF)

    def set_distance(self, source: int, target: int, value: float) -> None:
        """Set ``dist(source, target)``; :data:`INF` removes the entry."""
        if value == INF:
            self.rows[source].pop(target, None)
            self.cols[target].pop(source, None)
        else:
            value = int(value)
            self.rows[source][target] = value
            self.cols[target][source] = value
        # Direct distance edits happen outside the patch protocol (no
        # version bump), so the memo must be dropped eagerly here.
        if len(self._bits_memo):
            self._bits_memo.clear()

    def clear_memo(self) -> None:
        """Drop the memoised reachability bitsets (call after repairs)."""
        if len(self._bits_memo):
            self._bits_memo.clear()
        self._memo_version = self.compiled.version

    def _memo_sync(self) -> None:
        """Invalidate the memo if the snapshot moved since it was filled."""
        if self._memo_version != self.compiled.version:
            if len(self._bits_memo):
                self._bits_memo.clear()
            self._memo_version = self.compiled.version

    # ------------------------------------------------------------------
    # bitset reachability (nonempty-path semantics, as the matching needs)
    # ------------------------------------------------------------------

    def _on_cycle_within(self, index: int, bound: Optional[int]) -> bool:
        """Whether *index* lies on a directed cycle of length <= *bound*."""
        limit = None if bound is None else bound - 1
        col = self.cols[index]
        for successor in self.compiled.successors_indices(index):
            if successor == index:
                return True
            dist = col.get(successor)
            if dist is not None and (limit is None or dist <= limit):
                return True
        return False

    def _encode_within(self, entries: Dict[int, int], bound: Optional[int]) -> int:
        bits = 0
        if bound is None:
            for j, dist in entries.items():
                if dist >= 1:
                    bits |= 1 << j
        else:
            for j, dist in entries.items():
                if 1 <= dist <= bound:
                    bits |= 1 << j
        return bits

    def descendants_within_bits(
        self, compiled: "CompiledGraph", source: int, bound: Optional[int]
    ) -> int:
        """Bitset of nodes reachable from *source* within *bound* (memoised).

        Takes the snapshot positionally to satisfy the
        :class:`~repro.distance.oracle.DistanceOracle` bitset signature, so
        the store can stand in as the oracle of
        :func:`~repro.matching.bounded.refine_bits_to_fixpoint`.
        """
        self._memo_sync()
        key = (source, bound, True)
        bits = self._bits_memo.get(key)
        if bits is None:
            bits = self._encode_within(self.rows[source], bound)
            if self._on_cycle_within(source, bound):
                bits |= 1 << source
            self._bits_memo.put(key, bits)
        return bits

    def ancestors_within_bits(
        self, compiled: "CompiledGraph", target: int, bound: Optional[int]
    ) -> int:
        """Bitset of nodes reaching *target* within *bound* (memoised)."""
        self._memo_sync()
        key = (target, bound, False)
        bits = self._bits_memo.get(key)
        if bits is None:
            bits = self._encode_within(self.cols[target], bound)
            if self._on_cycle_within(target, bound):
                bits |= 1 << target
            self._bits_memo.put(key, bits)
        return bits
