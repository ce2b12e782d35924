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
ids of a compiled snapshot, densely: one flat ``bytearray`` of ``n x n``
one-byte cells (255 = unreachable), so rows and columns are C-speed slices
and distances are limited to 254 hops.  It is what the incremental
procedures ``UpdateM`` / ``UpdateBM`` (see :mod:`repro.distance.incremental`)
repair in place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple

from repro.exceptions import DistanceOracleError, DistanceOverflowError
from repro.graph.datagraph import DataGraph, NodeId
from repro.distance.oracle import (
    DEFAULT_BITS_CACHE_SIZE,
    INF,
    BoundedBitsCache,
    DistanceOracle,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.compiled import CompiledGraph

__all__ = [
    "DistanceMatrix",
    "InternedDistanceStore",
    "INF_CELL",
    "MAX_STORED_DISTANCE",
]


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




#: Cell value of an unreachable pair in :class:`InternedDistanceStore`.
INF_CELL = 255

#: The longest distance a store cell holds; a longer shortest path raises
#: :class:`~repro.exceptions.DistanceOverflowError` instead of being stored.
MAX_STORED_DISTANCE = 254


def _to_cell(value: float) -> int:
    """The byte encoding of a distance (``INF`` -> :data:`INF_CELL`)."""
    if value == INF:
        return INF_CELL
    if value > MAX_STORED_DISTANCE:
        raise DistanceOverflowError(
            f"distance {value} exceeds the store's {MAX_STORED_DISTANCE}-hop limit"
        )
    return int(value)


def _blank_cells(n: int) -> bytearray:
    """An ``n x n`` cell array: every pair unreachable except the 0 diagonal."""
    cells = bytearray(b"\xff") * (n * n)
    cells[:: n + 1] = bytes(n)
    return cells


@lru_cache(maxsize=None)
def _within_table(bound: int) -> bytes:
    """``bytes.translate`` table: a cell becomes ``b"1"`` iff ``1 <= cell <= bound``."""
    return bytes(49 if 1 <= cell <= bound else 48 for cell in range(256))


def _encode_within(cells: bytearray, bound: Optional[int]) -> int:
    """Bitset of the positions whose cell satisfies ``1 <= cell <= bound``.

    One C-level translate to an ASCII ``0``/``1`` string, reversed so that
    position 0 is the least significant bit, then one linear base-2 parse.
    """
    if bound is None or bound > MAX_STORED_DISTANCE:
        bound = MAX_STORED_DISTANCE
    return int(cells.translate(_within_table(max(bound, 0)))[::-1], 2)


class InternedDistanceStore:
    """The matrix ``M`` re-keyed by the interned ids of a compiled snapshot.

    The compiled incremental engine repairs distances in the dense integer id
    space of a pinned :class:`~repro.graph.compiled.CompiledGraph`.  ``M`` is
    one flat ``bytearray`` of ``n x n`` cells, row-major with stride ``n``:
    ``dist(x, y)`` is ``flat[x * n + y]``, :data:`INF_CELL` (255) means
    unreachable and the diagonal is 0.  A row is the contiguous slice
    ``flat[x * n:(x + 1) * n]`` and a column the strided slice
    ``flat[y::n]``; both are C-speed copies, so no second (column-major)
    layout is kept.  One byte per pair is what lets Exp-3 keep ``M`` for the
    whole graph, and bounded-reachability answers come out of a row or
    column with one ``bytes.translate`` as bitsets ready for
    ``&``/``bit_count()`` support counting.

    Distances above :data:`MAX_STORED_DISTANCE` (254 hops) do not fit a cell:
    building or repairing a store that would need one raises
    :class:`~repro.exceptions.DistanceOverflowError` instead.

    Build one with :func:`~repro.distance.incremental.build_store`, or
    re-key an up-to-date :class:`DistanceMatrix` with :meth:`from_matrix`.
    :attr:`version` stamps the snapshot version the distances reflect.
    """

    __slots__ = ("compiled", "num_nodes", "flat", "version")

    def __init__(self, compiled: "CompiledGraph") -> None:
        self.compiled = compiled
        self.num_nodes = compiled.num_nodes
        self.flat = _blank_cells(self.num_nodes)
        self.version = compiled.version

    @classmethod
    def from_matrix(
        cls, matrix: DistanceMatrix, compiled: "CompiledGraph"
    ) -> "InternedDistanceStore":
        """Re-key the finite entries of *matrix* into *compiled*'s id space."""
        store = cls(compiled)
        id_of = compiled.id_of
        n = store.num_nodes
        flat = store.flat
        for source, target, dist in matrix.finite_pairs():
            flat[id_of(source) * n + id_of(target)] = _to_cell(dist)
        return store

    def ensure_index(self, index: int) -> None:
        """Grow the store to cover every index up to *index*.

        The cells are re-laid once for the whole growth, so a batch of
        interned nodes costs one copy of ``M``; new nodes start isolated.
        """
        old = self.num_nodes
        if index < old:
            return
        n = index + 1
        flat = _blank_cells(n)
        src = self.flat
        for x in range(old):
            flat[x * n : x * n + old] = src[x * old : (x + 1) * old]
        self.flat = flat
        self.num_nodes = n

    def distance(self, source: int, target: int) -> float:
        """Finite distance or :data:`INF` (0 on the diagonal)."""
        cell = self.flat[source * self.num_nodes + target]
        return INF if cell == INF_CELL else cell

    def set_distance(self, source: int, target: int, value: float) -> None:
        """Set ``dist(source, target)``; :data:`INF` marks the pair unreachable."""
        self.flat[source * self.num_nodes + target] = _to_cell(value)

    def row(self, source: int) -> bytearray:
        """A copy of the cells ``dist(source, *)``."""
        n = self.num_nodes
        return self.flat[source * n : (source + 1) * n]

    def column(self, target: int) -> bytearray:
        """A copy of the cells ``dist(*, target)``."""
        return self.flat[target :: self.num_nodes]

    def finite_pairs(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over all finite ``(source, target, distance)`` triples."""
        for source in range(self.num_nodes):
            for target, cell in enumerate(self.row(source)):
                if cell != INF_CELL:
                    yield source, target, cell

    # ------------------------------------------------------------------
    # bitset reachability (nonempty-path semantics, as the matching needs)
    # ------------------------------------------------------------------

    def _on_cycle_within(self, index: int, bound: Optional[int]) -> bool:
        """Whether *index* lies on a directed cycle of length <= *bound*."""
        limit = MAX_STORED_DISTANCE if bound is None else min(bound - 1, MAX_STORED_DISTANCE)
        n = self.num_nodes
        flat = self.flat
        for successor in self.compiled.successors_indices(index):
            if successor == index or flat[successor * n + index] <= limit:
                return True
        return False

    def descendants_within_bits(
        self, compiled: "CompiledGraph", source: int, bound: Optional[int]
    ) -> int:
        """Bitset of nodes reachable from *source* within *bound*.

        Takes the snapshot positionally to satisfy the
        :class:`~repro.distance.oracle.DistanceOracle` bitset signature, so
        the store can stand in as the oracle of
        :func:`~repro.matching.bounded.refine_bits_to_fixpoint`.
        """
        bits = _encode_within(self.row(source), bound)
        if self._on_cycle_within(source, bound):
            bits |= 1 << source
        return bits

    def ancestors_within_bits(
        self, compiled: "CompiledGraph", target: int, bound: Optional[int]
    ) -> int:
        """Bitset of nodes reaching *target* within *bound*."""
        bits = _encode_within(self.column(target), bound)
        if self._on_cycle_within(target, bound):
            bits |= 1 << target
        return bits
