"""All-pairs distance matrix (the paper's matrix ``M``).

Algorithm ``Match`` (Fig. 4, line 1) precomputes the distance between every
pair of nodes so that each bounded-connectivity check is O(1).  The matrix is
computed with one BFS per node — ``O(|V| (|V| + |E|))`` for unweighted graphs,
matching the paper's analysis.

:class:`InternedDistanceStore` holds ``M`` keyed by the interned ids of a
compiled snapshot, densely: one flat ``bytearray`` of ``n x n`` one-byte
cells (255 = unreachable), so rows and columns are C-speed slices and
distances are limited to 254 hops.  It is what the incremental procedures
``UpdateM`` / ``UpdateBM`` (see :mod:`repro.distance.incremental`) repair in
place.  :class:`DistanceMatrix` is the node-id view over a store of its own,
the oracle the paper's Exp-2 compares as "matrix".
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional, Set, Tuple

from repro.exceptions import DistanceOracleError, DistanceOverflowError
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph, NodeId
from repro.distance.oracle import INF, DistanceOracle

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

    A node-id view over one :class:`InternedDistanceStore` that the view
    owns: :meth:`refresh` builds it with
    :func:`~repro.distance.incremental.build_store` (one BFS per node), so
    every query is a cell read through the snapshot's interning.  The store
    is never the snapshot's shared :meth:`~repro.graph.compiled.CompiledGraph.distance_store`,
    so an IncMatch repair cannot change the view's answers behind its back.

    Parameters
    ----------
    graph:
        The data graph.  The matrix snapshots the graph at construction time;
        call :meth:`refresh` after mutations.  Until then the answers are the
        ones of the snapshot, and a node added since answers :data:`INF` (or
        an empty ball).

    Raises
    ------
    DistanceOverflowError
        When some shortest path is longer than :data:`MAX_STORED_DISTANCE`
        hops, the store's cell limit.
    """

    def __init__(self, graph: DataGraph) -> None:
        super().__init__(graph)
        self.refresh()

    def refresh(self) -> None:
        """Rebuild the store from the current graph (one BFS per node)."""
        from repro.distance.incremental import build_store

        # Self-loop memos taken between a mutation and this refresh were
        # computed from the stale store (possibly under the current version).
        self._self_loop_cache.clear()
        self._self_loop_version = self._graph.version
        self._store = build_store(compile_graph(self._graph))

    @property
    def in_sync(self) -> bool:
        """``True`` when the matrix was built for the graph's current version."""
        return self._store.version == self._graph.version

    def _index(self, node: NodeId) -> Optional[int]:
        """The store index of *node*, or ``None`` when the build predates it."""
        compiled = self._store.compiled
        if node not in compiled:
            return None
        index = compiled.id_of(node)
        return index if index < self._store.num_nodes else None

    # ------------------------------------------------------------------
    # DistanceOracle interface
    # ------------------------------------------------------------------

    def distance(self, source: NodeId, target: NodeId) -> float:
        """O(1) shortest-path distance lookup."""
        i = self._index(source)
        if i is None:
            if not self._graph.has_node(source):
                raise DistanceOracleError(f"unknown node {source!r}")
            return INF if source != target else 0
        j = self._index(target)
        if j is None:
            return INF
        return self._store.distance(i, j)

    def descendants_within(self, source: NodeId, bound: Optional[int]) -> Set[NodeId]:
        index = self._index(source)
        if index is None:
            return set()
        store = self._store
        return store.compiled.decode(store.descendants_within_bits(store.compiled, index, bound))

    def ancestors_within(self, target: NodeId, bound: Optional[int]) -> Set[NodeId]:
        index = self._index(target)
        if index is None:
            return set()
        store = self._store
        return store.compiled.decode(store.ancestors_within_bits(store.compiled, index, bound))

    def descendants_within_bits(
        self, compiled: "CompiledGraph", source: int, bound: Optional[int]
    ) -> int:
        store = self._store
        if compiled is not store.compiled:
            # Another snapshot's interning may differ from the store's:
            # answer through the node ids, in that snapshot's id space.
            return super().descendants_within_bits(compiled, source, bound)
        if source >= store.num_nodes:
            return 0
        return store.descendants_within_bits(compiled, source, bound)

    def ancestors_within_bits(
        self, compiled: "CompiledGraph", target: int, bound: Optional[int]
    ) -> int:
        store = self._store
        if compiled is not store.compiled:
            return super().ancestors_within_bits(compiled, target, bound)
        if target >= store.num_nodes:
            return 0
        return store.ancestors_within_bits(compiled, target, bound)

    def finite_pairs(self) -> Iterator[Tuple[NodeId, NodeId, int]]:
        """Iterate over all finite ``(source, target, distance)`` triples."""
        node_of = self._store.compiled.node_of
        for source, target, dist in self._store.finite_pairs():
            yield node_of(source), node_of(target), dist

    def num_finite_pairs(self) -> int:
        """The number of finite entries."""
        flat = self._store.flat
        return len(flat) - flat.count(INF_CELL)


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


def _bits_within(cells: bytearray, bound: Optional[int]) -> int:
    """Bitset of the positions whose cell satisfies ``1 <= cell <= bound``.

    One C-level translate to an ASCII ``0``/``1`` string, reversed so that
    position 0 is the least significant bit, then one linear base-2 parse.
    """
    if bound is None or bound > MAX_STORED_DISTANCE:
        bound = MAX_STORED_DISTANCE
    return int(cells.translate(_within_table(max(bound, 0)))[::-1], 2)


class InternedDistanceStore:
    """The matrix ``M`` keyed by the interned ids of a compiled snapshot.

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
        if bound is not None and bound < 1:
            return False
        limit = MAX_STORED_DISTANCE if bound is None else min(bound - 1, MAX_STORED_DISTANCE)
        n = self.num_nodes
        flat = self.flat
        # A successor interned after the last growth has no cells yet.
        for successor in self.compiled.successors_indices(index):
            if successor < n and flat[successor * n + index] <= limit:
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
        bits = _bits_within(self.row(source), bound)
        if self._on_cycle_within(source, bound):
            bits |= 1 << source
        return bits

    def ancestors_within_bits(
        self, compiled: "CompiledGraph", target: int, bound: Optional[int]
    ) -> int:
        """Bitset of nodes reaching *target* within *bound*."""
        bits = _bits_within(self.column(target), bound)
        if self._on_cycle_within(target, bound):
            bits |= 1 << target
        return bits
