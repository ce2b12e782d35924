"""Incremental maintenance of the all-pairs distance matrix ``M``.

Section 4 of the paper relies on two procedures:

* ``UpdateM``  — repair the distance matrix ``M`` after a *single* edge
  insertion or deletion, returning the set ``AFF1`` of node pairs whose
  distance changed (Ramalingam & Reps 1996, per-sink repair);
* ``UpdateBM`` — the batch counterpart for a list ``δ`` of updates (an
  extension of the SWSF-FP algorithm of Ramalingam & Reps).

Both run on the compiled substrate of the incremental matcher: the
distances live in an :class:`~repro.distance.matrix.InternedDistanceStore`
— one flat ``bytearray`` of ``n x n`` one-byte cells indexed by the dense
integer ids of a pinned :class:`~repro.graph.compiled.CompiledGraph` (built
by :func:`build_store`) — adjacency comes from the snapshot's CSR arrays
(plus its patch overlay), and each edge update mutates the graph and
*patches* the snapshot instead of forcing a recompile.  The repair loops
read rows and columns as C-level slices of the cells and write repaired
cells in place.  A cell holds at most 254 hops: a build or repair that
would need a longer distance raises
:class:`~repro.exceptions.DistanceOverflowError` and leaves no store that
looks current.  Each call returns a mapping

    ``{(source, sink): (old_distance, new_distance)}``

over interned ids — exactly the paper's ``AFF1``, decoded at the
:class:`~repro.matching.affected.AffectedArea` boundary.  Distances use
:data:`repro.distance.oracle.INF` for "unreachable".  Each repair stamps the
store with the snapshot version it reached (see
:meth:`~repro.graph.compiled.CompiledGraph.distance_store`).

The deletion repair is the standard two-phase affected-only procedure: the
first phase identifies, per affected sink, the sources whose *every* old
shortest path used the deleted edge; the second phase re-settles exactly
those sources in order of distance, seeded from unaffected neighbours; as
every edge weighs one hop, the priority queue is one bucket per distance
(Dial's queue) rather than a heap.  The insertion repair uses the classic
``d(x, y) <- min(d(x, y), d(x, s) + 1 + d(t, y))`` relaxation with the
two-sided Ramalingam–Reps restriction: only sinks whose distance from the
edge tail improves (``d(t, y) + 1 < d(s, y)``) and only sources whose
distance to the edge head improves (``d(x, s) + 1 < d(x, t)``) are relaxed —
a pure pruning, since skipped pairs provably cannot improve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set, Tuple

from repro.exceptions import DistanceOracleError, DistanceOverflowError
from repro.graph.datagraph import DataGraph, NodeId
from repro.distance.matrix import INF_CELL, MAX_STORED_DISTANCE, InternedDistanceStore
from repro.distance.oracle import INF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.compiled import CompiledGraph

__all__ = [
    "EdgeUpdate",
    "AffectedPairs",
    "build_store",
    "update_store_insert",
    "update_store_delete",
    "update_store_batch",
    "merge_affected_into",
    "apply_updates",
]

#: ``AFF1``: node pairs mapped to their (old, new) distances.
AffectedPairs = Dict[Tuple[NodeId, NodeId], Tuple[float, float]]

#: ``AFF1`` over the interned ids of a compiled snapshot.
InternedAffectedPairs = Dict[Tuple[int, int], Tuple[float, float]]


@dataclass(frozen=True)
class EdgeUpdate:
    """A single edge insertion or deletion in an update stream ``δ``."""

    kind: str  #: either ``"insert"`` or ``"delete"``
    source: NodeId
    target: NodeId

    INSERT = "insert"
    DELETE = "delete"

    def __post_init__(self) -> None:
        if self.kind not in (self.INSERT, self.DELETE):
            raise ValueError(f"kind must be 'insert' or 'delete', got {self.kind!r}")

    @classmethod
    def insert(cls, source: NodeId, target: NodeId) -> "EdgeUpdate":
        """Build an insertion update."""
        return cls(cls.INSERT, source, target)

    @classmethod
    def delete(cls, source: NodeId, target: NodeId) -> "EdgeUpdate":
        """Build a deletion update."""
        return cls(cls.DELETE, source, target)

    @property
    def is_insert(self) -> bool:
        """``True`` for insertions."""
        return self.kind == self.INSERT

    @property
    def is_delete(self) -> bool:
        """``True`` for deletions."""
        return self.kind == self.DELETE

    def inverse(self) -> "EdgeUpdate":
        """The update that undoes this one."""
        kind = self.DELETE if self.is_insert else self.INSERT
        return EdgeUpdate(kind, self.source, self.target)


# ----------------------------------------------------------------------
# full-M build on the compiled substrate (the IncMatch handoff)
# ----------------------------------------------------------------------

def build_store(compiled: "CompiledGraph") -> InternedDistanceStore:
    """Build a fully populated :class:`InternedDistanceStore` from *compiled*.

    The ``update_store_*`` repair procedures need a complete matrix ``M`` to
    start from.  This runs one BFS per node over the snapshot's
    tuple-decoded adjacency (patch overlay included); each row is a
    ``bytearray`` that doubles as the visited set and is copied into the
    store's cells in one slice assignment.  It is also what
    :meth:`~repro.distance.matrix.DistanceMatrix.refresh` runs.

    Raises :class:`~repro.exceptions.DistanceOverflowError` when some
    shortest path is longer than :data:`MAX_STORED_DISTANCE` hops, so no
    caller ever adopts a store holding a truncated distance.
    """
    store = InternedDistanceStore(compiled)
    adjacency = compiled.flat_kernel().adjacency_tuples()
    n = store.num_nodes
    flat = store.flat
    blank = b"\xff" * n
    for i in range(n):
        row = bytearray(blank)
        row[i] = 0
        frontier = [i]
        depth = 0
        while frontier:
            if depth == MAX_STORED_DISTANCE:
                if any(row[j] == INF_CELL for u in frontier for j in adjacency[u]):
                    raise DistanceOverflowError(
                        f"node {compiled.node_of(i)!r} has a shortest path longer "
                        f"than {MAX_STORED_DISTANCE} hops"
                    )
                break
            depth += 1
            next_frontier: List[int] = []
            append = next_frontier.append
            for u in frontier:
                for j in adjacency[u]:
                    if row[j] == INF_CELL:
                        row[j] = depth
                        append(j)
            frontier = next_frontier
        flat[i * n : (i + 1) * n] = row
    return store


# ----------------------------------------------------------------------
# AFF1 netting
# ----------------------------------------------------------------------

def merge_affected_into(net: AffectedPairs, step: AffectedPairs) -> AffectedPairs:
    """Compose two AFF1 mappings applied in sequence: fold *step* into *net*.

    *net* is updated in place and returned.  The old distance comes from the
    earliest record, the new distance from the latest; pairs whose merged
    net change is ``old == new`` — e.g. an edge deleted and re-inserted
    within one batch — drop out, so the result never reports a pair whose
    distance is back where it started (such entries would inflate
    ``|AFF1|`` and schedule useless recheck work in both match-propagation
    phases).
    """
    for pair, (old, new) in step.items():
        current = net.get(pair)
        if current is None:
            if old != new:
                net[pair] = (old, new)
        elif current[0] == new:
            del net[pair]
        else:
            net[pair] = (current[0], new)
    return net


# ----------------------------------------------------------------------
# Compiled UpdateM / UpdateBM — interned-id store + patched CSR snapshot
# ----------------------------------------------------------------------

def _store_graph(store: InternedDistanceStore) -> DataGraph:
    graph = store.compiled.graph
    if graph is None:
        raise DistanceOracleError(
            "the data graph behind the compiled snapshot has been collected"
        )
    return graph


def _store_index(store: InternedDistanceStore, node: NodeId, other: NodeId) -> int:
    try:
        return store.compiled.id_of(node)
    except Exception:
        raise DistanceOracleError(
            f"cannot update edge ({node!r}, {other!r}): unknown endpoint"
        ) from None


def _stamp_repaired(store: InternedDistanceStore, version_before: int) -> None:
    """Advance *store*'s stamp if it was current before this repair.

    A store that already missed a patch stays stale, so it gets rebuilt.
    """
    if store.version == version_before:
        store.version = store.compiled.version


def update_store_insert(
    store: InternedDistanceStore, source: NodeId, target: NodeId
) -> InternedAffectedPairs:
    """Compiled ``UpdateM`` insertion: mutate the graph, patch the snapshot,
    repair *store*.

    Returns ``AFF1`` over interned ids (decode with
    ``store.compiled.node_of``).  Inserting an existing edge is a true no-op:
    the graph, the snapshot and the store are left untouched and an empty
    mapping is returned.
    """
    graph = _store_graph(store)
    si = _store_index(store, source, target)
    ti = _store_index(store, target, source)
    compiled = store.compiled
    if compiled.has_edge_indices(si, ti):
        return {}
    version_before = compiled.version
    graph.add_edge(source, target)
    compiled.patch_edge_insert(source, target)
    affected = _relax_store_insert(store, si, ti)
    _stamp_repaired(store, version_before)
    return affected


def _relax_store_insert(
    store: InternedDistanceStore, si: int, ti: int
) -> InternedAffectedPairs:
    """The insertion relaxation over the store's rows and columns.

    Every new shortest path decomposes as ``x ->* si -> ti ->* y``; a pair
    can only improve when *both* endpoints improve against the inserted
    edge's endpoints (the two-sided restriction — see the module docstring),
    so the relaxation touches ``|improved ancestors| x |improved sinks|``
    pairs instead of ``|ancestors| x |improved sinks|``.  An unreachable
    cell (:data:`INF_CELL`) improves on any finite candidate; a candidate
    longer than :data:`MAX_STORED_DISTANCE` raises
    :class:`~repro.exceptions.DistanceOverflowError`.
    """
    n = store.num_nodes
    flat = store.flat
    affected: InternedAffectedPairs = {}
    # ``d + 1 < old`` with INF_CELL read as infinity: ``old == INF_CELL``
    # admits every finite ``d``, including 254 (whose 255 then overflows).
    sinks = [
        (y, dist_from_target + 1)
        for y, (dist_from_target, old) in enumerate(zip(store.row(ti), store.row(si)))
        if dist_from_target + 1 < old or old == INF_CELL != dist_from_target
    ]
    if not sinks:
        return affected
    sources = [
        (x * n, x, dist_to_source)
        for x, (dist_to_source, old) in enumerate(zip(store.column(si), store.column(ti)))
        if dist_to_source + 1 < old or old == INF_CELL != dist_to_source
    ]
    if not sources:
        return affected
    for y, base in sinks:
        for offset, x, dist_to_source in sources:
            candidate = dist_to_source + base
            old = flat[offset + y]
            if candidate < old or old == INF_CELL:
                if candidate > MAX_STORED_DISTANCE:
                    raise DistanceOverflowError(
                        f"inserted edge makes a shortest path of {candidate} hops"
                    )
                affected[(x, y)] = (INF if old == INF_CELL else old, candidate)
                flat[offset + y] = candidate
    return affected


def update_store_delete(
    store: InternedDistanceStore, source: NodeId, target: NodeId
) -> InternedAffectedPairs:
    """Compiled ``UpdateM`` deletion: mutate the graph, patch the snapshot,
    repair *store*.

    Returns ``AFF1`` over interned ids.  Deleting a missing edge is a true
    no-op (graph, snapshot and store untouched; empty mapping returned).
    """
    graph = _store_graph(store)
    si = _store_index(store, source, target)
    ti = _store_index(store, target, source)
    compiled = store.compiled
    if not compiled.has_edge_indices(si, ti):
        return {}
    version_before = compiled.version
    graph.remove_edge(source, target)
    compiled.patch_edge_delete(source, target)

    affected: InternedAffectedPairs = {}
    n = store.num_nodes
    flat = store.flat
    row_s = store.row(si)
    # Sinks whose old shortest path from the tail may have used the edge;
    # the chained ``< INF_CELL`` keeps unreachable sinks out.
    candidate_sinks = [
        y
        for y, (dist_from_target, tail_old) in enumerate(zip(store.row(ti), row_s))
        if tail_old == dist_from_target + 1 < INF_CELL
    ]
    adjacency = compiled.adjacency_arrays()
    # The support scan of the edge tail is the hot early exit of the repair
    # (most candidate sinks keep their distances); its successor list is the
    # same for every sink, so resolve it once.
    fwd_offsets, fwd_targets, patched_fwd = adjacency[0], adjacency[1], adjacency[2]
    tail_successors = patched_fwd.get(si)
    if tail_successors is None:
        tail_successors = fwd_targets[fwd_offsets[si] : fwd_offsets[si + 1]]
    tail_offsets = [j * n for j in tail_successors]
    for sink in candidate_sinks:
        if sink == si:
            continue
        tail_old = row_s[sink]
        for offset in tail_offsets:
            if flat[offset + sink] < tail_old:  # dist + 1 <= tail_old
                break  # an unaffected successor still certifies
        else:
            _repair_store_sink(store, adjacency, sink, si, tail_old, affected)
    _stamp_repaired(store, version_before)
    return affected


def _repair_store_sink(
    store: InternedDistanceStore,
    adjacency: Tuple,
    sink: int,
    edge_tail: int,
    tail_old: int,
    affected: InternedAffectedPairs,
) -> None:
    """Two-phase per-sink deletion repair over interned ids and CSR adjacency.

    Phase 1 collects the sources whose *every* old shortest path to *sink*
    used the deleted edge (exactly the sources whose distance changes);
    phase 2 re-settles them from unaffected neighbours in order of distance,
    from one bucket per distance (Dial's queue: every edge weighs one hop).
    Only affected entries and their immediate frontier are touched — the
    Ramalingam–Reps bounded behaviour.  Neighbours come
    straight from the snapshot's CSR slices (or its patch overlay) and
    distances from a copy of *sink*'s column, which holds the pre-deletion
    distances; repaired cells are written to the store directly.  The caller
    has already established that *edge_tail* (at old distance *tail_old*)
    lost its support.  A re-settled distance longer than
    :data:`MAX_STORED_DISTANCE` raises
    :class:`~repro.exceptions.DistanceOverflowError`.
    """
    n = store.num_nodes
    flat = store.flat
    col = store.column(sink)
    fwd_offsets, fwd_targets, patched_fwd, rev_offsets, rev_targets, patched_rev = adjacency

    # ---- Phase 1: grow the affected set outwards from the edge tail ----
    affected_sources = {edge_tail}
    worklist: List[int] = [edge_tail]
    index = 0
    while index < len(worklist):
        node = worklist[index]
        index += 1
        pred_dist = col[node] + 1
        predecessors = patched_rev.get(node)
        if predecessors is None:
            predecessors = rev_targets[rev_offsets[node] : rev_offsets[node + 1]]
        for pred in predecessors:
            if pred in affected_sources or pred == sink:
                continue
            # Only predecessors whose shortest path went through `node` can
            # become unsupported.
            if col[pred] != pred_dist:
                continue
            successors = patched_fwd.get(pred)
            if successors is None:
                successors = fwd_targets[fwd_offsets[pred] : fwd_offsets[pred + 1]]
            unsupported = True
            for j in successors:
                if j not in affected_sources and col[j] < pred_dist:  # dist + 1 <= pred old
                    unsupported = False
                    break
            if unsupported:
                affected_sources.add(pred)
                worklist.append(pred)

    # ---- Phase 2: re-settle affected sources, one distance at a time ---
    # Edges weigh one hop, so the priority queue is one bucket per
    # distance (Dial's): settling a node at distance d offers its affected
    # predecessors d + 1, and a node is settled by the first bucket that
    # holds it (later entries for it are stale and skipped).
    buckets: Dict[int, List[int]] = {}
    for node in affected_sources:
        best = INF_CELL + 1
        successors = patched_fwd.get(node)
        if successors is None:
            successors = fwd_targets[fwd_offsets[node] : fwd_offsets[node + 1]]
        for j in successors:
            if j not in affected_sources and col[j] + 1 < best:
                best = col[j] + 1
        if best <= INF_CELL:
            buckets.setdefault(best, []).append(node)

    settled: Set[int] = set()
    dist = min(buckets, default=0)
    while buckets:
        for node in buckets.pop(dist, ()):
            if node in settled:
                continue
            settled.add(node)
            old_value = col[node]
            if dist != old_value:
                if dist > MAX_STORED_DISTANCE:
                    raise DistanceOverflowError(
                        f"deleted edge stretches a shortest path to {dist} hops"
                    )
                affected[(node, sink)] = (old_value, dist)
                flat[node * n + sink] = dist
            predecessors = patched_rev.get(node)
            if predecessors is None:
                predecessors = rev_targets[rev_offsets[node] : rev_offsets[node + 1]]
            for pred in predecessors:
                if pred in affected_sources and pred not in settled:
                    buckets.setdefault(dist + 1, []).append(pred)
        dist += 1

    if len(settled) != len(affected_sources):
        for node in affected_sources:
            if node not in settled:
                affected[(node, sink)] = (col[node], INF)
                flat[node * n + sink] = INF_CELL


def update_store_batch(
    store: InternedDistanceStore, updates: Sequence[EdgeUpdate]
) -> InternedAffectedPairs:
    """Compiled ``UpdateBM``: apply ``δ`` through the store, netting ``AFF1``.

    The graph is mutated and the snapshot patched update by update (no-op
    updates — deleting a missing edge, inserting an existing one — touch
    nothing).  The returned ``AFF1`` maps each pair whose distance differs
    between the state before the first update and the state after the last
    one to its (old, new) distances; pairs whose distance changes
    transiently but ends up unchanged are *not* reported, matching the
    semantics ``IncMatch`` needs.
    """
    net: InternedAffectedPairs = {}
    for update in updates:
        if update.is_insert:
            step = update_store_insert(store, update.source, update.target)
        else:
            step = update_store_delete(store, update.source, update.target)
        merge_affected_into(net, step)
    return net


def apply_updates(graph: DataGraph, updates: Iterable[EdgeUpdate]) -> None:
    """Apply *updates* to *graph* without touching any distance structure.

    Useful for building the "after" graph that batch recomputation baselines
    (and tests) compare against.
    """
    for update in updates:
        if update.is_insert:
            graph.add_edge(update.source, update.target, create_nodes=True, strict=False)
        else:
            graph.remove_edge(update.source, update.target, strict=False)
