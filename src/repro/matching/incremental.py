"""Incremental bounded-simulation matching (Section 4).

:class:`IncrementalMatcher` maintains, for a fixed pattern ``P`` and an
evolving data graph ``G``:

* the distance matrix ``M`` as an
  :class:`~repro.distance.matrix.InternedDistanceStore` (repaired by
  ``UpdateM`` / ``UpdateBM`` from :mod:`repro.distance.incremental`) — the
  one store of the pinned snapshot, shared with every other matcher on it;
* the per-pattern-node match sets ``mat(u)`` (the greatest bounded-simulation
  fixpoint) and candidate sets ``can(u)`` (nodes satisfying the predicate of
  ``u`` that currently do not match it);
* the exposed maximum match ``S`` (empty when some ``mat(u)`` is empty).

Three operations mirror the paper's algorithms:

* :meth:`delete_edge`  — ``Match⁻`` (Fig. 5), valid for arbitrary patterns;
* :meth:`insert_edge`  — ``Match⁺`` (Fig. 7), requires a DAG pattern;
* :meth:`apply`        — ``IncMatch`` (Fig. 8) for a batch ``δ`` of updates,
  requires a DAG pattern when ``δ`` contains insertions.

Each operation returns an :class:`~repro.matching.affected.AffectedArea`
recording ``AFF1`` (distance changes) and the match pairs added/removed
(``AFF2``), which is what the incremental experiments of Fig. 6(i)–(k)
report.

Why insertions need DAG patterns
--------------------------------
Deletions only shrink the match, and removal propagation from the affected
pairs reaches the new greatest fixpoint for *any* pattern.  Insertions only
grow the match, but with a cyclic pattern two additions can be mutually
dependent (each is valid only if the other is made), which bottom-up
worklist propagation cannot discover; the paper leaves cyclic patterns open
and so do we — a :class:`~repro.exceptions.CyclicPatternError` is raised,
before the update touches the graph, unless ``on_cyclic="recompute"`` asks
for a full recomputation fallback.

The compiled core
-----------------
The matcher pins a :class:`~repro.graph.compiled.CompiledGraph` snapshot of
the data graph, keeps ``mat(u)``/``can(u)`` as Python-int bitsets over the
snapshot's interned id space, repairs distances in the interned store with
the compiled ``UpdateM``/``UpdateBM`` procedures (CSR adjacency; each
repair pays per changed distance), and propagates match changes with
bitset support checks (one ``&`` per check).  The sets are seeded, and
rebuilt at a re-pin, by the set-at-a-time refinement
(:func:`~repro.matching.bounded.refine_sets_to_fixpoint`, run past empty
sets to every set's greatest fixpoint), not by counting over the store.
Match pairs are decoded to original node ids at the :class:`AffectedArea`
boundary; its ``AFF1`` stays interned until
:attr:`AffectedArea.distance_changes` is read, and the
:class:`MatchResult` of :attr:`IncrementalMatcher.match` decodes only when
it is read (see :meth:`MatchResult.from_bits`).

Staleness and re-interning rules:

* every edge update applied *through the matcher* patches the pinned
  snapshot in place (:meth:`CompiledGraph.patch_edge_insert` /
  ``patch_edge_delete``) and re-synchronises its version with the graph, so
  an update stream never triggers a full recompile — and batch
  :func:`~repro.matching.bounded.match` calls against the same graph reuse
  the patched snapshot through the :func:`~repro.graph.compiled.compile_graph`
  cache;
* nodes added to the graph *between* matcher operations are interned into
  the cached snapshot by :func:`~repro.graph.compiled.compile_graph` at the
  next operation of any matcher: they get fresh dense indices appended at
  the end, so all existing bitsets remain valid (``intern_node``), and the
  snapshot's current distance store grows to cover them.  A matcher whose
  only missed changes are such additions adds the fresh nodes to its match
  sets in place;
* any other change (another matcher's updates, edges changed behind the
  matcher's back, attribute updates) is detected through the graph's
  version counter and answered with a re-pin at the next operation: the
  current snapshot from the compile cache, its shared distance store and a
  fresh set-at-a-time fixpoint.  After another matcher's batch the store
  is the one that matcher repaired, so nothing is rebuilt; only a store
  that is missing (a recompiled snapshot) or stale (e.g. after
  ``MatchSession.patch_edge_*``) is rebuilt with
  :func:`~repro.distance.incremental.build_store`.  Such changes are
  repaired but not reported: ``AffectedArea``\\ s only cover updates
  applied through the matcher.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.distance.incremental import (
    EdgeUpdate,
    InternedAffectedPairs,
    merge_affected_into,
    update_store_delete,
    update_store_insert,
)
from repro.exceptions import CyclicPatternError, IncrementalError
from repro.graph.compiled import CompiledGraph, compile_graph, iter_bits
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId
from repro.matching.affected import AffectedArea
from repro.matching.bounded import candidate_bits, refine_sets_to_fixpoint
from repro.matching.match_result import MatchResult

__all__ = ["IncrementalMatcher"]


class IncrementalMatcher:
    """Maintains the maximum bounded-simulation match under edge updates.

    Parameters
    ----------
    pattern, graph:
        The pattern and the (mutable) data graph.  The matcher takes
        ownership of keeping the graph, the distance store and the match in
        sync: apply updates through the matcher, not directly on the graph.
    on_cyclic:
        Behaviour when an insertion is applied with a cyclic pattern:
        ``"raise"`` (default) raises :class:`CyclicPatternError`;
        ``"recompute"`` falls back to recomputing the match from scratch
        (using the incrementally maintained distance store).
    """

    def __init__(
        self,
        pattern: Pattern,
        graph: DataGraph,
        *,
        on_cyclic: str = "raise",
    ) -> None:
        if on_cyclic not in ("raise", "recompute"):
            raise IncrementalError(
                f"on_cyclic must be 'raise' or 'recompute', got {on_cyclic!r}"
            )
        self.pattern = pattern
        self.graph = graph
        self.on_cyclic = on_cyclic
        self._pattern_is_dag = pattern.is_dag()
        self._pin_snapshot()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def match(self) -> MatchResult:
        """The current maximum match ``S`` (empty when some ``mat(u)`` is empty).

        A lazy :class:`MatchResult` over a copy of the match bitsets: later
        updates do not change it.
        """
        return MatchResult.from_bits(
            self._mat_bits, self._compiled, self.pattern.node_list()
        )

    def mat(self, pattern_node: PatternNodeId) -> Set[NodeId]:
        """The current ``mat(u)`` set (a copy)."""
        return self._compiled.decode(self._mat_bits[pattern_node])

    def can(self, pattern_node: PatternNodeId) -> Set[NodeId]:
        """The current ``can(u)`` set (predicate-satisfying non-matches, a copy)."""
        return self._compiled.decode(self._can_bits[pattern_node])

    # ------------------------------------------------------------------
    # snapshot pinning and staleness
    # ------------------------------------------------------------------

    def _pin_snapshot(self) -> None:
        """(Re)pin the compiled snapshot and rebuild the match sets over it.

        Used at construction and as the full re-pin of the staleness
        protocol.  The distance store is the snapshot's shared one
        (:meth:`CompiledGraph.distance_store`), so a re-pin after a sibling
        matcher's batch costs the candidate bitsets and one fixpoint.
        """
        self._compiled: CompiledGraph = compile_graph(self.graph)
        self._store = self._compiled.distance_store()
        self._synced_version = self.graph.version
        self._synced_nodes = self._compiled.num_nodes
        self._cand_bits: Dict[PatternNodeId, int] = candidate_bits(
            self.pattern, self._compiled, out_degree_filter=False
        )
        self._rebuild_match_sets()

    def _rebuild_match_sets(self) -> None:
        """(Re)compute the greatest fixpoint from scratch (initialisation / fallback).

        Runs the set-at-a-time refinement over the snapshot's adjacency, not
        the store: one reverse level search per child set instead of one
        ball per candidate.  IncMatch keeps every ``mat(u)`` and ``can(u)``,
        so the refinement runs on past an empty set to every set's greatest
        fixpoint.
        """
        self._mat_bits: Dict[PatternNodeId, int] = dict(self._cand_bits)
        refine_sets_to_fixpoint(
            self.pattern, self._compiled, self._mat_bits, stop_when_empty=False
        )
        self._can_bits: Dict[PatternNodeId, int] = {
            u: self._cand_bits[u] & ~self._mat_bits[u] for u in self._cand_bits
        }

    def _ensure_synced(self) -> None:
        """Apply the staleness rules before an operation.

        When the only changes since the last operation are node additions
        (which :func:`compile_graph` interns into the shared snapshot and
        its store), the fresh nodes join the match sets in place: appended
        indices keep all bitsets valid.  Anything else is a full re-pin.
        See the module docstring.
        """
        graph = self.graph
        if graph.version == self._synced_version:
            return
        compiled = compile_graph(graph)
        added = compiled.num_nodes - self._synced_nodes
        if (
            compiled is self._compiled
            and added
            and graph.version - self._synced_version == added
        ):
            self._store = compiled.distance_store()
            for index in range(self._synced_nodes, compiled.num_nodes):
                attrs = compiled.attributes(index)
                bit = 1 << index
                for u in self.pattern.nodes():
                    if self.pattern.predicate(u).evaluate(attrs):
                        self._cand_bits[u] |= bit
                        # A fresh node has no edges: it matches u only when
                        # u has no outgoing pattern edges to satisfy.
                        if self._satisfies_all_children(index, u):
                            self._mat_bits[u] |= bit
                        else:
                            self._can_bits[u] |= bit
            self._synced_nodes = compiled.num_nodes
        else:
            self._pin_snapshot()
        self._synced_version = graph.version

    def _decode_match_pairs(
        self, pairs: Set[Tuple[PatternNodeId, int]]
    ) -> Set[Tuple[PatternNodeId, NodeId]]:
        node_of = self._compiled.node_of
        return {(u, node_of(v)) for u, v in pairs}

    # ------------------------------------------------------------------
    # unit updates
    # ------------------------------------------------------------------

    def delete_edge(self, source: NodeId, target: NodeId) -> AffectedArea:
        """``Match⁻``: delete edge ``(source, target)`` and repair the match.

        Works for arbitrary (possibly cyclic) patterns and data graphs.
        Deleting an edge that does not exist is a true no-op: the graph, the
        distance store and the match are untouched and the returned
        :class:`AffectedArea` is empty.  The one-update case of :meth:`apply`.
        """
        return self.apply((EdgeUpdate.delete(source, target),))

    def insert_edge(self, source: NodeId, target: NodeId) -> AffectedArea:
        """``Match⁺``: insert edge ``(source, target)`` and repair the match.

        Requires a DAG pattern (see the module docstring).  Inserting an
        edge that already exists is a true no-op (nothing is mutated, the
        returned :class:`AffectedArea` is empty, and no DAG check is
        performed).  The one-update case of :meth:`apply`.
        """
        return self.apply((EdgeUpdate.insert(source, target),))

    # ------------------------------------------------------------------
    # batch updates — IncMatch
    # ------------------------------------------------------------------

    def apply(self, updates: Sequence[EdgeUpdate]) -> AffectedArea:
        """``IncMatch``: apply the update list ``δ`` and repair the match.

        ``UpdateBM`` repairs the distance store for the whole batch first;
        the resulting ``AFF1`` pairs are then processed — increases with the
        ``Match⁻`` removal propagation, decreases with the ``Match⁺``
        addition propagation.  Requires a DAG pattern when ``δ`` contains
        insertions (no-op insertions — re-inserting an existing edge — do
        not count); a rejected batch raises before it touches anything.
        """
        self._check_dag_for(updates)
        self._ensure_synced()
        graph = self.graph
        aff1: InternedAffectedPairs = {}
        delete_tails: Set[int] = set()
        insert_tails: Set[int] = set()
        for update in updates:
            existed = graph.has_edge(update.source, update.target)
            if update.is_insert:
                step = update_store_insert(self._store, update.source, update.target)
                if not existed:
                    insert_tails.add(self._compiled.id_of(update.source))
            else:
                step = update_store_delete(self._store, update.source, update.target)
                if existed:
                    delete_tails.add(self._compiled.id_of(update.source))
            merge_affected_into(aff1, step)
        self._synced_version = graph.version
        if insert_tails and not self._pattern_is_dag:
            return self._recompute_fallback(aff1)

        removed = self._process_distance_increases(aff1, touched_tails=delete_tails)
        added = self._process_distance_decreases(aff1, touched_tails=insert_tails)
        # A pair dropped by the removal phase and recovered by the addition
        # phase is not part of AFF2: the net match change is what counts.
        return AffectedArea.from_interned(
            aff1,
            self._compiled.node_table,
            self._decode_match_pairs(removed - added),
            self._decode_match_pairs(added - removed),
        )

    # ------------------------------------------------------------------
    # Match⁻ internals: removal propagation
    # ------------------------------------------------------------------

    def _process_distance_increases(
        self,
        aff1: InternedAffectedPairs,
        *,
        touched_tails: Iterable[int] = (),
    ) -> Set[Tuple[PatternNodeId, int]]:
        """Remove matches invalidated by distance increases (Fig. 5, lines 2-12).

        *touched_tails* are the tail nodes of deleted edges; losing a
        successor can lengthen the shortest cycle through the tail, which is
        not visible in ``AFF1`` (pairwise distances) but affects the
        nonempty-path self-support of that node.
        """
        pattern = self.pattern
        store = self._store
        compiled = self._compiled
        mat = self._mat_bits
        can = self._can_bits

        worklist: List[Tuple[PatternNodeId, int]] = []
        scheduled: Set[Tuple[PatternNodeId, int]] = set()

        for v in self._recheck_sources(aff1, touched_tails, grew=True):
            vbit = 1 << v
            for u_parent in pattern.nodes():
                if not mat[u_parent] & vbit:
                    continue
                if self._satisfies_all_children(v, u_parent):
                    continue
                pair = (u_parent, v)
                if pair not in scheduled:
                    scheduled.add(pair)
                    worklist.append(pair)

        removed: Set[Tuple[PatternNodeId, int]] = set()
        index = 0
        while index < len(worklist):
            u, v = worklist[index]
            index += 1
            vbit = 1 << v
            if not mat[u] & vbit:
                continue
            mat[u] &= ~vbit
            can[u] |= vbit
            removed.add((u, v))
            for u_parent in pattern.predecessors(u):
                bound = pattern.bound(u_parent, u)
                affected = store.ancestors_within_bits(compiled, v, bound) & mat[u_parent]
                for w in iter_bits(affected):
                    if self._has_support(w, u, bound):
                        continue
                    pair = (u_parent, w)
                    if pair not in scheduled:
                        scheduled.add(pair)
                        worklist.append(pair)
        return removed

    # ------------------------------------------------------------------
    # Match⁺ internals: addition propagation
    # ------------------------------------------------------------------

    def _process_distance_decreases(
        self,
        aff1: InternedAffectedPairs,
        *,
        touched_tails: Iterable[int] = (),
    ) -> Set[Tuple[PatternNodeId, int]]:
        """Add matches enabled by distance decreases (Fig. 7, lines 3-15).

        *touched_tails* are the tail nodes of inserted edges; gaining a
        successor can shorten the shortest cycle through the tail, enabling
        self-support that is not visible as a pairwise distance change.
        """
        pattern = self.pattern
        store = self._store
        compiled = self._compiled
        mat = self._mat_bits
        can = self._can_bits

        worklist: List[Tuple[PatternNodeId, int]] = []
        scheduled: Set[Tuple[PatternNodeId, int]] = set()

        for v in self._recheck_sources(aff1, touched_tails, grew=False):
            vbit = 1 << v
            for u_parent in pattern.nodes():
                if not can[u_parent] & vbit:
                    continue
                if not self._satisfies_all_children(v, u_parent):
                    continue
                pair = (u_parent, v)
                if pair not in scheduled:
                    scheduled.add(pair)
                    worklist.append(pair)

        added: Set[Tuple[PatternNodeId, int]] = set()
        index = 0
        while index < len(worklist):
            u, v = worklist[index]
            index += 1
            vbit = 1 << v
            if not can[u] & vbit:
                continue
            if not self._satisfies_all_children(v, u):
                continue
            can[u] &= ~vbit
            mat[u] |= vbit
            added.add((u, v))
            for u_parent in pattern.predecessors(u):
                bound = pattern.bound(u_parent, u)
                affected = store.ancestors_within_bits(compiled, v, bound) & can[u_parent]
                for w in iter_bits(affected):
                    if not self._satisfies_all_children(w, u_parent):
                        continue
                    pair = (u_parent, w)
                    if pair not in scheduled:
                        scheduled.add(pair)
                        worklist.append(pair)
        return added

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _recheck_sources(
        self, aff1: InternedAffectedPairs, touched_tails: Iterable[int], *, grew: bool
    ) -> Set[int]:
        """Data nodes whose support may have changed with the distances.

        The source of every pair whose distance grew (``grew``) or shrank,
        plus its target when an edge leads back to the source (the pair
        closes a cycle through the target), plus *touched_tails*.
        """
        changed = {
            v_source for (v_source, _), (old, new) in aff1.items() if (new > old) == grew
        }
        # A pair (x, y) closes a cycle through y when y is a predecessor of x.
        predecessors = self._compiled.predecessors_indices
        closing = set()
        for v_source in changed:
            for v_target in predecessors(v_source):
                change = aff1.get((v_source, v_target))
                if change is not None and (change[1] > change[0]) == grew:
                    closing.add(v_target)
        return changed | closing | set(touched_tails)

    def _check_dag_for(self, updates: Sequence[EdgeUpdate]) -> None:
        """Refuse, before anything is touched, a batch a cyclic pattern cannot take.

        With ``on_cyclic="raise"`` a batch that really inserts an edge raises
        :class:`CyclicPatternError`.  Presence is tracked through the batch:
        re-inserting an existing edge does not count, deleting and
        re-inserting one does.
        """
        if self._pattern_is_dag or self.on_cyclic != "raise":
            return
        has_edge = self.graph.has_edge
        present: Dict[Tuple[NodeId, NodeId], bool] = {}
        for update in updates:
            edge = (update.source, update.target)
            exists = present.get(edge)
            if exists is None:
                exists = has_edge(*edge)
            if update.is_insert and not exists:
                raise CyclicPatternError(
                    "insertions require a DAG pattern (Match+/IncMatch); "
                    "construct the matcher with on_cyclic='recompute' to fall "
                    "back to full recomputation"
                )
            present[edge] = update.is_insert

    def _has_support(
        self, index: int, u_child: PatternNodeId, bound: Optional[int]
    ) -> bool:
        """``True`` when *index* reaches some current match of *u_child* within *bound*."""
        return bool(
            self._store.descendants_within_bits(self._compiled, index, bound)
            & self._mat_bits[u_child]
        )

    def _satisfies_all_children(self, index: int, u: PatternNodeId) -> bool:
        """``True`` when every outgoing pattern edge of *u* is satisfied by *index*."""
        for u_child in self.pattern.successors(u):
            bound = self.pattern.bound(u, u_child)
            if not self._has_support(index, u_child, bound):
                return False
        return True

    def _recompute_fallback(self, aff1: InternedAffectedPairs) -> AffectedArea:
        """Full recomputation fallback used for insertions with cyclic patterns."""
        old_bits = dict(self._mat_bits)
        self._rebuild_match_sets()
        removed: Set[Tuple[PatternNodeId, int]] = set()
        added: Set[Tuple[PatternNodeId, int]] = set()
        for u, new_bits in self._mat_bits.items():
            before = old_bits.get(u, 0)
            for v in iter_bits(before & ~new_bits):
                removed.add((u, v))
            for v in iter_bits(new_bits & ~before):
                added.add((u, v))
        return AffectedArea.from_interned(
            aff1,
            self._compiled.node_table,
            self._decode_match_pairs(removed),
            self._decode_match_pairs(added),
        )
