"""Bounded simulation matching — Algorithm ``Match`` (Fig. 4, Theorem 3.1).

Given a pattern ``P`` and a data graph ``G``, :func:`match` computes the
unique maximum match ``S`` of ``P`` in ``G`` under bounded simulation, or the
empty relation when ``P`` does not match ``G``.

The implementation follows the paper's worklist refinement:

1. **Candidates** (``mat(u)``): every data node whose attributes satisfy the
   predicate of ``u`` (plus the obvious out-degree filter when ``u`` has
   outgoing pattern edges).
2. **Initial pruning / refinement**: for every pattern edge ``(u, u')`` and
   every candidate ``v`` of ``u`` the algorithm maintains how many candidates
   of ``u'`` are reachable from ``v`` via a nonempty path within the edge
   bound (the paper's ``desc`` sets).  A candidate whose count is zero for
   some outgoing pattern edge cannot match and is scheduled for removal (the
   paper's ``premv`` sets).
3. **Propagation**: removing ``v'`` from ``mat(u')`` decrements the counts of
   the candidates of every parent ``u`` that can reach ``v'`` within the
   bound (the paper's ``anc`` sets); counts that hit zero trigger further
   removals, until a fixpoint is reached.

With a precomputed distance matrix the total cost is
``O(|V||E| + |E_p||V|^2 + |V_p||V|)``, the bound of Theorem 3.1.  The
function accepts any :class:`~repro.distance.oracle.DistanceOracle`, which is
how the paper's ``BFS`` and ``2-hop`` variants are obtained.

:func:`naive_match` is an intentionally simple fixpoint implementation and
the one reference every execution route is tested against.

:func:`match` runs the refinement over the *compiled* snapshot of the data
graph (:mod:`repro.graph.compiled`) through a throwaway
:class:`~repro.engine.MatchSession`: candidates come from the inverted
attribute index as bitsets over interned integer ids
(:func:`candidate_bits`), the oracle answers bounded reachability as
bitsets, and support counting is ``(desc & mat).bit_count()``
(:func:`refine_bits_to_fixpoint`).  Results decode back to original node ids
at the :class:`~repro.matching.match_result.MatchResult` boundary.  The
incremental matcher seeds its state with the same two functions.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import sanitize as _sanitize
from repro.distance.oracle import DistanceOracle
from repro.graph.compiled import CompiledGraph, bits_to_indices
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId
from repro.matching.match_result import MatchResult

__all__ = [
    "match",
    "naive_match",
    "candidate_bits",
    "refine_bits_to_fixpoint",
]


def candidate_bits(
    pattern: Pattern,
    compiled: CompiledGraph,
    *,
    out_degree_filter: bool = True,
) -> Dict[PatternNodeId, int]:
    """Initial candidate sets ``mat(u)`` as bitsets over *compiled*.

    The compiled snapshot's inverted attribute index answers equality
    predicates with a dict lookup, so this is one index probe per pattern
    node instead of ``|V_p|`` full scans of the data graph.
    """
    candidates: Dict[PatternNodeId, int] = {}
    for u in pattern.nodes():
        bits = compiled.candidate_bits(pattern.predicate(u))
        if out_degree_filter and pattern.out_degree(u) > 0:
            bits &= compiled.out_nonzero_bits
        candidates[u] = bits
    return candidates


def match(
    pattern: Pattern,
    graph: DataGraph,
    oracle: Optional[DistanceOracle] = None,
) -> MatchResult:
    """Compute the maximum bounded-simulation match of *pattern* in *graph*.

    The call is served by a throwaway :class:`~repro.engine.MatchSession`:
    planning, compiled snapshot pinning and execution live in
    :mod:`repro.engine`.  Hold a session yourself when issuing many queries
    against one graph so ball memos and cached results survive between
    calls.

    Parameters
    ----------
    pattern, graph:
        The pattern ``P`` and data graph ``G``.
    oracle:
        The distance substrate used for bounded-connectivity checks.  By
        default a :class:`~repro.distance.compiled.CompiledDistanceMatrix` —
        the lazy flat-array engine, which together with the worklist
        refinement computes balls only for live candidates.  Pass a
        :class:`~repro.distance.matrix.DistanceMatrix` (the paper's
        Algorithm Match, line 1),
        :class:`~repro.distance.bfs.BFSDistanceOracle` or
        :class:`~repro.distance.twohop.TwoHopOracle` for the paper's
        Exp-2 variants.

    Returns
    -------
    MatchResult
        The maximum match, or the empty relation when ``P`` does not match
        ``G``.
    """
    from repro.engine.session import MatchSession

    return MatchSession(graph, oracle=oracle).match(pattern)


def refine_bits_to_fixpoint(
    pattern: Pattern,
    oracle: DistanceOracle,
    compiled: CompiledGraph,
    mat_bits: Dict[PatternNodeId, int],
    *,
    stop_when_empty: bool = False,
    edge_memo=None,
    memo_tag=None,
    edge_order=None,
) -> Set[Tuple[PatternNodeId, int]]:
    """Refine *mat_bits* to the greatest bounded-simulation fixpoint.

    Candidate sets are Python-int bitsets; support counting is a single
    ``&`` plus ``bit_count()`` against the oracle's bitset reachability
    (:meth:`~repro.distance.oracle.DistanceOracle.descendants_within_bits`).
    Refines *mat_bits* in place and returns the removed
    ``(pattern node, interned data index)`` pairs.

    The refinement runs in two phases.  The **seed phase** computes, for
    every pattern edge ``(u, u')``, the support of each candidate of ``u``
    against the *initial* candidate set of ``u'`` — a pure function of
    ``(f_v(u), f_v(u'), bound)`` given the snapshot.  The **propagation
    phase** is an edge worklist: an edge is rechecked only when ``mat(u')``
    shrank since its last check, and the recheck decrements each live
    candidate's support by ``|desc ∩ removed-delta|``.  Chaotic iteration
    of a monotone operator converges to the same greatest fixpoint
    regardless of order, so the result is identical to the paper's
    formulation — but only *forward* balls of *live* candidates are ever
    computed (never an ancestor ball, never a ball of a non-candidate),
    which is what lets the lazy compiled oracle skip the ``O(|V|^2)``
    precompute entirely.  Balls are memoised for the duration of the
    fixpoint in a local ``(index, bound)`` table sized exactly to the live
    working set, so rechecks never recompute a ball even when the oracle's
    own LRU is smaller than the candidate sets.

    *edge_memo* (a :class:`~repro.distance.oracle.BoundedBitsCache` or any
    mapping with ``get``/``put``) memoises the seed phase **across calls**:
    the entry for ``(memo_tag, f_v(u), f_v(u'), bound)`` stores the exact
    candidate bitsets it was computed from plus the surviving candidates
    and their support counts, so a batch workload whose patterns reuse edge
    types (same predicates, same bound) skips whole first passes.  Entries
    are self-validating — a lookup whose recorded bitsets differ from the
    current initial candidate sets is treated as a miss — so a stale or
    foreign entry can never corrupt a result; the *owner* is still
    responsible for clearing the memo when the snapshot or the oracle's
    answers change (the engine session drops it on every patch/re-pin).
    *memo_tag* namespaces entries per oracle semantics (e.g. the engine
    passes the plan strategy, since the adjacency oracle ignores bounds).

    With *stop_when_empty* the refinement returns as soon as some
    ``mat(u)`` empties — the overall match is then the empty relation and
    the remaining cascade is wasted work.  In that case *mat_bits* and the
    returned removals are **partial** (not the greatest fixpoint); callers
    that consume the refined sets themselves (the incremental matcher) must
    keep the default.

    *edge_order* (from :attr:`~repro.engine.planner.QueryPlan.edge_order`)
    switches the seed phase to the planner's selectivity order.  Chaotic
    iteration of the monotone refinement operator converges to the same
    greatest fixpoint in any order, so the result is identical to the
    default ("seed") order — but the planner's sinks-first order makes most
    edges *final* when they are seeded: the child's candidate set is already
    fully refined (its own out-edges have all been checked finally, or it
    is a leaf), so the edge is checked **count-free** against the *live*
    child set — an existence test per candidate, or a reverse sweep that
    unions ancestor balls of the live child when the child set is the
    smaller side — and never re-entered by the propagation worklist.  Leaf
    (star/chain) sub-patterns are thereby resolved exactly once.  Only
    edges inside pattern cycles keep the counting path.  Non-final edges
    still count against the child's *initial* set, so the cross-query
    *edge_memo* stays shareable; final edges use or populate the memo only
    when both live sets are pristine (a final check against shrunk sets has
    no propagation step to reconcile a stale entry).  An *edge_order* that
    does not cover the pattern's edges exactly (a stale plan for a mutated
    pattern) is ignored and the seed order is used.
    """
    removed: Set[Tuple[PatternNodeId, int]] = set()
    edges = pattern.edge_list()
    if not edges:
        return removed

    # Balls arrive as int bitsets or, from the compiled oracle on graphs
    # wider than DENSE_BALL_MAX_NODES, as sparse index tuples
    # (DistanceOracle.descendants_compact); counting dispatches on the type.
    descendants = getattr(oracle, "descendants_compact", None)
    if descendants is None:
        descendants = oracle.descendants_within_bits
    # Fixpoint-local ball memo, keyed by (index, bound).
    balls: Dict[Tuple[int, Optional[int]], object] = {}
    # support_count[(u, u')][v]: |descendants of v within the bound ∩ mat(u')|
    # at the time edge (u, u') was last checked.  Candidates whose initial
    # support is zero are removed immediately and never get an entry.  A
    # ``None`` value marks a *final* edge (ordered mode): the child set was
    # already fully refined when the edge was checked, so no counts are kept.
    support_count: Dict[
        Tuple[PatternNodeId, PatternNodeId], Optional[Dict[int, int]]
    ] = {}
    # mat(u') as of the last time the edge (u, u') was checked.
    checked_child_bits: Dict[Tuple[PatternNodeId, PatternNodeId], int] = {}
    # Edges to recheck when mat(u) shrinks: all pattern edges *into* u.
    edges_into: Dict[PatternNodeId, List[Tuple[PatternNodeId, PatternNodeId]]] = {}
    for edge in edges:
        edges_into.setdefault(edge[1], []).append(edge)

    # ------------------------------------------------------------------
    # Seed phase: initial support per edge, against the *initial* candidate
    # sets (not the partially refined ones) so the answer is a function of
    # the edge type alone and can be shared through *edge_memo*.  Removals
    # discovered here are reconciled by the propagation phase below.
    #
    # In ordered mode (a planner edge_order) the loop additionally tracks
    # which pattern nodes are *settled* — their candidate set can never
    # shrink again because every one of their out-edges has been checked
    # against a settled child.  Leaves are settled from the start; an edge
    # whose child is settled is *final* and is evaluated count-free against
    # the live sets.
    # ------------------------------------------------------------------
    use_order = False
    if edge_order:
        ordered_edges = list(edge_order)
        if len(ordered_edges) == len(edges) and set(ordered_edges) == set(edges):
            use_order = True
    if use_order:
        seed_edges = ordered_edges
        out_remaining: Dict[PatternNodeId, int] = {}
        all_final: Dict[PatternNodeId, bool] = {}
        settled: Set[PatternNodeId] = set()
        for node in pattern.nodes():
            degree = pattern.out_degree(node)
            out_remaining[node] = degree
            all_final[node] = True
            if degree == 0:
                settled.add(node)
        ancestors = getattr(oracle, "ancestors_within_bits", None)
        # Reverse (ancestor) balls memoised separately from forward balls.
        rballs: Dict[Tuple[int, Optional[int]], int] = {}
    else:
        seed_edges = edges

    static_bits = dict(mat_bits)
    shrunk_nodes: Set[PatternNodeId] = set()
    for edge in seed_edges:
        u, u_child = edge
        bound = pattern.bound(u, u_child)
        final_edge = use_order and u_child in settled
        parent_static = static_bits[u]
        child_static = static_bits[u_child]
        parent_live = mat_bits[u]
        child_live = mat_bits[u_child]
        memo_key = None
        entry = None
        if edge_memo is not None:
            # The child's initial candidates depend on whether it carries the
            # out-degree filter (it has outgoing pattern edges), so sink and
            # non-sink uses of one edge type key separate entries instead of
            # thrashing one.
            memo_key = (
                memo_tag,
                pattern.predicate(u),
                pattern.predicate(u_child),
                bound,
                pattern.out_degree(u_child) > 0,
            )
            entry = edge_memo.get(memo_key)
            if entry is not None and (
                entry[0] != parent_static or entry[1] != child_static
            ):
                entry = None
            if entry is not None and final_edge and (
                parent_live != parent_static or child_live != child_static
            ):
                # A final check against shrunk live sets has no propagation
                # step to reconcile a memo entry recorded for larger sets.
                entry = None
            if entry is not None and not final_edge and entry[3] is None:
                # Count-free entries carry no supports for propagation.
                entry = None
        if entry is None:
            if final_edge:
                counts = None
                if (
                    ancestors is not None
                    and child_live.bit_count() < parent_live.bit_count()
                ):
                    # The live child set is the smaller side: union its
                    # ancestor balls and intersect once, instead of one
                    # forward ball per live parent candidate.
                    mask = 0
                    for j in bits_to_indices(child_live):
                        rkey = (j, bound)
                        aball = rballs.get(rkey)
                        if aball is None:
                            aball = ancestors(compiled, j, bound)
                            rballs[rkey] = aball
                        mask |= aball
                    survivors = parent_live & mask
                else:
                    survivors = parent_live
                    for v in bits_to_indices(parent_live):
                        key = (v, bound)
                        ball = balls.get(key)
                        if ball is None:
                            ball = descendants(compiled, v, bound)
                            balls[key] = ball
                        if type(ball) is int:
                            alive = bool(ball & child_live)
                        else:
                            alive = False
                            for j in ball:
                                if child_live >> j & 1:
                                    alive = True
                                    break
                        if not alive:
                            survivors &= ~(1 << v)
                if (
                    edge_memo is not None
                    and parent_live == parent_static
                    and child_live == child_static
                ):
                    edge_memo.put(
                        memo_key, (parent_static, child_static, survivors, None)
                    )
            else:
                # Ordered mode iterates only the live parents (dead
                # candidates cannot resurrect) but still counts against the
                # child's initial set so the memo entry stays shareable.
                count_parent = parent_live if use_order else parent_static
                counts = {}
                survivors = count_parent
                for v in bits_to_indices(count_parent):
                    key = (v, bound)
                    ball = balls.get(key)
                    if ball is None:
                        ball = descendants(compiled, v, bound)
                        balls[key] = ball
                    if type(ball) is int:
                        count = (ball & child_static).bit_count()
                    else:
                        count = 0
                        for j in ball:
                            count += child_static >> j & 1
                    if count:
                        counts[v] = count
                    else:
                        survivors &= ~(1 << v)
                if edge_memo is not None and count_parent == parent_static:
                    edge_memo.put(
                        memo_key, (parent_static, child_static, survivors, counts)
                    )
                    # The propagation phase mutates its counts in place; the
                    # memoised dict must stay pristine for the next query.
                    counts = dict(counts)
        else:
            if _sanitize.ENABLED:
                _sanitize.edge_memo_hit(entry)
            survivors = entry[2]
            counts = None if final_edge else dict(entry[3])
        support_count[edge] = counts
        checked_child_bits[edge] = child_live if final_edge else child_static
        dead = mat_bits[u] & ~survivors
        if dead:
            mat_bits[u] &= survivors
            for v in bits_to_indices(dead):
                removed.add((u, v))
            shrunk_nodes.add(u)
            if stop_when_empty and not mat_bits[u]:
                return removed
        if use_order:
            out_remaining[u] -= 1
            if not final_edge:
                all_final[u] = False
            if out_remaining[u] == 0 and all_final[u]:
                settled.add(u)

    # ------------------------------------------------------------------
    # Propagation phase: recheck edges whose child set moved since their
    # recorded check, decrementing supports by the removed delta.
    # ------------------------------------------------------------------
    worklist = deque()
    queued = set()
    for node in shrunk_nodes:
        for edge in edges_into.get(node, ()):
            if edge not in queued:
                queued.add(edge)
                worklist.append(edge)
    while worklist:
        edge = worklist.popleft()
        queued.discard(edge)
        u, u_child = edge
        child_bits = mat_bits[u_child]
        shrunk = False
        delta = checked_child_bits[edge] & ~child_bits
        if delta:
            bound = pattern.bound(u, u_child)
            counts = support_count[edge]
            if counts is None:
                # Defensive only: a final edge's child is settled and cannot
                # shrink after the check, so its delta is always empty.  If
                # it ever fires, recheck the edge count-free.
                for v in bits_to_indices(mat_bits[u]):
                    key = (v, bound)
                    ball = balls.get(key)
                    if ball is None:
                        ball = descendants(compiled, v, bound)
                        balls[key] = ball
                    if type(ball) is int:
                        alive = bool(ball & child_bits)
                    else:
                        alive = any(child_bits >> j & 1 for j in ball)
                    if not alive:
                        mat_bits[u] &= ~(1 << v)
                        removed.add((u, v))
                        shrunk = True
            else:
                for v in bits_to_indices(mat_bits[u]):
                    count = counts[v]
                    if count:
                        key = (v, bound)
                        ball = balls.get(key)
                        if ball is None:
                            ball = descendants(compiled, v, bound)
                            balls[key] = ball
                        if type(ball) is int:
                            count -= (ball & delta).bit_count()
                        else:
                            for j in ball:
                                count -= delta >> j & 1
                        counts[v] = count
                        if count == 0:
                            mat_bits[u] &= ~(1 << v)
                            removed.add((u, v))
                            shrunk = True
        checked_child_bits[edge] = child_bits
        if shrunk:
            if stop_when_empty and not mat_bits[u]:
                return removed
            for parent_edge in edges_into.get(u, ()):
                if parent_edge not in queued:
                    queued.add(parent_edge)
                    worklist.append(parent_edge)
    return removed


def naive_match(pattern: Pattern, graph: DataGraph) -> MatchResult:
    """Reference implementation: iterate the refinement until nothing changes.

    This is deliberately the most transparent formulation of the greatest
    fixpoint — quadratic re-checks, bounded BFS recomputed on demand — and is
    used by the test suite to validate :func:`match`.  Do not use it on large
    graphs.
    """
    candidates: Dict[PatternNodeId, Set[NodeId]] = {}
    for u in pattern.nodes():
        predicate = pattern.predicate(u)
        candidates[u] = {
            v for v in graph.nodes() if predicate.evaluate(graph.attributes(v))
        }

    changed = True
    while changed:
        changed = False
        for u, u_child in pattern.edges():
            bound = pattern.bound(u, u_child)
            child_candidates = candidates[u_child]
            survivors: Set[NodeId] = set()
            for v in candidates[u]:
                reachable = graph.descendants_within(v, bound)
                if reachable & child_candidates:
                    survivors.add(v)
            if survivors != candidates[u]:
                candidates[u] = survivors
                changed = True

    if any(not nodes for nodes in candidates.values()):
        return MatchResult.empty(pattern.node_list())
    return MatchResult(candidates, pattern_nodes=pattern.node_list())
