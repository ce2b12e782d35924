"""Bounded simulation matching — Algorithm ``Match`` (Fig. 4, Theorem 3.1).

Given a pattern ``P`` and a data graph ``G``, :func:`match` computes the
unique maximum match ``S`` of ``P`` in ``G`` under bounded simulation, or the
empty relation when ``P`` does not match ``G``: the greatest relation with
``mat(u) ⊆ anc_b(mat(u'))`` for every pattern edge ``(u, u')`` of bound
``b``, where ``anc_b(S)`` is every node with a nonempty path of length
``<= b`` into ``S``.

Both routes start from the same **candidates** (:func:`candidate_bits`):
``mat(u)`` is every data node whose attributes satisfy the predicate of
``u`` (plus the out-degree filter when ``u`` has outgoing pattern edges),
as a Python-int bitset over the interned ids of the compiled snapshot
(:mod:`repro.graph.compiled`).  They refine it in two ways:

* **Set at a time** (:func:`refine_sets_to_fixpoint`, the default route of
  :class:`~repro.engine.MatchSession` for both bounded simulation and
  graph simulation).  ``anc_b(mat(u'))`` is one multi-source reverse level
  search from the whole child set (:func:`ancestors_of_set`), and a
  worklist of pattern nodes intersects ``mat(u)`` with it, re-queueing the
  parents of every node whose set shrank: the set-based simulation
  refinement of Henzinger, Henzinger & Kopke (FOCS 1995).  No ball of a
  single candidate is computed and nothing is counted; a session memoises
  the searches by ``(bound, child set)`` across its queries.
* **Counting** (:func:`refine_bits_to_fixpoint`, the paper's worklist
  refinement against a :class:`~repro.distance.oracle.DistanceOracle`).
  For every pattern edge ``(u, u')`` and every candidate ``v`` of ``u`` it
  keeps how many candidates of ``u'`` lie in ``v``'s forward ball (the
  paper's ``desc`` sets); a count of zero removes ``v`` (``premv``), and a
  removal decrements the counts of the parents' candidates (``anc``) until
  a fixpoint.  With a precomputed distance matrix the cost is
  ``O(|V||E| + |E_p||V|^2 + |V_p||V|)``, the bound of Theorem 3.1.  It is
  the route of a session opened with an explicit ``oracle=`` only (the
  paper's matrix, ``BFS`` and ``2-hop`` variants of Exp-2 measure their
  own oracle).

:func:`naive_match` is an intentionally simple fixpoint implementation and
the one reference every execution route is tested against.  Results decode
back to original node ids at the
:class:`~repro.matching.match_result.MatchResult` boundary.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

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
    "refine_sets_to_fixpoint",
    "ancestors_of_set",
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
    against one graph so its ``anc_b`` memo and cached results survive
    between calls.

    Parameters
    ----------
    pattern, graph:
        The pattern ``P`` and data graph ``G``.
    oracle:
        ``None`` (default) runs the set-at-a-time route
        (:func:`refine_sets_to_fixpoint`), which needs no distance oracle.
        Pass a :class:`~repro.distance.matrix.DistanceMatrix` (the paper's
        Algorithm Match, line 1),
        :class:`~repro.distance.compiled.CompiledDistanceMatrix`,
        :class:`~repro.distance.bfs.BFSDistanceOracle` or
        :class:`~repro.distance.twohop.TwoHopOracle` to run the counting
        route (:func:`refine_bits_to_fixpoint`) against that oracle, as the
        paper's Exp-2 variants do.

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
    edge_order=None,
) -> Set[Tuple[PatternNodeId, int]]:
    """Refine *mat_bits* to the greatest fixpoint by counting supports.

    The paper's Algorithm Match, run against *oracle*: the route of a
    session opened with an explicit ``oracle=``.  Candidate sets are
    Python-int bitsets; support counting is a single ``&`` plus
    ``bit_count()`` against the oracle's bitset reachability
    (:meth:`~repro.distance.oracle.DistanceOracle.descendants_within_bits`).
    Refines *mat_bits* in place and returns the removed
    ``(pattern node, interned data index)`` pairs.

    The refinement runs in two phases.  The **seed phase** computes, for
    every pattern edge ``(u, u')``, the support of each live candidate of
    ``u`` against the live candidate set of ``u'``.  The **propagation
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

    With *stop_when_empty* the refinement returns as soon as some
    ``mat(u)`` empties — the overall match is then the empty relation and
    the remaining cascade is wasted work.  In that case *mat_bits* and the
    returned removals are **partial** (not the greatest fixpoint); callers
    that consume the refined sets themselves must keep the default.

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
    edges inside pattern cycles keep the counting path.  An *edge_order*
    that does not cover the pattern's edges exactly (a stale plan for a
    mutated pattern) is ignored and the seed order is used.
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
    # Seed phase: initial support per edge against the live sets.  Removals
    # discovered here are reconciled by the propagation phase below.
    #
    # In ordered mode (a planner edge_order) the loop additionally tracks
    # which pattern nodes are *settled* — their candidate set can never
    # shrink again because every one of their out-edges has been checked
    # against a settled child.  Leaves are settled from the start; an edge
    # whose child is settled is *final* and is evaluated count-free.
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

    shrunk_nodes: Set[PatternNodeId] = set()
    for edge in seed_edges:
        u, u_child = edge
        bound = pattern.bound(u, u_child)
        final_edge = use_order and u_child in settled
        parent_live = mat_bits[u]
        child_live = mat_bits[u_child]
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
        else:
            counts = {}
            survivors = parent_live
            for v in bits_to_indices(parent_live):
                key = (v, bound)
                ball = balls.get(key)
                if ball is None:
                    ball = descendants(compiled, v, bound)
                    balls[key] = ball
                if type(ball) is int:
                    count = (ball & child_live).bit_count()
                else:
                    count = 0
                    for j in ball:
                        count += child_live >> j & 1
                if count:
                    counts[v] = count
                else:
                    survivors &= ~(1 << v)
        support_count[edge] = counts
        checked_child_bits[edge] = child_live
        dead = parent_live & ~survivors
        if dead:
            mat_bits[u] = survivors
            for v in bits_to_indices(dead):
                removed.add((u, v))
            shrunk_nodes.add(u)
            if stop_when_empty and not survivors:
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


#: Mark digits of the reverse level search: a reached node (2) reads "1".
_REACHED_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"001")


def ancestors_of_set(compiled: CompiledGraph, targets: int, bound: Optional[int]) -> int:
    """``anc_b(targets)``: the nodes with a nonempty path of length ``<= bound`` into *targets*.

    One multi-source reverse level search over the kernel's decoded reverse
    adjacency (CSR plus patch overlay) that expands each node at most once:
    a target reached again is marked but not expanded, since its expansion
    at depth 0 already covers every shorter path.  Marks live in a
    ``bytearray`` that is read back as one binary numeral, not as one bitset
    row per node.  ``bound=None`` is unbounded.
    """
    marks = bytearray(compiled.num_nodes)
    frontier = bits_to_indices(targets)
    for i in frontier:
        marks[i] = 1
    adjacency = compiled.flat_kernel().adjacency_tuples(reverse=True)
    depth = 0
    while frontier and (bound is None or depth < bound):
        depth += 1
        reached: List[int] = []
        append = reached.append
        for i in frontier:
            for j in adjacency[i]:
                mark = marks[j]
                if mark != 2:
                    marks[j] = 2
                    if not mark:
                        append(j)
        frontier = reached
    return int(marks.translate(_REACHED_DIGITS)[::-1] or b"0", 2)


def refine_sets_to_fixpoint(
    pattern: Pattern,
    compiled: CompiledGraph,
    mat_bits: Dict[PatternNodeId, int],
    *,
    edge_order=None,
    unit_bounds: bool = False,
    ancestor_memo=None,
    stop_when_empty: bool = True,
) -> bool:
    """Refine *mat_bits* in place, a whole candidate set at a time.

    The greatest fixpoint of ``mat(u) ⊆ anc_b(mat(u'))`` over the pattern
    edges ``(u, u')`` of bound ``b`` (every ``b`` is 1 with *unit_bounds*,
    which is graph simulation): the set-based simulation refinement of
    Henzinger, Henzinger & Kopke (FOCS 1995).  A worklist of pattern nodes,
    seeded in *edge_order* (the planner's sinks-first order) when it covers
    the pattern's edges, intersects each node's set with
    :func:`ancestors_of_set` of every child set and re-queues the node's
    parents whenever its set shrinks.  Returns ``False`` as soon as a set
    empties (the relation is then empty and *mat_bits* partial), else
    ``True``.  Without *stop_when_empty* the refinement runs on to every
    set's greatest fixpoint, empty sets included, as the incremental
    matcher needs, and returns whether every set is nonempty.

    *ancestor_memo* (a :class:`~repro.distance.oracle.BoundedBitsCache`)
    keeps ``(bound, child set) -> anc_b(child set)`` across calls; each
    entry carries the snapshot version it was searched at, and an entry of
    another version is a miss.
    """
    edges = pattern.edge_list()
    if edge_order and len(edge_order) == len(edges) and set(edge_order) == set(edges):
        edges = edge_order
    children: Dict[PatternNodeId, List[Tuple[PatternNodeId, Optional[int]]]] = {}
    parents: Dict[PatternNodeId, List[PatternNodeId]] = {}
    for u, child in edges:
        bound = 1 if unit_bounds else pattern.bound(u, child)
        children.setdefault(u, []).append((child, bound))
        parents.setdefault(child, []).append(u)
    if stop_when_empty and not all(mat_bits.values()):
        return False
    version = compiled.version
    queue = deque(children)
    queued = set(children)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        bits = mat_bits[u]
        for child, bound in children[u]:
            key = (bound, mat_bits[child])
            entry = ancestor_memo.get(key) if ancestor_memo is not None else None
            if entry is not None and entry[0] == version:
                ancestors = entry[1]
            else:
                ancestors = ancestors_of_set(compiled, key[1], bound)
                if ancestor_memo is not None:
                    ancestor_memo.put(key, (version, ancestors))
            bits &= ancestors
            if not bits:
                break
        if bits != mat_bits[u]:
            mat_bits[u] = bits
            if not bits and stop_when_empty:
                return False
            for parent in parents.get(u, ()):
                if parent not in queued:
                    queued.add(parent)
                    queue.append(parent)
    return stop_when_empty or all(mat_bits.values())


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
