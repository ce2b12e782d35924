"""Query planning for :class:`~repro.engine.session.MatchSession`.

Every query admitted by the session is first planned: the planner inspects
the pattern's bounds (and whether an update stream is attached) and picks
one of three execution strategies, recording *why* in an explainable
:class:`QueryPlan`:

* ``simulation`` — every pattern edge carries bound 1, so ``anc_1`` of a
  child set is its direct predecessors and the fixpoint runs on the CSR
  adjacency without ever touching a distance oracle (graph simulation and
  bounded simulation coincide here, Remark (2) of the paper);
* ``bounded`` — some edge carries ``k > 1`` or ``*``, so ``anc_k`` is a
  reverse level search of up to ``k`` levels (or, in a session with an
  explicit oracle, each candidate's ball comes from that oracle);
* ``incremental`` — an update stream is attached, so the session maintains
  the match with ``IncMatch`` instead of recomputing it after the updates.

On top of the strategy, the planner is *cost-based*: given the session's
compiled snapshot it estimates each pattern node's candidate cardinality
from the popcounts of the ``(attribute, value) -> bitset`` index
(:meth:`~repro.graph.compiled.CompiledGraph.cardinality` — zero graph
scans) and orders pattern-edge refinement by selectivity.  Edges whose
endpoint candidate sets are smallest are refined first, and the order walks
the strongly connected components of the pattern sinks-first so leaf /
chain suffixes are resolved once and never re-entered by the fixpoint
worklist.  The chosen order and the estimates behind it are recorded on
the plan (`cardinalities`, `edge_order`) and surface in ``explain()``.

The plan also carries the query's cache key: the pattern's canonical
:meth:`~repro.graph.pattern.Pattern.fingerprint` plus the snapshot version
the plan was made against, which is what makes the session's result cache
safe under mutation (a patched or recompiled snapshot has a new version, so
stale entries can never be served).  The edge order is not part of the key:
within one session it is a deterministic function of the pattern and the
snapshot version, and the greatest fixpoint does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.graph.pattern import Pattern
from repro.graph.statistics import strongly_connected_components

__all__ = [
    "QueryPlan",
    "plan_query",
    "STRATEGY_SIMULATION",
    "STRATEGY_BOUNDED",
    "STRATEGY_INCREMENTAL",
]

#: The bound-1 fixpoint over direct adjacency (no distance oracle).
STRATEGY_SIMULATION = "simulation"
#: The general bounded-simulation refinement over distance-oracle balls.
STRATEGY_BOUNDED = "bounded"
#: IncMatch maintenance of a standing match under an update stream.
STRATEGY_INCREMENTAL = "incremental"

#: Minimum estimated-cardinality spread (max/min over the pattern's nodes)
#: before selectivity ordering is applied.  Ordering pays when candidate
#: sets differ — rare leaves prune huge parents before they are refined
#: against each other.  On near-uniform estimates it buys nothing, so the
#: seed order is kept.
ORDER_MIN_SKEW = 1.5


@dataclass(frozen=True)
class QueryPlan:
    """An explainable record of how the session will execute one query."""

    strategy: str
    fingerprint: str
    snapshot_version: int
    pattern_name: str
    pattern_nodes: int
    pattern_edges: int
    max_bound: Optional[int]
    has_unbounded: bool
    reasons: Tuple[str, ...] = field(default_factory=tuple)
    #: ``(pattern node, estimated candidate count)`` pairs, refinement order.
    cardinalities: Tuple[Tuple[Any, int], ...] = ()
    #: The pattern edges in the order the fixpoint kernel seeds them
    #: (empty: the pattern's native "seed" order).
    edge_order: Tuple[Tuple[Any, Any], ...] = ()

    @property
    def cache_key(self) -> Tuple[str, int, str]:
        """``(fingerprint, snapshot version, strategy)``.

        Including the snapshot version means a mutated graph can never be
        answered from a result computed against an older snapshot; including
        the strategy keeps forced graph simulation (which ignores bounds)
        from colliding with bounded matching of the same pattern.  The edge
        order is left out: every order reaches the same greatest fixpoint.
        (The version stays at index 1 — the result cache's stale-entry
        eviction reads it positionally.)
        """
        return (self.fingerprint, self.snapshot_version, self.strategy)

    def explain(self) -> str:
        """A human-readable account of the planning decision."""
        bound = "*" if self.has_unbounded else self.max_bound
        lines = [
            f"query plan for {self.pattern_name or '<unnamed pattern>'} "
            f"(|Vp|={self.pattern_nodes}, |Ep|={self.pattern_edges}, "
            f"max bound={bound})",
            f"  strategy: {self.strategy}",
            f"  snapshot version: {self.snapshot_version}",
            f"  cache key: {self.fingerprint[:12]}…/v{self.snapshot_version}"
            f"/{self.strategy}",
        ]
        if self.cardinalities:
            estimates = ", ".join(f"{node}~{count}" for node, count in self.cardinalities)
            lines.append(f"  estimated candidates (index popcounts): {estimates}")
        if self.edge_order:
            order = ", ".join(f"{u}->{v}" for u, v in self.edge_order)
            lines.append(f"  refinement order: {order}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def _selectivity_edge_order(
    pattern: Pattern, estimates: Dict[Any, int]
) -> Tuple[Tuple[Any, Any], ...]:
    """Pattern edges ordered for selectivity-first, sinks-first refinement.

    Components of the pattern come out of Tarjan sinks-first (reverse
    topological order of the condensation), so when the kernel seeds the
    edges in this order every child that lives in an earlier component is
    already fully refined — the edge is *final* and is checked once, never
    re-entered.  Within a component, parents are visited by ascending
    candidate estimate (smallest sets seed the worklist first) and each
    parent emits its cross-component edges before its intra-component ones,
    again sorted by the child's estimate.
    """
    component_of: Dict[Any, int] = {}
    for rank, component in enumerate(strongly_connected_components(pattern)):
        for node in component:
            component_of[node] = rank

    def node_key(node: Any) -> Tuple[int, str, str]:
        return (estimates.get(node, 0), str(node), repr(node))

    order: List[Tuple[Any, Any]] = []
    seen_components: List[List[Any]] = []
    # Rebuild components in rank order (Tarjan already emitted them so).
    by_rank: Dict[int, List[Any]] = {}
    for node, rank in component_of.items():
        by_rank.setdefault(rank, []).append(node)
    for rank in sorted(by_rank):
        seen_components.append(by_rank[rank])
    for component in seen_components:
        members = set(component)
        for parent in sorted(component, key=node_key):
            cross = [v for v in pattern.successors(parent) if v not in members]
            intra = [v for v in pattern.successors(parent) if v in members]
            for child in sorted(cross, key=node_key):
                order.append((parent, child))
            for child in sorted(intra, key=node_key):
                order.append((parent, child))
    return tuple(order)


def plan_query(
    pattern: Pattern,
    *,
    snapshot_version: int,
    updates: Optional[Sequence] = None,
    custom_oracle: bool = False,
    force_simulation: bool = False,
    compiled=None,
    selectivity_order: bool = True,
) -> QueryPlan:
    """Plan one query against a snapshot at *snapshot_version*.

    Parameters
    ----------
    pattern:
        The query pattern.
    snapshot_version:
        Version of the session's pinned compiled snapshot; part of the
        result-cache key.
    updates:
        An attached update stream (any sequence of
        :class:`~repro.distance.incremental.EdgeUpdate`); when given, the
        plan selects ``incremental`` regardless of the bounds.
    custom_oracle:
        ``True`` when the session was opened with an explicit distance
        oracle; the planner then never silently bypasses it with the
        adjacency fast path.
    force_simulation:
        Plan a graph-simulation query (bounds ignored by definition);
        used by :meth:`MatchSession.simulate`.
    compiled:
        The session's :class:`~repro.graph.compiled.CompiledGraph`; when
        given (and *selectivity_order* is true) the planner estimates
        per-node candidate cardinalities from the attribute index and
        orders edge refinement by selectivity — but only when the
        estimates are actually skewed (spread >= :data:`ORDER_MIN_SKEW`);
        near-uniform estimates keep the pattern's native ("seed") edge
        order.  Without a snapshot the plan always keeps the seed order.
    selectivity_order:
        Disable to plan without cost-based edge ordering even when a
        compiled snapshot is available (used by the equivalence tests and
        as an escape hatch).
    """
    reasons = []
    bounds = [pattern.bound(u, v) for u, v in pattern.edges()]
    has_unbounded = any(b is None for b in bounds)
    finite = [b for b in bounds if b is not None]
    max_bound = max(finite) if finite else None
    all_one = bool(bounds) and not has_unbounded and max_bound == 1

    if updates is not None:
        strategy = STRATEGY_INCREMENTAL
        reasons.append(
            f"update stream attached ({len(updates)} update(s)): maintain the "
            "standing match with IncMatch instead of recomputing after the batch"
        )
    elif force_simulation:
        strategy = STRATEGY_SIMULATION
        reasons.append(
            "graph simulation requested: edge bounds are ignored and every "
            "pattern edge maps to exactly one data edge"
        )
    elif not bounds:
        strategy = STRATEGY_SIMULATION
        reasons.append(
            "the pattern has no edges: candidate retrieval from the attribute "
            "index is the whole query, no reachability is needed"
        )
    elif all_one and not custom_oracle:
        strategy = STRATEGY_SIMULATION
        reasons.append(
            "every pattern edge carries bound 1: anc_1 of a child set is its "
            "predecessors, so the fixpoint runs on the CSR adjacency without "
            "a distance oracle"
        )
    else:
        strategy = STRATEGY_BOUNDED
        if all_one and custom_oracle:
            reasons.append(
                "an explicit distance oracle was supplied, so the adjacency "
                "fast path is not taken even though every bound is 1"
            )
        if custom_oracle:
            reasons.append(
                "an explicit distance oracle was supplied: the counting "
                "refinement checks each candidate's ball in that oracle"
            )
        if has_unbounded:
            reasons.append(
                "the pattern has '*' edges: reachability is unbounded"
            )
        if finite:
            reasons.append(
                f"largest finite bound k={max_bound}: anc_k of a child set is "
                "one reverse level search, at most k levels deep"
            )

    cardinalities: Tuple[Tuple[Any, int], ...] = ()
    edge_order: Tuple[Tuple[Any, Any], ...] = ()
    if (
        compiled is not None
        and selectivity_order
        and bounds
        and strategy in (STRATEGY_SIMULATION, STRATEGY_BOUNDED)
    ):
        estimates = {
            node: compiled.cardinality(pattern.predicate(node))
            for node in pattern.nodes()
        }
        lo, hi = min(estimates.values()), max(estimates.values())
        if lo == 0 or hi >= ORDER_MIN_SKEW * lo:
            edge_order = _selectivity_edge_order(pattern, estimates)
            reasons.append(
                "edge refinement ordered by estimated selectivity (index "
                "popcounts), sink sub-patterns first: leaves are resolved "
                "once and never re-entered"
            )
        else:
            reasons.append(
                "estimated cardinalities are near-uniform "
                f"(spread {hi}/{lo} < {ORDER_MIN_SKEW}x): seed order kept, "
                "ordering would buy nothing"
            )
        ordered_nodes: List[Any] = []
        for u, v in edge_order:
            for node in (u, v):
                if node not in ordered_nodes:
                    ordered_nodes.append(node)
        for node in pattern.nodes():
            if node not in ordered_nodes:
                ordered_nodes.append(node)
        cardinalities = tuple((node, estimates[node]) for node in ordered_nodes)
    return QueryPlan(
        strategy=strategy,
        fingerprint=pattern.fingerprint(),
        snapshot_version=snapshot_version,
        pattern_name=pattern.name,
        pattern_nodes=pattern.number_of_nodes(),
        pattern_edges=pattern.number_of_edges(),
        max_bound=max_bound,
        has_unbounded=has_unbounded,
        reasons=tuple(reasons),
        cardinalities=cardinalities,
        edge_order=edge_order,
    )
