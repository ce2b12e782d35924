"""Factorised result representation (FDB-style) over a maximum match.

A bounded-simulation result is a relation ``S ⊆ V_p × V``; the set of
*assignment tuples* it induces — one data node per pattern node — is its
cross product, which explodes combinatorially long before the relation
itself is large.  :class:`FactorisedView` keeps the result factorised the
way FDB keeps relational results factorised: one **column** of candidates
per pattern node plus on-demand **edge certificates** (which child
candidates witness a pattern edge for a given parent candidate), instead of
the materialised tuple set.

* :meth:`FactorisedView.count_factorised` is the tuple count as a product
  of column sizes — ``O(|V_p|)`` big-int arithmetic, never a tuple scan
  (the count routinely exceeds machine precision, which is also why the
  class deliberately has no ``__len__``).
* :meth:`FactorisedView.to_rows` *streams* tuples from the factorisation:
  memory stays ``O(sum of column sizes)`` no matter how many rows are
  enumerated.  With ``connected=True`` enumeration backtracks over the
  edge certificates so only tuples in which every pattern edge is
  witnessed by a bounded path are produced.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId
from repro.matching.match_result import MatchResult

__all__ = ["FactorisedView"]


def _sort_key(node: NodeId) -> Tuple[str, str]:
    # Same deterministic order as NodeProjection.ids().
    return (str(node), repr(node))


class FactorisedView:
    """A factorised (columns + certificates) view of one maximum match.

    Built via :meth:`repro.api.ResultView.factorised`; shares the kernel
    :class:`MatchResult` with the originating view and materialises nothing
    beyond per-node candidate columns (lazily, on first access) and the
    edge certificates actually asked for.
    """

    __slots__ = ("_pattern", "_result", "_graph", "_oracle", "_column_cache", "_certs")

    def __init__(
        self,
        pattern: Pattern,
        result: MatchResult,
        *,
        graph: Optional[DataGraph] = None,
        oracle: Any = None,
    ) -> None:
        self._pattern = pattern
        self._result = result
        self._graph = graph
        self._oracle = oracle
        self._column_cache: Dict[PatternNodeId, List[NodeId]] = {}
        self._certs: Dict[
            Tuple[PatternNodeId, PatternNodeId], Dict[NodeId, FrozenSet[NodeId]]
        ] = {}

    # -- the factorisation -------------------------------------------------

    @property
    def pattern(self) -> Pattern:
        """The pattern this view answers."""
        return self._pattern

    @property
    def result(self) -> MatchResult:
        """The underlying kernel relation."""
        return self._result

    def column(self, pattern_node: PatternNodeId) -> List[NodeId]:
        """The sorted candidate column of one pattern node (cached)."""
        column = self._column_cache.get(pattern_node)
        if column is None:
            column = sorted(self._result.matches(pattern_node), key=_sort_key)
            self._column_cache[pattern_node] = column
        return column

    def columns(self) -> Dict[PatternNodeId, List[NodeId]]:
        """All candidate columns, keyed by pattern node (declaration order)."""
        return {u: self.column(u) for u in self._pattern.nodes()}

    def count_factorised(self) -> int:
        """The number of assignment tuples, as a product of column sizes.

        ``O(|V_p|)`` multiplications of the match-set sizes — the tuple set
        itself is never enumerated and no set is decoded, built or sorted,
        so the count is exact even when it far exceeds what could ever be
        materialised.  (An empty pattern counts one empty tuple, the usual
        empty-product convention.)
        """
        count = 1
        for u in self._pattern.nodes():
            count *= self._result.match_count(u)
            if not count:
                return 0
        return count

    def __bool__(self) -> bool:
        return self.count_factorised() != 0

    # -- edge certificates -------------------------------------------------

    def certificate(
        self, source: PatternNodeId, target: PatternNodeId
    ) -> Dict[NodeId, FrozenSet[NodeId]]:
        """Which child candidates witness edge ``(source, target)`` per parent.

        For every candidate ``v`` of *source*, the certificate holds the
        candidates of *target* reachable from ``v`` within the edge's bound
        — the per-edge factor of the result, computed once per edge through
        the session's distance oracle (ball memos shared with the engine)
        and cached on the view.
        """
        edge = (source, target)
        cert = self._certs.get(edge)
        if cert is not None:
            return cert
        bound = self._pattern.bound(source, target)  # raises on a non-edge
        oracle = self._oracle() if callable(self._oracle) else self._oracle
        if oracle is None:
            raise ValueError(
                "this FactorisedView was built without a distance oracle; "
                "construct it through GraphHandle.query(...).factorised() "
                "to resolve edge certificates"
            )
        child_matches = self._result.matches(target)
        cert = {
            v: frozenset(oracle.descendants_within(v, bound) & child_matches)
            for v in self.column(source)
        }
        self._certs[edge] = cert
        return cert

    # -- enumeration -------------------------------------------------------

    def to_rows(self, *, connected: bool = False) -> Iterator[Dict[PatternNodeId, NodeId]]:
        """Stream assignment tuples ``{pattern node: data node}`` lazily.

        The default enumerates the full cross product of the columns in
        deterministic (column-sorted) order without ever materialising it —
        consume with ``itertools.islice`` for a bounded prefix.  With
        ``connected=True`` the enumeration backtracks over the edge
        certificates and yields only tuples in which every pattern edge is
        witnessed by a bounded path between the assigned data nodes.
        """
        nodes = self._pattern.node_list()
        if not nodes:
            return iter(())
        if not connected:
            columns = [self.column(u) for u in nodes]

            def product() -> Iterator[Dict[PatternNodeId, NodeId]]:
                for assignment in itertools.product(*columns):
                    yield dict(zip(nodes, assignment))

            return product()
        # Check each pattern edge as soon as both endpoints are assigned,
        # so a dead prefix is pruned before its subtree is enumerated.
        position = {u: i for i, u in enumerate(nodes)}
        checks: List[List[Tuple[PatternNodeId, PatternNodeId]]] = [[] for _ in nodes]
        for u, v in self._pattern.edges():
            checks[max(position[u], position[v])].append((u, v))

        def backtrack() -> Iterator[Dict[PatternNodeId, NodeId]]:
            assignment: Dict[PatternNodeId, NodeId] = {}

            def extend(depth: int) -> Iterator[Dict[PatternNodeId, NodeId]]:
                if depth == len(nodes):
                    yield dict(assignment)
                    return
                u = nodes[depth]
                for candidate in self.column(u):
                    assignment[u] = candidate
                    if all(
                        assignment[child] in self.certificate(parent, child).get(
                            assignment[parent], frozenset()
                        )
                        for parent, child in checks[depth]
                    ):
                        yield from extend(depth + 1)
                assignment.pop(u, None)

            return extend(0)

        return backtrack()

    def __repr__(self) -> str:
        sizes = "x".join(str(self._result.match_count(u)) for u in self._pattern.nodes())
        name = self._pattern.name or f"{self._pattern.number_of_nodes()} nodes"
        return f"<FactorisedView {name}: {sizes or '0'} factorised>"
