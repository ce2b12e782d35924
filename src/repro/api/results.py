"""Lazy result views over the kernel :class:`~repro.matching.match_result.MatchResult`.

The matching kernel returns a :class:`MatchResult` — an immutable relation
``S ⊆ V_p × V`` with set algebra, sized for the algorithms and the
experiment harness.  :class:`ResultView` is the *user-facing* surface over
it: per-pattern-node projections that pull data-node attributes lazily,
tabular/JSON export, and the paper's result-graph extraction (Section 2.2)
— without ever copying the underlying relation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId
from repro.matching.match_result import MatchResult
from repro.matching.result_graph import ResultGraph, build_result_graph

__all__ = ["ResultView", "NodeProjection"]


class NodeProjection:
    """The lazy projection of one pattern node's matches.

    Iterating yields data-node ids; :meth:`rows` resolves attributes from
    the data graph on demand (nothing is materialised up front).
    """

    __slots__ = ("_pattern_node", "_matches", "_graph")

    def __init__(
        self,
        pattern_node: PatternNodeId,
        matches: FrozenSet[NodeId],
        graph: Optional[DataGraph],
    ) -> None:
        self._pattern_node = pattern_node
        self._matches = matches
        self._graph = graph

    @property
    def pattern_node(self) -> PatternNodeId:
        """The pattern node this projection belongs to."""
        return self._pattern_node

    def ids(self) -> List[NodeId]:
        """The matching data-node ids, sorted for deterministic output."""
        return sorted(self._matches, key=lambda node: (str(node), repr(node)))

    def rows(self, *attributes: str) -> Iterator[Dict[str, Any]]:
        """Yield one dict per matching data node, attributes resolved lazily.

        With explicit *attributes* only those keys are projected (missing
        attributes come back as ``None``); without, the node's full
        attribute mapping is included.
        """
        for node in self.ids():
            row: Dict[str, Any] = {"node": node}
            if self._graph is not None and self._graph.has_node(node):
                attrs = self._graph.attributes(node)
                if attributes:
                    row.update({name: attrs.get(name) for name in attributes})
                else:
                    row.update(attrs)
            elif attributes:
                row.update({name: None for name in attributes})
            yield row

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.ids())

    def __len__(self) -> int:
        return len(self._matches)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._matches

    def __bool__(self) -> bool:
        return bool(self._matches)

    def __repr__(self) -> str:
        return f"<NodeProjection {self._pattern_node!r}: {len(self._matches)} nodes>"


class ResultView:
    """The public view of one query's maximum match.

    Wraps the kernel's :class:`MatchResult` (kept intact under
    :attr:`result`) together with the pattern and the data graph the query
    ran against, so projections can resolve attributes and the result graph
    can be extracted.  Truthiness and sizes delegate to the relation.
    """

    __slots__ = ("_pattern", "_result", "_graph", "_oracle", "affected")

    def __init__(
        self,
        pattern: Pattern,
        result: MatchResult,
        *,
        graph: Optional[DataGraph] = None,
        oracle: Any = None,
        affected: Any = None,
    ) -> None:
        self._pattern = pattern
        self._result = result
        self._graph = graph
        self._oracle = oracle
        #: The :class:`~repro.matching.affected.AffectedArea` of the update
        #: stream that produced this view (``None`` for plain queries).
        self.affected = affected

    # -- the wrapped kernel objects --------------------------------------

    @property
    def result(self) -> MatchResult:
        """The underlying kernel relation (set algebra lives there)."""
        return self._result

    @property
    def pattern(self) -> Pattern:
        """The pattern this view answers."""
        return self._pattern

    # -- relation queries -------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """``True`` when the pattern has no match."""
        return self._result.is_empty

    def __bool__(self) -> bool:
        return bool(self._result)

    def __len__(self) -> int:
        """The cardinality ``|S|`` (number of pairs)."""
        return len(self._result)

    def __iter__(self) -> Iterator[Tuple[PatternNodeId, NodeId]]:
        return self._result.pairs()

    def pattern_nodes(self) -> List[PatternNodeId]:
        """The pattern's nodes in declaration order."""
        return self._pattern.node_list()

    def __getitem__(self, pattern_node: PatternNodeId) -> NodeProjection:
        return self.project(pattern_node)

    def project(self, pattern_node: PatternNodeId) -> NodeProjection:
        """The lazy :class:`NodeProjection` of one pattern node."""
        return NodeProjection(
            pattern_node, self._result.matches(pattern_node), self._graph
        )

    # -- tabular / JSON export --------------------------------------------

    def to_rows(self, *, attributes: Sequence[str] = ()) -> List[Dict[str, Any]]:
        """The relation as a flat, deterministic table.

        One row per ``(pattern node, data node)`` pair, in pattern
        declaration order then sorted data-node order; *attributes* are
        projected from the data graph per row when requested.
        """
        rows: List[Dict[str, Any]] = []
        for pattern_node in self._pattern.nodes():
            projection = self.project(pattern_node)
            for node in projection.ids():
                row: Dict[str, Any] = {
                    "pattern_node": pattern_node,
                    "data_node": node,
                }
                if attributes and self._graph is not None and self._graph.has_node(node):
                    attrs = self._graph.attributes(node)
                    row.update({name: attrs.get(name) for name in attributes})
                elif attributes:
                    row.update({name: None for name in attributes})
                rows.append(row)
        return rows

    def to_mapping(self) -> Dict[str, List[str]]:
        """JSON-friendly mapping: pattern node -> sorted data-node names.

        Names come from :meth:`MatchResult.sorted_names`, so an undecoded
        engine result renders without building any node-id set.
        """
        result = self._result
        return {
            str(u): result.sorted_names(u)
            for u in result.pattern_nodes()
            if result.match_count(u)
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The mapping of :meth:`to_mapping` as a JSON document."""
        return json.dumps(self.to_mapping(), indent=indent, sort_keys=True)

    # -- factorised representation ----------------------------------------

    def factorised(self) -> "FactorisedView":
        """This result as a :class:`~repro.api.factorised.FactorisedView`.

        Per-node candidate columns plus on-demand edge certificates instead
        of materialised assignment tuples: ``count_factorised()`` is an
        ``O(|V_p|)`` product and ``to_rows()`` streams the cross product
        lazily — the representation of choice when the tuple count is
        combinatorial (see the module docs of :mod:`repro.api.factorised`).
        """
        from repro.api.factorised import FactorisedView

        return FactorisedView(
            self._pattern, self._result, graph=self._graph, oracle=self._oracle
        )

    # -- result graph ------------------------------------------------------

    def graph(self, *, strict: bool = True) -> ResultGraph:
        """Extract the result graph ``G_r`` (Section 2.2, Fig. 3).

        Uses the session's distance oracle when the view came from a
        :class:`~repro.api.handle.GraphHandle` query, so bounded-path
        verification reuses the session's ball memos.
        """
        if self._graph is None:
            raise ValueError(
                "this ResultView was built without a data graph; "
                "construct it through GraphHandle.query(...) to extract G_r"
            )
        oracle = self._oracle() if callable(self._oracle) else self._oracle
        return build_result_graph(
            self._pattern, self._graph, self._result, oracle, strict=strict
        )

    def __repr__(self) -> str:
        status = "empty" if self.is_empty else f"{len(self)} pairs"
        name = self._pattern.name or f"{self._pattern.number_of_nodes()} nodes"
        return f"<ResultView {name}: {status}>"
