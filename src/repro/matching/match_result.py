"""The match relation ``S`` returned by the matching algorithms.

A match is a binary relation ``S ⊆ V_p × V``: each pattern node is related
to the (possibly many) data nodes that simulate it.  :class:`MatchResult`
wraps that relation with the bookkeeping the experiments need (sizes,
per-node counts, set operations) and with the paper's convention that the
relation is *empty* unless **every** pattern node has at least one match
(Algorithm ``Match`` returns ``∅`` as soon as some ``mat(u)`` empties).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Set, Tuple

from repro.graph.datagraph import NodeId
from repro.graph.pattern import Pattern, PatternNodeId

__all__ = ["MatchResult"]


class MatchResult:
    """An immutable view of a bounded-simulation match relation.

    Parameters
    ----------
    mapping:
        ``{pattern node: set of matching data nodes}``.  Pattern nodes with
        no matches may be omitted or mapped to an empty set — either way the
        relation is considered empty unless *pattern_nodes* is ``None`` or
        every pattern node has at least one match.
    pattern_nodes:
        The full pattern node set, used to decide totality.  When ``None``
        the keys of *mapping* are assumed to be the full set.
    """

    __slots__ = ("_mapping", "_total", "_pattern_nodes")

    def __init__(
        self,
        mapping: Mapping[PatternNodeId, Iterable[NodeId]],
        pattern_nodes: Iterable[PatternNodeId] = None,
    ) -> None:
        frozen: Dict[PatternNodeId, FrozenSet[NodeId]] = {
            u: frozenset(vs) for u, vs in mapping.items()
        }
        if pattern_nodes is None:
            required = set(frozen)
        else:
            required = set(pattern_nodes)
        total = bool(required) and all(frozen.get(u) for u in required)
        if not total:
            frozen = {}
        self._mapping = frozen
        self._total = total
        self._pattern_nodes = frozenset(required)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(
        cls, pattern_nodes: Iterable[PatternNodeId] = ()
    ) -> "MatchResult":
        """The empty relation (``P`` does not match ``G``).

        *pattern_nodes* carries the pattern's node list, so an empty result
        reports the same :meth:`pattern_nodes` as a non-empty one would.
        """
        return cls({}, pattern_nodes=pattern_nodes)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[PatternNodeId, NodeId]],
        pattern: Pattern = None,
    ) -> "MatchResult":
        """Build a result from ``(pattern node, data node)`` pairs."""
        mapping: Dict[PatternNodeId, Set[NodeId]] = {}
        for u, v in pairs:
            mapping.setdefault(u, set()).add(v)
        pattern_nodes = pattern.node_list() if pattern is not None else None
        return cls(mapping, pattern_nodes=pattern_nodes)

    # ------------------------------------------------------------------
    # relation queries
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """``True`` when the relation is empty (no match exists)."""
        return not self._mapping

    def __bool__(self) -> bool:
        return not self.is_empty

    def matches(self, pattern_node: PatternNodeId) -> FrozenSet[NodeId]:
        """The data nodes matching *pattern_node* (empty set when none)."""
        return self._mapping.get(pattern_node, frozenset())

    def __getitem__(self, pattern_node: PatternNodeId) -> FrozenSet[NodeId]:
        return self.matches(pattern_node)

    def contains(self, pattern_node: PatternNodeId, data_node: NodeId) -> bool:
        """``True`` when ``(pattern_node, data_node)`` is in the relation."""
        return data_node in self._mapping.get(pattern_node, frozenset())

    def __contains__(self, pair: Tuple[PatternNodeId, NodeId]) -> bool:
        pattern_node, data_node = pair
        return self.contains(pattern_node, data_node)

    def pairs(self) -> Iterator[Tuple[PatternNodeId, NodeId]]:
        """Iterate over all ``(pattern node, data node)`` pairs."""
        for u, vs in self._mapping.items():
            for v in vs:
                yield (u, v)

    def pattern_nodes(self) -> FrozenSet[PatternNodeId]:
        """The pattern's node set as seen at construction time.

        For a non-empty relation this equals the set of matched pattern
        nodes (the relation is total by definition); an empty result built
        with ``pattern_nodes=`` still reports the pattern's nodes instead of
        the empty set.
        """
        return self._pattern_nodes

    def matched_data_nodes(self) -> FrozenSet[NodeId]:
        """All data nodes appearing in the relation (the result-graph node set)."""
        nodes: Set[NodeId] = set()
        for vs in self._mapping.values():
            nodes |= vs
        return frozenset(nodes)

    def as_dict(self) -> Dict[PatternNodeId, FrozenSet[NodeId]]:
        """Return the relation as a plain dict."""
        return dict(self._mapping)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """The cardinality ``|S|`` (number of pairs)."""
        return sum(len(vs) for vs in self._mapping.values())

    def total_matches(self) -> int:
        """Alias of ``len(self)``."""
        return len(self)

    def matches_per_pattern_node(self) -> Dict[PatternNodeId, int]:
        """``{pattern node: number of matching data nodes}``."""
        return {u: len(vs) for u, vs in self._mapping.items()}

    def average_matches_per_pattern_node(self) -> float:
        """Average number of data nodes per matched pattern node (0 when empty)."""
        if not self._mapping:
            return 0.0
        return len(self) / len(self._mapping)

    # ------------------------------------------------------------------
    # set algebra and comparison
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Relation equality *for the same pattern shape*.

        Two results are equal when they hold the same pairs **and** were
        built over the same pattern node set — an empty result for a 3-node
        pattern is not the same answer as an empty result for a 5-node
        pattern, even though both relations are ``∅``.
        """
        if not isinstance(other, MatchResult):
            return NotImplemented
        return (
            self._mapping == other._mapping
            and self._pattern_nodes == other._pattern_nodes
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset((u, vs) for u, vs in self._mapping.items()),
                self._pattern_nodes,
            )
        )

    def is_subrelation_of(self, other: "MatchResult") -> bool:
        """``True`` when every pair of ``self`` is also in *other*."""
        return all(other.contains(u, v) for u, v in self.pairs())

    def difference(self, other: "MatchResult") -> Set[Tuple[PatternNodeId, NodeId]]:
        """The pairs present in ``self`` but not in *other*."""
        return {pair for pair in self.pairs() if not other.contains(*pair)}

    def symmetric_difference(
        self, other: "MatchResult"
    ) -> Set[Tuple[PatternNodeId, NodeId]]:
        """Pairs present in exactly one of the two relations (the paper's AFF2 core)."""
        return self.difference(other) | other.difference(self)

    def __repr__(self) -> str:
        if self.is_empty:
            return "MatchResult(empty)"
        return (
            f"MatchResult({len(self._mapping)} pattern nodes, "
            f"{len(self)} pairs)"
        )
