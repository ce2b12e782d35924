"""The match relation ``S`` returned by the matching algorithms.

A match is a binary relation ``S ⊆ V_p × V``: each pattern node is related
to the (possibly many) data nodes that simulate it.  :class:`MatchResult`
wraps that relation with the bookkeeping the experiments need (sizes,
per-node counts, set operations) and with the paper's convention that the
relation is *empty* unless **every** pattern node has at least one match
(Algorithm ``Match`` returns ``∅`` as soon as some ``mat(u)`` empties).

The engine's answers stay bitsets until someone reads them:
:meth:`MatchResult.from_bits` wraps the fixpoint's ``{u: bitset}`` sets
together with the snapshot's append-only
:class:`~repro.graph.compiled.NodeTable`.  Sizes and per-node counts are
``bit_count()`` calls, ``==`` between two results of one snapshot compares
the bitsets, and :meth:`MatchResult.sorted_names` (the JSON rendering)
selects from the table's ``str`` names.  A node-id set is decoded for a
pattern node on the first :meth:`MatchResult.matches` (or set-algebra)
call and kept.  The result never holds the
:class:`~repro.graph.compiled.CompiledGraph` itself, so a cached result
keeps no CSR arrays or distance store alive.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple,
)

from repro.graph.compiled import select_members
from repro.graph.datagraph import NodeId
from repro.graph.pattern import Pattern, PatternNodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.compiled import CompiledGraph, NodeTable

__all__ = ["MatchResult"]

_NO_MATCHES: FrozenSet[NodeId] = frozenset()


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

    __slots__ = ("_mapping", "_total", "_pattern_nodes", "_member_bits", "_table")

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
        # Set only by from_bits: the undecoded sets and their node table.
        self._member_bits: Optional[Dict[PatternNodeId, int]] = None
        self._table: Optional["NodeTable"] = None

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

    @classmethod
    def from_bits(
        cls,
        bits: Mapping[PatternNodeId, int],
        compiled: "CompiledGraph",
        pattern_nodes: Iterable[PatternNodeId] = None,
    ) -> "MatchResult":
        """Wrap ``{pattern node: bitset over compiled's interned ids}``, undecoded.

        Equal to ``MatchResult({u: compiled.decode(b) ...}, pattern_nodes)``
        in every query, but decodes nothing up front (see the module
        docstring).  *bits* is copied, so the caller may keep refining its
        own dict.
        """
        required = set(bits) if pattern_nodes is None else set(pattern_nodes)
        self = cls({}, pattern_nodes=required)
        if required and all(bits.get(u) for u in required):
            self._total = True
            self._member_bits = dict(bits)
            self._table = compiled.node_table
        return self

    # ------------------------------------------------------------------
    # decoding (lazy results only)
    # ------------------------------------------------------------------

    def _decoded(self) -> Dict[PatternNodeId, FrozenSet[NodeId]]:
        """The whole ``{u: frozenset}`` mapping, decoding what is still pending."""
        member_bits = self._member_bits
        if member_bits is not None and len(self._mapping) < len(member_bits):
            self._mapping = {u: self.matches(u) for u in member_bits}
        return self._mapping

    def _sizes(self) -> Dict[PatternNodeId, int]:
        member_bits = self._member_bits
        if member_bits is not None:
            return {u: bits.bit_count() for u, bits in member_bits.items()}
        return {u: len(vs) for u, vs in self._mapping.items()}

    # ------------------------------------------------------------------
    # relation queries
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """``True`` when the relation is empty (no match exists)."""
        return not self._total

    def __bool__(self) -> bool:
        return self._total

    def matches(self, pattern_node: PatternNodeId) -> FrozenSet[NodeId]:
        """The data nodes matching *pattern_node* (empty set when none)."""
        found = self._mapping.get(pattern_node)
        if found is not None:
            return found
        member_bits = self._member_bits
        if member_bits is None or pattern_node not in member_bits:
            return _NO_MATCHES
        found = frozenset(
            select_members(self._table.nodes, member_bits[pattern_node])
        )
        self._mapping[pattern_node] = found
        return found

    def __getitem__(self, pattern_node: PatternNodeId) -> FrozenSet[NodeId]:
        return self.matches(pattern_node)

    def match_count(self, pattern_node: PatternNodeId) -> int:
        """``len(self.matches(pattern_node))``, without decoding the set."""
        member_bits = self._member_bits
        if member_bits is not None:
            return member_bits.get(pattern_node, 0).bit_count()
        return len(self._mapping.get(pattern_node, _NO_MATCHES))

    def sorted_names(self, pattern_node: PatternNodeId) -> List[str]:
        """``sorted(str(v) for v in self.matches(pattern_node))``.

        A lazy result selects the names from its snapshot's name table, so
        rendering builds no node-id set and converts no node twice.
        """
        member_bits = self._member_bits
        if member_bits is not None:
            return sorted(
                select_members(self._table.names(), member_bits.get(pattern_node, 0))
            )
        return sorted(map(str, self.matches(pattern_node)))

    def contains(self, pattern_node: PatternNodeId, data_node: NodeId) -> bool:
        """``True`` when ``(pattern_node, data_node)`` is in the relation."""
        return data_node in self.matches(pattern_node)

    def __contains__(self, pair: Tuple[PatternNodeId, NodeId]) -> bool:
        pattern_node, data_node = pair
        return self.contains(pattern_node, data_node)

    def pairs(self) -> Iterator[Tuple[PatternNodeId, NodeId]]:
        """Iterate over all ``(pattern node, data node)`` pairs."""
        for u, vs in self._decoded().items():
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
        for vs in self._decoded().values():
            nodes |= vs
        return frozenset(nodes)

    def as_dict(self) -> Dict[PatternNodeId, FrozenSet[NodeId]]:
        """Return the relation as a plain dict."""
        return dict(self._decoded())

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """The cardinality ``|S|`` (number of pairs)."""
        return sum(self._sizes().values())

    def total_matches(self) -> int:
        """Alias of ``len(self)``."""
        return len(self)

    def matches_per_pattern_node(self) -> Dict[PatternNodeId, int]:
        """``{pattern node: number of matching data nodes}``."""
        return self._sizes()

    def average_matches_per_pattern_node(self) -> float:
        """Average number of data nodes per matched pattern node (0 when empty)."""
        sizes = self._sizes()
        if not sizes:
            return 0.0
        return sum(sizes.values()) / len(sizes)

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
        if self._pattern_nodes != other._pattern_nodes:
            return False
        if self._table is not None and self._table is other._table:
            # One interning table: equal bitsets are equal node sets.
            return self._member_bits == other._member_bits
        return self._decoded() == other._decoded()

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._decoded().items()),
                self._pattern_nodes,
            )
        )

    def __reduce__(self):
        # Pickles as the decoded relation, so a lazy result does not ship
        # its snapshot's whole node table.
        return (MatchResult, (self.as_dict(), self._pattern_nodes))

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
            f"MatchResult({len(self._sizes())} pattern nodes, "
            f"{len(self)} pairs)"
        )
