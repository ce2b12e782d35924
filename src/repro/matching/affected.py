"""Affected-area accounting for incremental matching (Section 4.1).

Ramalingam & Reps argue that an incremental algorithm should be measured by
the size of the *affected area* rather than the size of the whole input.  The
paper instantiates this with two areas:

* ``AFF1`` — the node pairs of the data graph whose distance is changed by
  the update list ``δ`` (the changes to the matrix ``M``);
* ``AFF2`` — the difference between the new and the old match ``S``, along
  with the nodes adjacent to the changed pairs in the pattern and in the
  data graph.

:class:`AffectedArea` records both for a single incremental operation so the
benchmarks can report the ``|AFF|`` figures shown in Fig. 6(i)–(k) and in the
appendix statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.distance.incremental import merge_affected_into
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distance.incremental import InternedAffectedPairs
    from repro.graph.compiled import NodeTable

__all__ = ["AffectedArea"]

MatchPair = Tuple[PatternNodeId, NodeId]
DistancePair = Tuple[NodeId, NodeId]


class AffectedArea:
    """The affected areas of one incremental matching operation.

    ``AFF1`` built by :meth:`from_interned` stays over interned ids until
    :attr:`distance_changes` is first read; :attr:`aff1_size` counts it
    undecoded.
    """

    __slots__ = ("_aff1", "_table", "removed_matches", "added_matches")

    def __init__(
        self,
        distance_changes: Optional[Dict[DistancePair, Tuple[float, float]]] = None,
        removed_matches: Optional[Set[MatchPair]] = None,
        added_matches: Optional[Set[MatchPair]] = None,
    ) -> None:
        self._aff1 = {} if distance_changes is None else distance_changes
        #: The interning table ``_aff1`` is keyed over; ``None`` once decoded.
        self._table: Optional["NodeTable"] = None
        #: Match pairs removed from the relation.
        self.removed_matches: Set[MatchPair] = (
            set() if removed_matches is None else removed_matches
        )
        #: Match pairs added to the relation.
        self.added_matches: Set[MatchPair] = (
            set() if added_matches is None else added_matches
        )

    @classmethod
    def from_interned(
        cls,
        aff1: "InternedAffectedPairs",
        table: "NodeTable",
        removed_matches: Optional[Set[MatchPair]] = None,
        added_matches: Optional[Set[MatchPair]] = None,
    ) -> "AffectedArea":
        """An area whose ``AFF1`` is keyed by ids interned in *table*, undecoded.

        *table* is the snapshot's append-only
        :class:`~repro.graph.compiled.NodeTable`, so the ids decode the same
        however the snapshot is patched, re-interned or replaced later.
        """
        self = cls(None, removed_matches, added_matches)
        self._aff1 = aff1
        self._table = table
        return self

    @property
    def distance_changes(self) -> Dict[DistancePair, Tuple[float, float]]:
        """Node pairs whose distance changed, with (old, new) distances."""
        table = self._table
        if table is not None:
            nodes = table.nodes
            self._aff1 = {
                (nodes[x], nodes[y]): change for (x, y), change in self._aff1.items()
            }
            self._table = None
        return self._aff1

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------

    @property
    def aff1_size(self) -> int:
        """``|AFF1|``: the number of node pairs whose distance changed."""
        return len(self._aff1)

    @property
    def aff2_core_size(self) -> int:
        """The number of match pairs added or removed (the core of ``AFF2``)."""
        return len(self.removed_matches) + len(self.added_matches)

    @property
    def total_size(self) -> int:
        """``|AFF1| + |AFF2|`` with the core AFF2 measure (reported in Fig. 6(i)-(k))."""
        return self.aff1_size + self.aff2_core_size

    def aff2_extended_size(self, pattern: Pattern, graph: DataGraph) -> int:
        """The paper's extended ``|AFF2|``: changed pairs plus adjacent nodes.

        For every changed match pair ``(u, v)`` the pattern neighbours of
        ``u`` and the data-graph neighbours of ``v`` are counted as well
        (Appendix, "Complexity" paragraph of UpdateM/UpdateBM).
        """
        pattern_nodes: Set[PatternNodeId] = set()
        data_nodes: Set[NodeId] = set()
        for u, v in self.removed_matches | self.added_matches:
            pattern_nodes.add(u)
            if pattern.has_node(u):
                pattern_nodes |= pattern.successors(u)
                pattern_nodes |= pattern.predecessors(u)
            data_nodes.add(v)
            if graph.has_node(v):
                data_nodes |= graph.successors(v)
                data_nodes |= graph.predecessors(v)
        return len(pattern_nodes) + len(data_nodes)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------

    def merge(self, other: "AffectedArea") -> "AffectedArea":
        """Compose two affected areas from consecutive operations.

        Distance pairs whose merged net change is ``old == new`` (a change
        undone by the later operation) drop out — they are not part of the
        composed ``AFF1``.
        """
        distance_changes = {
            pair: change
            for pair, change in self.distance_changes.items()
            if change[0] != change[1]
        }
        merged = AffectedArea(
            distance_changes=merge_affected_into(
                distance_changes, other.distance_changes
            ),
            removed_matches=set(self.removed_matches),
            added_matches=set(self.added_matches),
        )
        # A pair removed then re-added (or vice versa) nets out.
        for pair in other.removed_matches:
            if pair in merged.added_matches:
                merged.added_matches.discard(pair)
            else:
                merged.removed_matches.add(pair)
        for pair in other.added_matches:
            if pair in merged.removed_matches:
                merged.removed_matches.discard(pair)
            else:
                merged.added_matches.add(pair)
        return merged

    def summary(self) -> Dict[str, int]:
        """Flat dict of the headline sizes (for experiment reports)."""
        return {
            "aff1": self.aff1_size,
            "aff2": self.aff2_core_size,
            "removed": len(self.removed_matches),
            "added": len(self.added_matches),
            "total": self.total_size,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffectedArea):
            return NotImplemented
        return (
            self.distance_changes == other.distance_changes
            and self.removed_matches == other.removed_matches
            and self.added_matches == other.added_matches
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"AffectedArea(aff1={self.aff1_size}, "
            f"removed={len(self.removed_matches)}, added={len(self.added_matches)})"
        )
