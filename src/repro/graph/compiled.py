"""Compiled snapshots of :class:`~repro.graph.datagraph.DataGraph`.

The mutable :class:`DataGraph` is convenient for the incremental algorithms of
Section 4, but its dict-of-sets adjacency and per-node attribute dicts make
the matching inner loops pay Python hashing costs on every operation.  This
module provides :class:`CompiledGraph`, a snapshot that

* **interns** arbitrary hashable node ids into dense integers ``0..n-1``;
* stores forward and reverse adjacency in **CSR form** (``array('i')``
  offsets plus a flat target array), so neighbour scans are contiguous;
* maintains an **inverted attribute index** ``(attribute, value) -> bitset``
  so the candidate set of an equality predicate is an index lookup instead of
  a full ``|V|`` scan;
* answers bounded-reachability queries as **Python-int bitsets** (one bit per
  interned node), on which the matching refinement performs intersections
  with ``&`` and support counting with ``int.bit_count()``.

Snapshots are cheap to look up and lazily (re)built: :func:`compile_graph`
caches one snapshot per :class:`DataGraph` (weakly, so discarded graphs are
collectable) and recompiles only when the graph's
:attr:`~repro.graph.datagraph.DataGraph.version` counter has moved by more
than pure node additions, which it interns in place.

Mutation tolerance
------------------
The CSR core is immutable, but a snapshot can be **patched** to follow the
edge updates of the incremental algorithms instead of being recompiled from
scratch on every mutation:

* :meth:`CompiledGraph.patch_edge_insert` / :meth:`patch_edge_delete` record
  the new adjacency of the two endpoints in a per-node bitset overlay (the
  CSR arrays stay untouched and serve every unpatched node);
* :meth:`CompiledGraph.intern_node` appends a fresh node at the next dense
  index, so existing interned ids — and therefore every bitset held by a
  caller — stay valid while ``all_bits`` grows (Python-int bitsets resize
  for free);
* each patch re-synchronises :attr:`version` with the source graph **only**
  when the graph moved by exactly the one mutation being patched; any
  out-of-band change leaves the snapshot stale, which downstream consumers
  (:func:`compile_graph`, the oracles' staleness guards) detect.
  :func:`compile_graph` interns out-of-band node additions into the stale
  snapshot when they are the graph's only changes, and answers anything
  else with a full recompile.

Decoding
--------
Callers never observe the interned integers, but results stay bitsets until
they are read: :meth:`~repro.matching.match_result.MatchResult.from_bits`
holds a snapshot's :class:`NodeTable` (its append-only interning list and
lazily converted ``str`` names) instead of decoded sets.  Every decode runs
one kernel with two routes, chosen by density: :func:`select_members`
(``table[i]`` for each set bit ``i``, behind :meth:`CompiledGraph.decode`)
and :func:`bits_to_indices`.  A dense set is selected in C by one
``itertools.compress`` over a byte selector built from ``format(bits,
"b")``; a sparse one is read from its 64-bit words, a few small-int
operations per member.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from itertools import compress
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis import sanitize as _sanitize
from repro.exceptions import NodeNotFoundError
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.predicates import Predicate

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "iter_bits",
    "bits_to_indices",
    "indices_to_bits",
    "select_members",
    "NodeTable",
]


def iter_bits(bits: int) -> Iterator[int]:
    """Iterate over the indices of the set bits of *bits*, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


#: The density crossover of the decode kernel: a bitset with at least one
#: member per this many bits of width decodes through the dense selector,
#: a sparser one through the word scan.  Measured on 1,483-, 8,193- and
#: 30,000-node bitsets, the two routes cost the same at about one member
#: per 16 (decoding to indices) to 28 (decoding to node ids) bits.
_DENSE_WIDTH_PER_MEMBER = 16

#: ``0, 1, 2, ...``, grown on demand to the widest bitset decoded to
#: indices: the dense route selects from it, so it allocates no int per
#: bit of width.
_INDICES: List[int] = []

#: The digits "0"/"1" as the bytes 0/1, for :func:`_selector`.
_SELECTOR_BYTES = bytes.maketrans(b"01", b"\x00\x01")

#: The bytes 0 and 1 as the digits "0" and "1", for :func:`indices_to_bits`.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _is_dense(bits: int) -> bool:
    return bits.bit_count() * _DENSE_WIDTH_PER_MEMBER >= bits.bit_length()


def _selector(bits: int) -> bytes:
    """One byte per bit of *bits*, lowest bit first: 1 where the bit is set.

    Built in C: the binary numeral, its digits translated to the bytes 0/1,
    reversed into index order.  ``itertools.compress`` walks it.
    """
    return format(bits, "b").encode().translate(_SELECTOR_BYTES)[::-1]


def _word_scan(bits: int) -> List[int]:
    """The set-bit indices of a sparse *bits*, ascending.

    Exports the bitset once as 64-bit words; each member then costs a few
    small-int operations on its word, never an operation on the whole
    ``|V|``-bit integer.
    """
    out: List[int] = []
    append = out.append
    base = 0
    size = ((bits.bit_length() + 63) >> 6) << 3
    words = memoryview(bits.to_bytes(size, sys.byteorder)).cast("Q")
    if sys.byteorder == "big":
        words = words[::-1]
    for word in words:
        while word:
            low = word & -word
            append(base + low.bit_length() - 1)
            word ^= low
        base += 64
    return out


def bits_to_indices(bits: int) -> List[int]:
    """The indices of the set bits of *bits*, ascending, as a list.

    The bulk counterpart of :func:`iter_bits` for hot loops that walk a
    whole set.  Dense sets are read with one ``itertools.compress`` over
    the bitset's byte selector, sparse ones with a scan of 64-bit words;
    see ``_DENSE_WIDTH_PER_MEMBER`` for the crossover.
    """
    if not bits:
        return []
    if _is_dense(bits):
        width = bits.bit_length()
        if len(_INDICES) < width:
            _INDICES.extend(range(len(_INDICES), width))
        return list(compress(_INDICES, _selector(bits)))
    return _word_scan(bits)


def select_members(table: Sequence[Any], bits: int) -> Iterable[Any]:
    """``table[i]`` for every set bit ``i`` of *bits*, in ascending ``i``.

    The decode kernel: *table* is an interning list (or any per-index
    table, such as a snapshot's node names) covering every set bit.  Dense
    sets select straight from *table* in C, without building an index
    list; sparse ones look up the word scan's indices.
    """
    if not bits:
        return ()
    if _is_dense(bits):
        return compress(table, _selector(bits))
    return map(table.__getitem__, _word_scan(bits))


def indices_to_bits(indices: Iterable[int], width: int) -> int:
    """The bitset of *indices* (each below *width*), read in C from one byte per node.

    A fixed ``O(width)`` cost: it beats OR-ing one bit at a time for sets of
    more than about ``width/64`` indices.
    """
    buffer = bytearray(width)
    for i in indices:
        buffer[i] = 1
    return int(buffer.translate(_BINARY_DIGITS)[::-1] or b"0", 2)


class NodeTable:
    """A snapshot's interning list, with the ``str`` names of its nodes.

    ``nodes[i]`` is the node id interned at index ``i``.  The list is
    append-only (:meth:`CompiledGraph.intern_node` appends to it, nothing
    else writes it), so whoever holds the table decodes every bitset issued
    against the snapshot the same way however the snapshot is patched
    afterwards, and keeps nothing else of it alive: no CSR, no distance
    store.
    """

    __slots__ = ("nodes", "_names")

    def __init__(self, nodes: List[NodeId]) -> None:
        self.nodes = nodes
        self._names: List[str] = []

    def names(self) -> List[str]:
        """``str(nodes[i])`` by index, converted once per node and kept."""
        names = self._names
        if len(names) < len(self.nodes):
            names.extend(map(str, self.nodes[len(names) :]))
        return names


class CompiledGraph:
    """An immutable integer-indexed snapshot of a :class:`DataGraph`.

    Build instances with :meth:`from_graph` (or, preferably, through the
    version-aware :func:`compile_graph` cache).  All query methods take and
    return dense integer node indices; :meth:`encode` / :meth:`decode`
    translate between bitsets and original node-id sets at the boundary.
    """

    __slots__ = (
        "version",
        "num_nodes",
        "num_edges",
        "all_bits",
        "out_nonzero_bits",
        "node_table",
        "_id_of",
        "_node_of",
        "_fwd_offsets",
        "_fwd_targets",
        "_rev_offsets",
        "_rev_targets",
        "_attrs",
        "_eq_index",
        "_unindexed_attrs",
        "_succ_bits",
        "_pred_bits",
        "_patched_fwd",
        "_patched_rev",
        "_patched_fwd_seq",
        "_patched_rev_seq",
        "_flat_kernel",
        "_distance_store",
        "_graph_ref",
        "_patch_listeners",
        "_card_cache",
    )

    def __init__(self) -> None:
        raise TypeError("use CompiledGraph.from_graph() or compile_graph()")

    @classmethod
    def from_graph(cls, graph: DataGraph) -> "CompiledGraph":
        """Compile a snapshot of *graph* at its current version."""
        self = object.__new__(cls)
        node_of: List[NodeId] = graph.node_list()
        id_of: Dict[NodeId, int] = {node: i for i, node in enumerate(node_of)}
        n = len(node_of)

        fwd_offsets = array("i", [0])
        fwd_targets = array("i")
        rev_offsets = array("i", [0])
        rev_targets = array("i")
        out_nonzero = 0
        for i, node in enumerate(node_of):
            succ = sorted(id_of[s] for s in graph.successors(node))
            if succ:
                out_nonzero |= 1 << i
                fwd_targets.extend(succ)
            fwd_offsets.append(len(fwd_targets))
            pred = sorted(id_of[p] for p in graph.predecessors(node))
            if pred:
                rev_targets.extend(pred)
            rev_offsets.append(len(rev_targets))

        eq_index: Dict[Tuple[str, Any], int] = {}
        unindexed: Set[str] = set()
        attrs: List[Mapping[str, Any]] = []
        for i, node in enumerate(node_of):
            # Copy: the snapshot must not see post-compile attribute
            # mutations (the equality index above is frozen at compile time,
            # and mixing index-time and live values would answer predicates
            # consistently with neither version).
            node_attrs = dict(graph.attributes(node))
            attrs.append(node_attrs)
            bit = 1 << i
            for key, value in node_attrs.items():
                try:
                    eq_index[(key, value)] = eq_index.get((key, value), 0) | bit
                except TypeError:
                    # Unhashable value: equality atoms on this attribute fall
                    # back to scanning so semantics stay identical.
                    unindexed.add(key)

        self.version = graph.version
        self.num_nodes = n
        self.num_edges = len(fwd_targets)
        self.all_bits = (1 << n) - 1
        self.out_nonzero_bits = out_nonzero
        self.node_table = NodeTable(node_of)
        self._id_of = id_of
        self._node_of = node_of
        self._fwd_offsets = fwd_offsets
        self._fwd_targets = fwd_targets
        self._rev_offsets = rev_offsets
        self._rev_targets = rev_targets
        self._attrs = attrs
        self._eq_index = eq_index
        self._unindexed_attrs = unindexed
        self._succ_bits: List[Optional[int]] = [None] * n
        self._pred_bits: List[Optional[int]] = [None] * n
        # Patched adjacency overlay: index -> authoritative neighbour bitset
        # for nodes whose edges changed after compilation (the CSR arrays
        # keep serving every other node), plus the same neighbours as a
        # tuple so iteration-heavy consumers skip the bit decoding.
        self._patched_fwd: Dict[int, int] = {}
        self._patched_rev: Dict[int, int] = {}
        self._patched_fwd_seq: Dict[int, Tuple[int, ...]] = {}
        self._patched_rev_seq: Dict[int, Tuple[int, ...]] = {}
        self._flat_kernel = None
        self._distance_store = None
        self._graph_ref = weakref.ref(graph)
        # Weakly-held callbacks fired after every patch (see
        # add_patch_listener); the engine's result caches subscribe here.
        self._patch_listeners: List[weakref.ReferenceType] = []
        # Predicate -> (version, estimate) cardinality memo (see cardinality()).
        self._card_cache: Dict[Predicate, Tuple[int, int]] = {}
        return self

    @property
    def graph(self) -> Optional[DataGraph]:
        """The source :class:`DataGraph` (held weakly; ``None`` if collected).

        Oracles use this to detect a snapshot compiled from a *different*
        graph than their own and fall back to the unmemoised slow path, so a
        mismatched caller gets correct (unmemoised) results instead of
        silently wrong bitsets.
        """
        return self._graph_ref()

    # ------------------------------------------------------------------
    # id interning
    # ------------------------------------------------------------------

    def id_of(self, node: NodeId) -> int:
        """The dense integer index of *node*.

        Raises
        ------
        NodeNotFoundError
            If *node* was not in the graph when the snapshot was compiled.
        """
        try:
            return self._id_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def node_of(self, index: int) -> NodeId:
        """The original node id interned at *index*."""
        return self._node_of[index]

    def __contains__(self, node: NodeId) -> bool:
        return node in self._id_of

    def __len__(self) -> int:
        return self.num_nodes

    def node_ids(self) -> List[NodeId]:
        """All original node ids, in interning order."""
        return list(self._node_of)

    def __repr__(self) -> str:
        return (
            f"<CompiledGraph |V|={self.num_nodes} "
            f"|E|={self.num_edges} v{self.version}>"
        )

    # ------------------------------------------------------------------
    # bitset encoding
    # ------------------------------------------------------------------

    def encode(self, nodes: Iterable[NodeId]) -> int:
        """Encode an iterable of original node ids into a bitset.

        Ids unknown to the snapshot are ignored (they cannot participate in
        any intersection with interned candidates anyway).
        """
        id_of = self._id_of
        bits = 0
        for node in nodes:
            index = id_of.get(node)
            if index is not None:
                bits |= 1 << index
        return bits

    def decode(self, bits: int) -> Set[NodeId]:
        """Decode a bitset back into a set of original node ids."""
        return set(select_members(self._node_of, bits))

    # ------------------------------------------------------------------
    # adjacency (CSR)
    # ------------------------------------------------------------------

    def successors_indices(self, index: int) -> Iterable[int]:
        """The successor indices of *index* (a CSR slice, or the patch overlay)."""
        patched = self._patched_fwd_seq.get(index)
        if patched is not None:
            return patched
        return self._fwd_targets[self._fwd_offsets[index] : self._fwd_offsets[index + 1]]

    def predecessors_indices(self, index: int) -> Iterable[int]:
        """The predecessor indices of *index* (a CSR slice, or the patch overlay)."""
        patched = self._patched_rev_seq.get(index)
        if patched is not None:
            return patched
        return self._rev_targets[self._rev_offsets[index] : self._rev_offsets[index + 1]]

    def out_degree(self, index: int) -> int:
        """Out-degree of *index*."""
        patched = self._patched_fwd.get(index)
        if patched is not None:
            return patched.bit_count()
        return self._fwd_offsets[index + 1] - self._fwd_offsets[index]

    def in_degree(self, index: int) -> int:
        """In-degree of *index*."""
        patched = self._patched_rev.get(index)
        if patched is not None:
            return patched.bit_count()
        return self._rev_offsets[index + 1] - self._rev_offsets[index]

    def successors_bits(self, index: int) -> int:
        """The direct successors of *index* as a bitset (lazily cached)."""
        patched = self._patched_fwd.get(index)
        if patched is not None:
            return patched
        bits = self._succ_bits[index]
        if bits is None:
            bits = 0
            offsets = self._fwd_offsets
            for j in self._fwd_targets[offsets[index] : offsets[index + 1]]:
                bits |= 1 << j
            self._succ_bits[index] = bits
        return bits

    def predecessors_bits(self, index: int) -> int:
        """The direct predecessors of *index* as a bitset (lazily cached)."""
        patched = self._patched_rev.get(index)
        if patched is not None:
            return patched
        bits = self._pred_bits[index]
        if bits is None:
            bits = 0
            offsets = self._rev_offsets
            for j in self._rev_targets[offsets[index] : offsets[index + 1]]:
                bits |= 1 << j
            self._pred_bits[index] = bits
        return bits

    def has_edge_indices(self, source: int, target: int) -> bool:
        """``True`` when the edge ``source -> target`` exists (patch-aware)."""
        return bool(self.successors_bits(source) >> target & 1)

    def adjacency_bits(
        self, *, reverse: bool = False
    ) -> Tuple[List[Optional[int]], Dict[int, int]]:
        """The lazy per-node adjacency bitset cache and its patch overlay.

        For hot BFS loops that OR whole neighbour rows at once: entry ``i``
        of the list is the cached :meth:`successors_bits` /
        :meth:`predecessors_bits` value (``None`` until first materialised —
        call the corresponding method to fill it); a node present in the
        overlay dict must be answered from the overlay instead.  Both
        structures are live views — treat as read-only.
        """
        if reverse:
            return self._pred_bits, self._patched_rev
        return self._succ_bits, self._patched_fwd

    def adjacency_arrays(
        self,
    ) -> Tuple[array, array, Dict[int, Tuple[int, ...]], array, array, Dict[int, Tuple[int, ...]]]:
        """The raw adjacency substrate, for hot repair loops.

        Returns ``(fwd_offsets, fwd_targets, patched_fwd_seq, rev_offsets,
        rev_targets, patched_rev_seq)``.  A node present in a patch dict
        must be answered from its overlay tuple; every other node from the
        CSR slice.  Callers must treat all six structures as read-only.
        """
        return (
            self._fwd_offsets,
            self._fwd_targets,
            self._patched_fwd_seq,
            self._rev_offsets,
            self._rev_targets,
            self._patched_rev_seq,
        )

    # ------------------------------------------------------------------
    # snapshot patching (the mutation-tolerant layer)
    # ------------------------------------------------------------------

    def add_patch_listener(self, callback) -> None:
        """Subscribe *callback* to patches of **this** snapshot.

        *callback* is invoked (with the version the snapshot held *before*
        the patch) after every :meth:`patch_edge_insert`,
        :meth:`patch_edge_delete` and :meth:`intern_node` — i.e. exactly when
        this snapshot's answers change without a recompile.  Snapshots of
        other graphs are unaffected, which is what lets a
        :class:`~repro.engine.MatchSession` result cache evict only entries
        the mutation actually invalidated.  Callbacks are held weakly (bound
        methods through :class:`weakref.WeakMethod`), so a discarded
        subscriber never keeps state alive and is pruned on the next patch.
        """
        try:
            ref = weakref.WeakMethod(callback)
        except TypeError:
            ref = weakref.ref(callback)
        # Prune here as well as on notify: throwaway sessions (the match()
        # wrapper) subscribe to the long-lived cached snapshot once per
        # call, and without pruning an unpatched snapshot would accumulate
        # one dead weakref per discarded session.
        listeners = [r for r in self._patch_listeners if r() is not None]
        listeners.append(ref)
        self._patch_listeners = listeners

    def _notify_patched(self, version_before: int) -> None:
        listeners = self._patch_listeners
        if not listeners:
            return
        live = []
        for ref in listeners:
            callback = ref()
            if callback is not None:
                live.append(ref)
                callback(version_before)
        if len(live) != len(listeners):
            self._patch_listeners = live

    def _sync_version_after_patch(self) -> None:
        """Adopt the graph's version iff it moved by exactly this one mutation.

        Patches are applied *after* the corresponding graph mutation, so a
        faithful patch sees the version exactly one ahead.  Any larger gap
        means something else mutated the graph out of band; the snapshot then
        stays stale so every version-guarded consumer falls back to a full
        recompile instead of trusting a partially patched view.
        """
        graph = self._graph_ref()
        if graph is not None and graph.version == self.version + 1:
            self.version = graph.version

    def patch_edge_insert(self, source: NodeId, target: NodeId) -> None:
        """Record the edge ``source -> target`` in the adjacency overlay.

        Call immediately after ``graph.add_edge(source, target)``; the
        snapshot re-synchronises its version with the graph.
        """
        version_before = self.version
        i = self.id_of(source)
        j = self.id_of(target)
        succ = self.successors_bits(i) | (1 << j)
        pred = self.predecessors_bits(j) | (1 << i)
        self._patched_fwd[i] = succ
        self._patched_rev[j] = pred
        self._patched_fwd_seq[i] = tuple(iter_bits(succ))
        self._patched_rev_seq[j] = tuple(iter_bits(pred))
        self.out_nonzero_bits |= 1 << i
        self.num_edges += 1
        self._sync_version_after_patch()
        if _sanitize.ENABLED:
            _sanitize.patch_applied(self)
        self._notify_patched(version_before)

    def patch_edge_delete(self, source: NodeId, target: NodeId) -> None:
        """Remove the edge ``source -> target`` from the adjacency overlay.

        Call immediately after ``graph.remove_edge(source, target)``.
        """
        version_before = self.version
        i = self.id_of(source)
        j = self.id_of(target)
        succ = self.successors_bits(i) & ~(1 << j)
        pred = self.predecessors_bits(j) & ~(1 << i)
        self._patched_fwd[i] = succ
        self._patched_rev[j] = pred
        self._patched_fwd_seq[i] = tuple(iter_bits(succ))
        self._patched_rev_seq[j] = tuple(iter_bits(pred))
        if not succ:
            self.out_nonzero_bits &= ~(1 << i)
        self.num_edges -= 1
        self._sync_version_after_patch()
        if _sanitize.ENABLED:
            _sanitize.patch_applied(self)
        self._notify_patched(version_before)

    def intern_node(self, node: NodeId, attributes: Mapping[str, Any]) -> int:
        """Intern a node added to the graph after compilation; returns its index.

        The node is appended at the next dense index, so every previously
        issued index and bitset stays valid (``all_bits`` simply grows).
        Call immediately after ``graph.add_node(node, ...)``; idempotent for
        already-interned nodes.
        """
        existing = self._id_of.get(node)
        if existing is not None:
            return existing
        version_before = self.version
        index = self.num_nodes
        self._id_of[node] = index
        self._node_of.append(node)
        self._fwd_offsets.append(self._fwd_offsets[-1])
        self._rev_offsets.append(self._rev_offsets[-1])
        self._succ_bits.append(None)
        self._pred_bits.append(None)
        node_attrs = dict(attributes)
        self._attrs.append(node_attrs)
        bit = 1 << index
        for key, value in node_attrs.items():
            try:
                self._eq_index[(key, value)] = self._eq_index.get((key, value), 0) | bit
            except TypeError:
                self._unindexed_attrs.add(key)
        self.num_nodes += 1
        self.all_bits |= bit
        self._sync_version_after_patch()
        self._notify_patched(version_before)
        return index

    def _absorb_node_additions(self, graph: DataGraph) -> bool:
        """Intern the nodes added to *graph* since this snapshot's version.

        Applies only when those additions are the graph's only mutations
        since then (its version moved by exactly their number); the snapshot
        then adopts the graph's version, and its distance store, if it was
        current, grows once to cover the new (isolated) nodes and stays
        current.  Returns whether the additions were absorbed.
        """
        new_nodes = [node for node in graph.nodes() if node not in self._id_of]
        if not new_nodes or graph.version - self.version != len(new_nodes):
            return False
        store = self._distance_store
        store_current = store is not None and store.version == self.version
        for node in new_nodes:
            self.intern_node(node, graph.attributes(node))
        self.version = graph.version
        if store_current:
            store.ensure_index(self.num_nodes - 1)
            store.version = self.version
        return True

    # ------------------------------------------------------------------
    # candidate retrieval (inverted attribute index)
    # ------------------------------------------------------------------

    def candidate_bits(self, predicate: Predicate) -> int:
        """The bitset of nodes satisfying *predicate*.

        Equality atoms resolve through the inverted attribute index (one dict
        lookup each); any residual atoms (orderings, inequalities, atoms on
        attributes carrying unhashable values) are evaluated only on the
        nodes surviving the indexed atoms.
        """
        if predicate.is_wildcard:
            return self.all_bits
        bits = self.all_bits
        residual = []
        for atom in predicate.atoms:
            if atom.op == "=" and atom.attribute not in self._unindexed_attrs:
                try:
                    mask = self._eq_index.get((atom.attribute, atom.value), 0)
                except TypeError:
                    residual.append(atom)
                    continue
                bits &= mask
                if not bits:
                    return 0
            else:
                residual.append(atom)
        if residual:
            attrs = self._attrs
            narrowed = 0
            for i in iter_bits(bits):
                node_attrs = attrs[i]
                if all(atom.evaluate(node_attrs) for atom in residual):
                    narrowed |= 1 << i
            bits = narrowed
        return bits

    def cardinality(self, predicate: Predicate) -> int:
        """Estimated candidate cardinality of *predicate* (index popcounts).

        The estimate is the popcount of the AND of the indexed equality
        masks — a dict probe and a ``bit_count()`` per equality atom, never
        a node scan.  Residual atoms (orderings, inequalities, unindexed
        attributes) are ignored, so the estimate is an **upper bound** on
        :meth:`candidate_bits`; a predicate with no indexable atom estimates
        as ``num_nodes``.  The planner ranks pattern nodes by these numbers
        to pick a refinement order, where only the relative order matters.

        Estimates are memoised per predicate and pinned to the snapshot
        :attr:`version`, so a patched or extended snapshot re-derives them
        instead of serving stale counts.
        """
        cached = self._card_cache.get(predicate)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        if predicate.is_wildcard:
            estimate = self.num_nodes
        else:
            bits = self.all_bits
            indexed = False
            for atom in predicate.atoms:
                if atom.op == "=" and atom.attribute not in self._unindexed_attrs:
                    try:
                        mask = self._eq_index.get((atom.attribute, atom.value), 0)
                    except TypeError:
                        continue
                    bits &= mask
                    indexed = True
                    if not bits:
                        break
            estimate = bits.bit_count() if indexed else self.num_nodes
        self._card_cache[predicate] = (self.version, estimate)
        return estimate

    def attributes(self, index: int) -> Mapping[str, Any]:
        """The attribute mapping of the node interned at *index*."""
        return self._attrs[index]

    # ------------------------------------------------------------------
    # bounded reachability (flat BFS kernel over CSR)
    # ------------------------------------------------------------------

    def flat_kernel(self):
        """The snapshot's shared flat BFS kernel (lazily created).

        One :class:`~repro.distance.compiled.FlatBFSKernel` is kept per
        snapshot so its shared state — the all ``-1`` row template and the
        tuple-decoded CSR adjacency — is reused by every consumer (ball
        queries, lazy distance rows, the full store build) instead of being
        re-derived per search.
        """
        kernel = self._flat_kernel
        if kernel is None:
            from repro.distance.compiled import FlatBFSKernel

            kernel = self._flat_kernel = FlatBFSKernel(self)
        return kernel

    def distance_store(self):
        """The snapshot's one IncMatch distance store ``M`` (lazily built).

        Every incremental matcher pinned to the snapshot shares it; the
        ``update_store_*`` repairs keep it current and stamp it with the
        version they reached.  It is rebuilt with
        :func:`~repro.distance.incremental.build_store` only when missing or
        when its stamp trails :attr:`version` (a patch that did not repair it).
        """
        store = self._distance_store
        if store is None or store.version != self.version:
            from repro.distance.incremental import build_store

            store = self._distance_store = build_store(self)
        if _sanitize.ENABLED:
            _sanitize.store_adopted(self, store)
        return store

    def descendants_within_bits(self, source: int, bound: Optional[int]) -> int:
        """Bitset of nodes reachable from *source* via a nonempty path ``<= bound``.

        ``bound=None`` means unbounded; *source* itself is included only when
        it lies on a cycle of length within the bound — the same nonempty-path
        semantics as :meth:`DataGraph.descendants_within`.
        """
        return self.flat_kernel().ball_bits(source, bound)

    def ancestors_within_bits(self, target: int, bound: Optional[int]) -> int:
        """Bitset of nodes reaching *target* via a nonempty path ``<= bound``."""
        return self.flat_kernel().ball_bits(target, bound, reverse=True)


# ----------------------------------------------------------------------
# version-aware compile cache
# ----------------------------------------------------------------------

_COMPILE_CACHE: "weakref.WeakKeyDictionary[DataGraph, CompiledGraph]" = (
    weakref.WeakKeyDictionary()
)


def compile_graph(graph: DataGraph) -> CompiledGraph:
    """Return the compiled snapshot of *graph*, recompiling when stale.

    One snapshot is cached per graph (weakly, so graphs are collectable —
    update-stream workloads that discard thousands of graphs must not pin
    their snapshots) and invalidated through the graph's monotonic
    ``version`` counter: any mutation bumps the version, and the next call
    recompiles.  Repeated matching against an unchanged graph therefore
    compiles exactly once — and a snapshot kept current through the patching
    API (:meth:`CompiledGraph.patch_edge_insert` and friends, as driven by
    the compiled incremental matcher) is served as-is, so an update stream
    pays one compile for the whole stream instead of one per mutation.
    Pure node additions are interned into the cached snapshot instead of
    recompiling it (appended indices keep every issued bitset valid), and
    its current distance store grows with it rather than being rebuilt.
    """
    snapshot = _COMPILE_CACHE.get(graph)
    if snapshot is not None and snapshot.version != graph.version:
        if not snapshot._absorb_node_additions(graph):
            snapshot = None
    if snapshot is None:
        snapshot = CompiledGraph.from_graph(graph)
        _COMPILE_CACHE[graph] = snapshot
    return snapshot
