"""``AffectedArea`` keeps IncMatch's ``AFF1`` interned until it is read.

:meth:`~repro.matching.affected.AffectedArea.from_interned` holds the
interned ``AFF1`` with the snapshot's append-only ``NodeTable``:

* ``distance_changes`` equals the eager decode, and decodes once;
* ``aff1_size``, ``total_size`` and ``summary`` decode nothing, and
  ``merge`` nets exactly as the merge of decoded areas does;
* the ids still decode correctly after the graph is recompiled (the area
  holds the table, not the snapshot).
"""

from __future__ import annotations

import random

import pytest

from repro.distance.incremental import EdgeUpdate, update_store_batch
from repro.distance.oracle import INF
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.matching.affected import AffectedArea
from repro.matching.incremental import IncrementalMatcher


class CountingTable:
    """A ``NodeTable`` stand-in that counts reads of its node list."""

    def __init__(self, table):
        self._table = table
        self.reads = 0

    @property
    def nodes(self):
        self.reads += 1
        return self._table.nodes


def ring_graph(size: int = 8) -> DataGraph:
    graph = DataGraph(name="lazy-aff1")
    for node in range(size):
        graph.add_node(f"n{node}", label="A" if node % 2 else "B")
    for node in range(size):
        graph.add_edge(f"n{node}", f"n{(node + 1) % size}")
    return graph


def pattern_ab() -> Pattern:
    pattern = Pattern()
    pattern.add_node("a", "A")
    pattern.add_node("b", "B")
    pattern.add_edge("a", "b", 2)
    return pattern


def random_batch(rng: random.Random, graph: DataGraph, size: int):
    nodes = graph.node_list()
    batch = []
    for _ in range(size):
        source, target = rng.choice(nodes), rng.choice(nodes)
        kind = EdgeUpdate.delete if graph.has_edge(source, target) else EdgeUpdate.insert
        batch.append(kind(source, target))
    return batch


class TestDecodeOnRead:
    def test_distance_changes_equal_the_eager_decode(self):
        graph = ring_graph()
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        aff1 = update_store_batch(
            store, [EdgeUpdate.delete("n3", "n4"), EdgeUpdate.insert("n0", "n5")]
        )
        assert aff1
        eager = {
            (compiled.node_of(x), compiled.node_of(y)): change
            for (x, y), change in aff1.items()
        }
        area = AffectedArea.from_interned(dict(aff1), compiled.node_table)
        assert area.distance_changes == eager
        assert area == AffectedArea(distance_changes=eager)

    def test_sizes_decode_nothing_and_reads_decode_once(self):
        graph = ring_graph()
        compiled = compile_graph(graph)
        aff1 = update_store_batch(compiled.distance_store(), [EdgeUpdate.delete("n0", "n1")])
        table = CountingTable(compiled.node_table)
        area = AffectedArea.from_interned(aff1, table, {("a", "n0")}, set())
        assert area.aff1_size == len(aff1) > 0
        assert area.total_size == len(aff1) + 1
        assert area.summary()["aff1"] == len(aff1)
        assert "aff1=" in repr(area)
        assert table.reads == 0
        first = area.distance_changes
        assert table.reads == 1
        assert area.distance_changes is first
        assert table.reads == 1

    def test_matcher_areas_stay_interned_until_read(self):
        graph = ring_graph()
        matcher = IncrementalMatcher(pattern_ab(), graph)
        area = matcher.apply([EdgeUpdate.delete("n2", "n3")])
        assert area.aff1_size > 0
        assert area._table is matcher._compiled.node_table
        assert ("n2", "n3") in area.distance_changes
        assert area._table is None


class TestMerge:
    @pytest.mark.parametrize("seed", range(10))
    def test_merge_nets_exactly_as_the_decoded_merge(self, seed):
        rng = random.Random(seed)
        graph = ring_graph(10)
        matcher = IncrementalMatcher(pattern_ab(), graph)
        table = matcher._compiled.node_table
        lazy = AffectedArea.from_interned({}, table)
        eager = AffectedArea()
        for _ in range(6):
            step = matcher.apply(random_batch(rng, graph, 3))
            decoded = AffectedArea(
                {
                    (table.nodes[x], table.nodes[y]): change
                    for (x, y), change in step._aff1.items()
                },
                set(step.removed_matches),
                set(step.added_matches),
            )
            lazy = lazy.merge(step)
            eager = eager.merge(decoded)
        assert lazy.aff1_size == eager.aff1_size
        assert lazy == eager

    def test_merge_across_tables_decodes_both(self):
        graph = ring_graph()
        old_table = compile_graph(graph).node_table
        first = AffectedArea.from_interned({(0, 1): (1, 3)}, old_table)
        graph.remove_node("n0")  # recompiles: every id shifts down by one
        new_table = compile_graph(graph).node_table
        assert new_table is not old_table
        second = AffectedArea.from_interned({(0, 1): (1, 2)}, new_table)
        merged = first.merge(second)
        assert merged.distance_changes == {("n0", "n1"): (1, 3), ("n1", "n2"): (1, 2)}


class TestAfterRecompile:
    def test_ids_decode_against_the_table_the_area_was_built_on(self):
        graph = ring_graph()
        matcher = IncrementalMatcher(pattern_ab(), graph)
        old = compile_graph(graph)
        area = matcher.apply([EdgeUpdate.delete("n5", "n6"), EdgeUpdate.insert("n6", "n0")])
        assert area.aff1_size > 0
        graph.remove_node("n0")  # the next snapshot interns every node anew
        assert compile_graph(graph) is not old
        assert compile_graph(graph).node_of(0) == "n1"
        changes = area.distance_changes
        assert changes[("n5", "n6")] == (1, INF)  # n5 lost its only out-edge
        assert changes[("n6", "n0")] == (2, 1)
        assert all(isinstance(pair[0], str) for pair in changes)
