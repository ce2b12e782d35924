"""Unit tests for the compiled graph core (:mod:`repro.graph.compiled`).

Covers id interning and CSR construction round-trips (including graphs
mutated after a compile), the inverted attribute index, bitset
encode/decode, bounded bitset reachability against the reference
:class:`DataGraph` traversals, and the version-keyed compile cache.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph import compiled as compiled_module
from repro.graph.compiled import (
    CompiledGraph,
    bits_to_indices,
    compile_graph,
    iter_bits,
    select_members,
)
from repro.graph.datagraph import DataGraph
from repro.graph.predicates import Predicate


def random_graph(seed: int, num_nodes: int = 30, num_edges: int = 90) -> DataGraph:
    rng = random.Random(seed)
    graph = DataGraph(name=f"random-{seed}")
    # Mixed id types: ints, strings, tuples — all hashable.
    ids = (
        [i for i in range(num_nodes // 3)]
        + [f"n{i}" for i in range(num_nodes // 3)]
        + [("t", i) for i in range(num_nodes - 2 * (num_nodes // 3))]
    )
    labels = ["A", "B", "C"]
    for node in ids:
        graph.add_node(node, label=rng.choice(labels), rank=rng.randint(0, 5))
    for _ in range(num_edges):
        source, target = rng.sample(ids, 2)
        graph.add_edge(source, target, strict=False)
    return graph


class TestInterning:
    def test_id_round_trip(self):
        graph = random_graph(1)
        compiled = compile_graph(graph)
        assert len(compiled) == graph.number_of_nodes()
        for node in graph.nodes():
            assert node in compiled
            assert compiled.node_of(compiled.id_of(node)) == node
        # Indices are dense 0..n-1 and bijective.
        indices = {compiled.id_of(node) for node in graph.nodes()}
        assert indices == set(range(len(compiled)))

    def test_unknown_node_raises(self):
        compiled = compile_graph(random_graph(2))
        with pytest.raises(NodeNotFoundError):
            compiled.id_of("no-such-node")

    def test_interning_preserves_insertion_order(self):
        graph = random_graph(3)
        compiled = compile_graph(graph)
        assert compiled.node_ids() == graph.node_list()


class TestCSR:
    def test_adjacency_matches_datagraph(self):
        graph = random_graph(4)
        compiled = compile_graph(graph)
        for node in graph.nodes():
            index = compiled.id_of(node)
            succ = {compiled.node_of(j) for j in compiled.successors_indices(index)}
            pred = {compiled.node_of(j) for j in compiled.predecessors_indices(index)}
            assert succ == graph.successors(node)
            assert pred == graph.predecessors(node)
            assert compiled.out_degree(index) == graph.out_degree(node)
            assert compiled.in_degree(index) == graph.in_degree(node)

    def test_adjacency_bits_match_indices(self):
        graph = random_graph(5)
        compiled = compile_graph(graph)
        for index in range(len(compiled)):
            assert set(iter_bits(compiled.successors_bits(index))) == set(
                compiled.successors_indices(index)
            )
            assert set(iter_bits(compiled.predecessors_bits(index))) == set(
                compiled.predecessors_indices(index)
            )

    def test_out_nonzero_bits(self):
        graph = random_graph(6)
        compiled = compile_graph(graph)
        expected = {
            compiled.id_of(node) for node in graph.nodes() if graph.out_degree(node) > 0
        }
        assert set(iter_bits(compiled.out_nonzero_bits)) == expected

    def test_csr_after_node_and_edge_mutations(self):
        """Nodes/edges added and removed after a compile appear in the recompile."""
        graph = random_graph(7)
        stale = compile_graph(graph)
        removed = graph.node_list()[0]
        graph.remove_node(removed)
        graph.add_node("fresh", label="Z")
        survivor = graph.node_list()[0]
        graph.add_edge("fresh", survivor)
        compiled = compile_graph(graph)
        assert compiled is not stale
        assert removed not in compiled
        assert "fresh" in compiled
        index = compiled.id_of("fresh")
        assert {compiled.node_of(j) for j in compiled.successors_indices(index)} == {
            survivor
        }
        # The stale snapshot is untouched (it still knows the removed node).
        assert removed in stale
        for node in graph.nodes():
            node_index = compiled.id_of(node)
            assert {
                compiled.node_of(j) for j in compiled.successors_indices(node_index)
            } == graph.successors(node)


class TestBitsets:
    def test_encode_decode_round_trip(self):
        graph = random_graph(8)
        compiled = compile_graph(graph)
        nodes = set(graph.node_list()[::3])
        assert compiled.decode(compiled.encode(nodes)) == nodes

    def test_encode_ignores_unknown_ids(self):
        graph = random_graph(9)
        compiled = compile_graph(graph)
        some = graph.node_list()[0]
        assert compiled.decode(compiled.encode([some, "unknown"])) == {some}

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]


class TestDecodeKernel:
    """``bits_to_indices``/``decode`` against ``iter_bits``, on both routes."""

    WIDTHS = (0, 1, 63, 64, 65, 1483, 8193, 30000)

    @staticmethod
    def bitsets(width: int, rng: random.Random):
        """Random bitsets of at most *width* bits on both sides of the crossover.

        Member counts run from one per bit to one per thousand bits,
        bracketing ``_DENSE_WIDTH_PER_MEMBER``; each set also comes with
        the top bit of its width set, and the top bit of every 64-bit word
        is tried alone and with the lowest bit.
        """
        if width == 0:
            yield 0
            return
        crossover = compiled_module._DENSE_WIDTH_PER_MEMBER
        for per in (1, 2, crossover - 1, crossover, crossover + 1, 4 * crossover, 1000):
            bits = 0
            for index in rng.sample(range(width), max(1, width // per)):
                bits |= 1 << index
            yield bits
            yield bits | 1 << (width - 1)
        for top in range(63, width, 64):
            yield 1 << top
            yield 1 << top | 1
        yield (1 << width) - 1

    @pytest.fixture(scope="class")
    def wide(self):
        graph = DataGraph(name="wide")
        for i in range(max(self.WIDTHS)):
            graph.add_node(f"v{i}")
        return compile_graph(graph)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_matches_iter_bits(self, width, wide):
        rng = random.Random(width)
        routes = set()
        for bits in self.bitsets(width, rng):
            expected = list(iter_bits(bits))
            assert bits_to_indices(bits) == expected
            assert wide.decode(bits) == {wide.node_of(i) for i in expected}
            names = wide.node_table.names()
            assert list(select_members(names, bits)) == [names[i] for i in expected]
            if bits:
                routes.add(compiled_module._is_dense(bits))
        if width >= 64:
            assert routes == {True, False}  # both routes ran

    def test_node_table_names_follow_interning(self):
        graph = random_graph(12)
        compiled = compile_graph(graph)
        table = compiled.node_table
        assert table.names() == [str(node) for node in graph.node_list()]
        graph.add_node(("late", 1))
        compiled.intern_node(("late", 1), {})
        assert table.names()[-1] == str(("late", 1))
        assert len(table.names()) == compiled.num_nodes


class TestAttributeIndex:
    def test_candidate_bits_equals_predicate_scan(self):
        graph = random_graph(10)
        compiled = compile_graph(graph)
        predicates = [
            Predicate.label("A"),
            Predicate.label("B"),
            Predicate.parse("rank >= 3"),
            Predicate.label("C") & Predicate.parse("rank < 2"),
            Predicate.equals("label", "missing-label"),
            Predicate(),  # wildcard
        ]
        for predicate in predicates:
            expected = {
                v for v in graph.nodes() if predicate.evaluate(graph.attributes(v))
            }
            assert compiled.decode(compiled.candidate_bits(predicate)) == expected

    def test_snapshot_attributes_frozen_against_live_mutation(self):
        """Post-compile attribute mutations must not leak into the snapshot.

        The equality index is frozen at compile time; if residual atoms read
        the live dicts, a mixed predicate would answer consistently with
        neither version.
        """
        graph = DataGraph()
        graph.add_node(0, label="A", age=10)
        compiled = compile_graph(graph)
        graph.set_attributes(0, label="B", age=1)
        predicate = Predicate.parse("label = 'A' & age > 5")
        assert compiled.decode(compiled.candidate_bits(predicate)) == {0}
        assert compiled.attributes(0) == {"label": "A", "age": 10}

    def test_unhashable_attribute_values_fall_back_to_scan(self):
        graph = DataGraph()
        graph.add_node("a", tags=["x"], label="A")
        graph.add_node("b", tags=["y"], label="A")
        compiled = compile_graph(graph)
        predicate = Predicate.equals("tags", ["x"])
        assert compiled.decode(compiled.candidate_bits(predicate)) == {"a"}


class TestBoundedReachability:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_descendants_within_bits_matches_datagraph(self, seed):
        graph = random_graph(seed)
        compiled = compile_graph(graph)
        for node in graph.nodes():
            index = compiled.id_of(node)
            for bound in (1, 2, 3, None):
                assert compiled.decode(
                    compiled.descendants_within_bits(index, bound)
                ) == graph.descendants_within(node, bound)
                assert compiled.decode(
                    compiled.ancestors_within_bits(index, bound)
                ) == graph.ancestors_within(node, bound)

    def test_self_loop_counts_as_cycle_of_length_one(self):
        graph = DataGraph()
        graph.add_node("a")
        graph.add_edge("a", "a")
        compiled = compile_graph(graph)
        assert compiled.decode(compiled.descendants_within_bits(0, 1)) == {"a"}
        assert compiled.decode(compiled.ancestors_within_bits(0, 1)) == {"a"}


class TestMismatchedOracleGraph:
    def test_oracle_over_other_graph_matches_legacy_semantics(self):
        """An oracle built over a different graph must not serve wrong bitsets.

        The memoising oracle overrides key their caches by interned index and
        their own graph's version; when handed a snapshot of a *different*
        graph they must fall back to the set-based conversion, so the match
        sees exactly the distances of the oracle's own graph.
        """
        from repro.distance.bfs import BFSDistanceOracle
        from repro.distance.matrix import DistanceMatrix
        from repro.graph.pattern import Pattern
        from repro.matching.bounded import match, naive_match

        graph = random_graph(20)
        other = graph.copy()
        # Drop an edge whose tail keeps another successor, so both graphs
        # have the same nodes without out-edges (the candidate filter).
        source, target = next(
            (s, t) for s, t in graph.edge_list() if graph.out_degree(s) >= 2
        )
        other.remove_edge(source, target)

        pattern = Pattern()
        pattern.add_node("u", "A")
        pattern.add_node("v", "B")
        pattern.add_edge("u", "v", 2)

        expected = naive_match(pattern, other)
        for oracle in (DistanceMatrix(other), BFSDistanceOracle(other)):
            assert match(pattern, graph, oracle) == expected

    def test_snapshot_exposes_weak_graph_reference(self):
        graph = random_graph(21)
        compiled = compile_graph(graph)
        assert compiled.graph is graph

    def test_stale_snapshot_does_not_poison_oracle_memos(self):
        """A stale snapshot of the *same* graph must not be memoised.

        Otherwise its answer would be served to later queries made with a
        fresh snapshot — the exact call path ``match()`` uses.
        """
        from repro.distance.bfs import BFSDistanceOracle
        from repro.distance.matrix import DistanceMatrix
        from repro.distance.twohop import TwoHopOracle

        graph = DataGraph()
        for node in (0, 1, 2):
            graph.add_node(node, label="A")
        graph.add_edge(0, 1)
        stale = compile_graph(graph)
        graph.add_edge(1, 2)

        for oracle in (
            DistanceMatrix(graph),
            BFSDistanceOracle(graph),
            TwoHopOracle(graph),
        ):
            # Query with the stale snapshot first (its answer reflects the
            # stale adjacency), then with a fresh one.
            oracle.descendants_within_bits(stale, 0, None)
            fresh = compile_graph(graph)
            bits = oracle.descendants_within_bits(fresh, 0, None)
            assert fresh.decode(bits) == {1, 2}, type(oracle).__name__


class TestCompileCache:
    def test_same_version_reuses_snapshot(self):
        graph = random_graph(14)
        assert compile_graph(graph) is compile_graph(graph)

    def test_mutation_invalidates_snapshot(self):
        graph = random_graph(15)
        before = compile_graph(graph)
        source, target = graph.node_list()[:2]
        graph.add_edge(source, target, strict=False) or graph.remove_edge(
            source, target
        )
        after = compile_graph(graph)
        assert after is not before
        assert after.version == graph.version

    def test_direct_construction_requires_classmethod(self):
        with pytest.raises(TypeError):
            CompiledGraph()
