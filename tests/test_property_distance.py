"""Property-based tests (hypothesis) for the distance substrates."""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distance.bfs import BFSDistanceOracle
from repro.distance.incremental import (
    EdgeUpdate,
    build_store,
    update_store_batch,
    update_store_delete,
    update_store_insert,
)
from repro.distance.matrix import DistanceMatrix
from repro.distance.oracle import INF
from repro.distance.twohop import TwoHopOracle
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def decoded(store):
    """The store's finite entries keyed by node ids."""
    node_of = store.compiled.node_of
    return {(node_of(i), node_of(j)): dist for i, j, dist in store.finite_pairs()}


def reference(graph):
    """Finite entries of *graph*, one dict BFS per source."""
    return {
        (source, target): dist
        for source in graph.nodes()
        for target, dist in graph.bfs_distances(source).items()
    }


@st.composite
def digraphs(draw, max_nodes: int = 10) -> DataGraph:
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = DataGraph()
    for index in range(num_nodes):
        graph.add_node(index, label="N")
    possible = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v]
    if possible:
        for source, target in draw(
            st.lists(st.sampled_from(possible), max_size=3 * num_nodes, unique=True)
        ):
            graph.add_edge(source, target, strict=False)
    return graph


@st.composite
def graph_with_updates(draw) -> Tuple[DataGraph, List[EdgeUpdate]]:
    graph = draw(digraphs())
    nodes = graph.node_list()
    updates: List[EdgeUpdate] = []
    num_updates = draw(st.integers(min_value=1, max_value=8))
    for _ in range(num_updates):
        source = draw(st.sampled_from(nodes))
        target = draw(st.sampled_from(nodes))
        if source == target:
            continue
        kind = draw(st.sampled_from(["insert", "delete"]))
        updates.append(EdgeUpdate(kind, source, target))
    return graph, updates


class TestOracleConsistency:
    @SETTINGS
    @given(digraphs())
    def test_matrix_triangle_inequality_over_edges(self, graph):
        matrix = DistanceMatrix(graph)
        for source, target in graph.edges():
            for other in graph.nodes():
                if matrix.distance(target, other) != INF:
                    assert matrix.distance(source, other) <= 1 + matrix.distance(target, other)

    @SETTINGS
    @given(digraphs())
    def test_all_oracles_agree_on_distances(self, graph):
        matrix = DistanceMatrix(graph)
        bfs = BFSDistanceOracle(graph)
        twohop = TwoHopOracle(graph)
        for source in graph.nodes():
            for target in graph.nodes():
                expected = matrix.distance(source, target)
                assert bfs.distance(source, target) == expected
                assert twohop.distance(source, target) == expected

    @SETTINGS
    @given(digraphs(), st.integers(min_value=1, max_value=4))
    def test_descendants_within_consistent_with_within(self, graph, bound):
        matrix = DistanceMatrix(graph)
        for source in graph.nodes():
            reachable = matrix.descendants_within(source, bound)
            for target in graph.nodes():
                assert (target in reachable) == matrix.within(source, target, bound)

    @SETTINGS
    @given(digraphs(), st.integers(min_value=1, max_value=4))
    def test_ancestors_is_transpose_of_descendants(self, graph, bound):
        matrix = DistanceMatrix(graph)
        for source in graph.nodes():
            for target in matrix.descendants_within(source, bound):
                assert source in matrix.ancestors_within(target, bound)


class TestIncrementalMaintenance:
    @SETTINGS
    @given(graph_with_updates())
    def test_incremental_updates_match_full_recompute(self, graph_and_updates):
        graph, updates = graph_and_updates
        store = build_store(compile_graph(graph))
        for update in updates:
            if update.is_insert and not graph.has_edge(update.source, update.target):
                update_store_insert(store, update.source, update.target)
            elif update.is_delete and graph.has_edge(update.source, update.target):
                update_store_delete(store, update.source, update.target)
            assert decoded(store) == reference(graph)

    @SETTINGS
    @given(graph_with_updates())
    def test_batch_updates_match_full_recompute_and_report_real_changes(
        self, graph_and_updates
    ):
        graph, updates = graph_and_updates
        before = reference(graph)
        store = build_store(compile_graph(graph))
        affected = update_store_batch(store, updates)
        recomputed = reference(graph)
        assert decoded(store) == recomputed
        node_of = store.compiled.node_of
        for (x, y), (old, new) in affected.items():
            pair = (node_of(x), node_of(y))
            assert old != new
            assert old == before.get(pair, INF)
            assert new == recomputed.get(pair, INF)

    @SETTINGS
    @given(digraphs())
    def test_insert_then_delete_is_identity(self, graph):
        nodes = graph.node_list()
        if len(nodes) < 2:
            return
        source, target = nodes[0], nodes[-1]
        if source == target or graph.has_edge(source, target):
            return
        store = build_store(compile_graph(graph))
        before = decoded(store)
        update_store_insert(store, source, target)
        update_store_delete(store, source, target)
        assert decoded(store) == before
