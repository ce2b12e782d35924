"""Unit tests for the all-pairs distance matrix (repro.distance.matrix)."""

from __future__ import annotations

import pytest

from repro.distance.incremental import build_store, update_store_insert
from repro.distance.matrix import MAX_STORED_DISTANCE, DistanceMatrix
from repro.distance.oracle import INF
from repro.exceptions import DistanceOracleError, DistanceOverflowError
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph


def chain_of(num_nodes):
    """The directed path ``0 -> 1 -> ... -> num_nodes - 1``."""
    graph = DataGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for node in range(num_nodes - 1):
        graph.add_edge(node, node + 1)
    return graph


class TestDistances:
    def test_chain_distances(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        assert matrix.distance("n0", "n0") == 0
        assert matrix.distance("n0", "n3") == 3
        assert matrix.distance("n3", "n0") == INF

    def test_cycle_distances(self, tiny_graph):
        matrix = DistanceMatrix(tiny_graph)
        assert matrix.distance("a", "d") == 2
        assert matrix.distance("d", "b") == 2  # d -> a -> b

    def test_unknown_node_raises(self, tiny_graph):
        matrix = DistanceMatrix(tiny_graph)
        with pytest.raises(DistanceOracleError):
            matrix.distance("ghost", "a")

    def test_matches_bfs_on_random_graph(self):
        graph = random_data_graph(30, 90, seed=8)
        matrix = DistanceMatrix(graph)
        for source in graph.nodes():
            reference = graph.bfs_distances(source)
            for target in graph.nodes():
                expected = reference.get(target, INF)
                assert matrix.distance(source, target) == expected


class TestNonEmptyPathSemantics:
    def test_nonempty_distance_off_diagonal_equals_distance(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        assert matrix.nonempty_distance("n0", "n2") == 2

    def test_nonempty_distance_on_diagonal_is_cycle_length(self, tiny_graph):
        matrix = DistanceMatrix(tiny_graph)
        # Shortest cycle through a: a -> b -> d -> a (3 edges).
        assert matrix.nonempty_distance("a", "a") == 3

    def test_nonempty_distance_without_cycle_is_infinite(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        assert matrix.nonempty_distance("n0", "n0") == INF

    def test_within(self, tiny_graph):
        matrix = DistanceMatrix(tiny_graph)
        assert matrix.within("a", "d", 2)
        assert not matrix.within("a", "d", 1)
        assert matrix.within("a", "d", None)
        assert matrix.within("a", "a", 3)
        assert not matrix.within("a", "a", 2)

    def test_nonempty_distance_memo_survives_graph_mutation(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        assert matrix.nonempty_distance("n0", "n0") == INF
        chain_graph.add_edge("n3", "n0")  # close the cycle; version bumps
        matrix.refresh()
        assert matrix.nonempty_distance("n0", "n0") == 4

    def test_nonempty_distance_queried_between_mutation_and_refresh(self, chain_graph):
        # A memo taken from stale rows (after the mutation, before refresh)
        # must not survive the refresh.
        matrix = DistanceMatrix(chain_graph)
        chain_graph.add_edge("n3", "n0")  # close the cycle
        assert matrix.nonempty_distance("n0", "n0") == INF  # stale rows, by contract
        matrix.refresh()
        assert matrix.nonempty_distance("n0", "n0") == 4

    def test_reaches(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        assert matrix.reaches("n0", "n4")
        assert not matrix.reaches("n4", "n0")
        assert not matrix.reaches("n0", "n0")


class TestNeighbourhoodQueries:
    def test_descendants_within(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        assert matrix.descendants_within("n0", 2) == {"n1", "n2"}
        assert matrix.descendants_within("n0", None) == {"n1", "n2", "n3", "n4"}

    def test_descendants_within_includes_self_on_cycle(self, tiny_graph):
        matrix = DistanceMatrix(tiny_graph)
        assert "a" in matrix.descendants_within("a", 3)
        assert "a" not in matrix.descendants_within("a", 2)

    def test_ancestors_within(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        assert matrix.ancestors_within("n3", 2) == {"n1", "n2"}

    def test_ancestors_within_cycle(self, tiny_graph):
        matrix = DistanceMatrix(tiny_graph)
        assert "d" in matrix.ancestors_within("d", 3)

    def test_matches_graph_bfs_helpers(self):
        graph = random_data_graph(25, 80, seed=9)
        matrix = DistanceMatrix(graph)
        for node in graph.nodes():
            for bound in (1, 2, 3, None):
                assert matrix.descendants_within(node, bound) == graph.descendants_within(node, bound)
                assert matrix.ancestors_within(node, bound) == graph.ancestors_within(node, bound)


class TestMaintenanceHelpers:
    def test_refresh_after_mutation(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        chain_graph.add_edge("n4", "n0")
        assert not matrix.in_sync
        matrix.refresh()
        assert matrix.in_sync
        assert matrix.distance("n4", "n0") == 1

    def test_finite_pairs_and_counts(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        pairs = list(matrix.finite_pairs())
        assert matrix.num_finite_pairs() == len(pairs)
        assert ("n0", "n4", 4) in pairs


class TestStoreView:
    def test_longest_storable_chain_is_answered(self):
        graph = chain_of(MAX_STORED_DISTANCE + 1)
        matrix = DistanceMatrix(graph)
        assert matrix.distance(0, MAX_STORED_DISTANCE) == MAX_STORED_DISTANCE

    def test_path_beyond_the_cell_limit_raises(self):
        with pytest.raises(DistanceOverflowError):
            DistanceMatrix(chain_of(256))

    def test_node_added_out_of_band_is_isolated_until_refresh(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        chain_graph.add_node("late")
        # The next compile interns "late" into the matrix's own snapshot,
        # past the end of its store; the patched edges keep it current.
        compiled = compile_graph(chain_graph)
        for source, target in (("late", "n0"), ("n4", "late")):
            chain_graph.add_edge(source, target)
            compiled.patch_edge_insert(source, target)
        assert compile_graph(chain_graph) is compiled
        index = compiled.id_of("late")
        assert matrix.distance("late", "n0") == INF
        assert matrix.distance("n0", "late") == INF
        assert matrix.distance("late", "late") == 0
        assert matrix.descendants_within("late", None) == set()
        assert matrix.ancestors_within("late", None) == set()
        assert matrix.descendants_within_bits(compiled, index, None) == 0
        assert matrix.ancestors_within_bits(compiled, index, 2) == 0
        assert matrix.descendants_within("n4", None) == set()
        matrix.refresh()
        assert matrix.in_sync
        assert matrix.distance("late", "n0") == 1
        assert matrix.distance("n0", "late") == 5
        assert matrix.descendants_within("late", 2) == {"n0", "n1"}
        assert matrix.ancestors_within("late", 1) == {"n4"}

    def test_incremental_repair_does_not_move_the_view(self, chain_graph):
        matrix = DistanceMatrix(chain_graph)
        compiled = compile_graph(chain_graph)
        store = compiled.distance_store()
        update_store_insert(store, "n4", "n0")  # mutates graph, snapshot and store
        assert store.distance(compiled.id_of("n4"), compiled.id_of("n0")) == 1
        assert matrix.distance("n4", "n0") == INF
        matrix.refresh()
        assert matrix.distance("n4", "n0") == 1


class TestSelfLoopBoundZero:
    """A self-loop is a cycle of length 1, never one within bound 0."""

    @pytest.fixture
    def loop(self):
        graph = DataGraph()
        graph.add_node("a")
        graph.add_edge("a", "a")
        return graph

    def test_store_bound_zero_ball_is_empty(self, loop):
        compiled = compile_graph(loop)
        store = build_store(compiled)
        assert store.descendants_within_bits(compiled, 0, 0) == 0
        assert store.ancestors_within_bits(compiled, 0, 0) == 0
        assert store.descendants_within_bits(compiled, 0, 1) == 1
        assert store.ancestors_within_bits(compiled, 0, None) == 1
