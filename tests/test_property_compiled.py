"""Property-based tests for the compiled matching path.

The compiled bitset refinement must be *relation-identical* to the naive
greatest-fixpoint reference on random graphs and random patterns, for every
distance oracle, cold and warm.  These tests
are the acceptance gate of the compiled core: any divergence between the
interned/bitset world and the original node-id world is a bug.
"""

from __future__ import annotations

from typing import Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distance.bfs import BFSDistanceOracle
from repro.distance.matrix import DistanceMatrix
from repro.distance.twohop import TwoHopOracle
from repro.engine.session import MatchSession
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.matching.bounded import match, naive_match
from repro.matching.simulation import graph_simulation

LABELS = ["A", "B", "C"]

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def data_graphs(draw, max_nodes: int = 12) -> DataGraph:
    """A random labelled digraph with up to *max_nodes* nodes."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=num_nodes, max_size=num_nodes)
    )
    graph = DataGraph(name="hypothesis")
    for index, label in enumerate(labels):
        graph.add_node(index, label=label)
    possible_edges = [
        (u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v
    ]
    if possible_edges:
        edges = draw(
            st.lists(st.sampled_from(possible_edges), max_size=3 * num_nodes, unique=True)
        )
        for source, target in edges:
            graph.add_edge(source, target, strict=False)
    return graph


@st.composite
def patterns(draw, max_nodes: int = 4, traditional: bool = False) -> Pattern:
    """A random connected pattern with label predicates and small bounds."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    pattern = Pattern(name="hypothesis-pattern")
    for index in range(num_nodes):
        pattern.add_node(index, draw(st.sampled_from(LABELS)))
    for index in range(1, num_nodes):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        bound = 1 if traditional else draw(st.sampled_from([1, 2, 3, "*"]))
        pattern.add_edge(parent, index, bound)
    if num_nodes >= 2 and draw(st.booleans()):
        source = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        target = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if source != target and not pattern.has_edge(source, target):
            bound = 1 if traditional else draw(st.sampled_from([1, 2, 3, "*"]))
            pattern.add_edge(source, target, bound)
    return pattern


@st.composite
def pattern_graph_pairs(draw, traditional: bool = False) -> Tuple[Pattern, DataGraph]:
    return draw(patterns(traditional=traditional)), draw(data_graphs())


class TestCompiledMatchProperties:
    @SETTINGS
    @given(pattern_graph_pairs())
    def test_compiled_match_agrees_with_naive_reference(self, pair):
        pattern, graph = pair
        assert match(pattern, graph) == naive_match(pattern, graph)

    @SETTINGS
    @given(pattern_graph_pairs())
    def test_compiled_match_agrees_with_legacy_set_path(self, pair):
        """A held session over the precomputed matrix, cold then warm."""
        pattern, graph = pair
        reference = naive_match(pattern, graph)
        session = MatchSession(graph, oracle=DistanceMatrix(graph))
        assert session.match(pattern) == reference
        assert session.match_many([pattern, pattern], parallel=False) == [
            reference,
            reference,
        ]

    @SETTINGS
    @given(pattern_graph_pairs())
    def test_all_oracles_agree_on_the_compiled_path(self, pair):
        pattern, graph = pair
        reference = naive_match(pattern, graph)
        assert match(pattern, graph, DistanceMatrix(graph)) == reference
        assert match(pattern, graph, BFSDistanceOracle(graph)) == reference
        assert match(pattern, graph, BFSDistanceOracle(graph, cache=False)) == reference
        assert match(pattern, graph, TwoHopOracle(graph)) == reference
        assert (
            match(pattern, graph, TwoHopOracle(graph, reachability_only=True))
            == reference
        )

    @SETTINGS
    @given(pattern_graph_pairs(traditional=True))
    def test_compiled_graph_simulation_agrees_with_legacy(self, pair):
        pattern, graph = pair
        # Every edge of a traditional pattern has bound 1, so the naive
        # bounded fixpoint is exactly graph simulation.
        assert graph_simulation(pattern, graph) == naive_match(pattern, graph)

    @SETTINGS
    @given(pattern_graph_pairs(traditional=True))
    def test_compiled_graph_simulation_agrees_with_bounded_match(self, pair):
        pattern, graph = pair
        assert graph_simulation(pattern, graph) == match(pattern, graph)

    @SETTINGS
    @given(pattern_graph_pairs(), st.integers(min_value=0, max_value=10**6))
    def test_match_after_mutation_recompiles(self, pair, salt):
        """The version-keyed cache must never serve a stale snapshot."""
        pattern, graph = pair
        match(pattern, graph)  # populate the compile cache
        nodes = graph.node_list()
        if len(nodes) < 2:
            return
        source = nodes[salt % len(nodes)]
        target = nodes[(salt // 7 + 1) % len(nodes)]
        if source == target:
            return
        if graph.has_edge(source, target):
            graph.remove_edge(source, target)
        else:
            graph.add_edge(source, target)
        assert compile_graph(graph).version == graph.version
        assert match(pattern, graph) == naive_match(pattern, graph)

    @SETTINGS
    @given(data_graphs())
    def test_compiled_reachability_matches_datagraph(self, graph):
        compiled = compile_graph(graph)
        for node in graph.nodes():
            index = compiled.id_of(node)
            for bound in (1, 2, None):
                assert compiled.decode(
                    compiled.descendants_within_bits(index, bound)
                ) == graph.descendants_within(node, bound)
                assert compiled.decode(
                    compiled.ancestors_within_bits(index, bound)
                ) == graph.ancestors_within(node, bound)
