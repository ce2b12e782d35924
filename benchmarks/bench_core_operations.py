"""Micro-benchmarks of the core library operations (not a paper figure).

These benchmark the individual building blocks — distance-matrix
construction, a single ``Match`` call, one incremental deletion/insertion —
with proper pytest-benchmark statistics (multiple rounds), complementing the
single-shot figure benchmarks.
"""

from __future__ import annotations

import pytest

from repro.datasets import youtube_graph
from repro.distance.matrix import DistanceMatrix
from repro.graph.compiled import compile_graph
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.bounded import match
from repro.matching.incremental import IncrementalMatcher
from repro.matching.simulation import graph_simulation
from repro.workloads.updates import random_deletions, random_insertions


@pytest.fixture(scope="module")
def setup():
    graph = youtube_graph(scale=0.03, seed=41)
    oracle = DistanceMatrix(graph)
    generator = PatternGenerator(graph, seed=41, predicate_attributes=("category",))
    pattern = generator.generate_dag(4, 4, 3)
    return graph, oracle, pattern


def test_bench_distance_matrix_construction(benchmark, setup):
    graph, _, _ = setup
    matrix = benchmark(DistanceMatrix, graph)
    assert matrix.num_finite_pairs() > 0


def test_bench_match_with_shared_matrix(benchmark, setup):
    """One bounded match over a precomputed distance matrix."""
    graph, oracle, pattern = setup
    result = benchmark(match, pattern, graph, oracle)
    assert result == match(pattern, graph)


def test_bench_compile_graph_snapshot(benchmark, setup):
    """One full compile (interning + CSR + attribute index) of the benchmark graph."""
    graph, _, _ = setup
    from repro.graph.compiled import CompiledGraph

    compiled = benchmark(CompiledGraph.from_graph, graph)
    assert len(compiled) == graph.number_of_nodes()


def test_bench_graph_simulation(benchmark, setup):
    """The graph-simulation path (bounded simulation with every bound 1)."""
    graph, _, pattern = setup
    traditional = pattern.copy()
    for source, target in traditional.edges():
        traditional.set_bound(source, target, 1)
    compile_graph(graph)  # amortised across calls, as in production use
    result = benchmark(graph_simulation, traditional, graph)
    assert result == match(traditional, graph)


def test_bench_incremental_deletion(benchmark, setup):
    graph, _, pattern = setup

    def do_round():
        working = graph.copy()
        matcher = IncrementalMatcher(pattern, working)
        update = random_deletions(working, 1, seed=1)[0]
        matcher.delete_edge(update.source, update.target)
        return matcher

    benchmark.pedantic(do_round, rounds=3, iterations=1)


def test_bench_incremental_insertion(benchmark, setup):
    graph, _, pattern = setup

    def do_round():
        working = graph.copy()
        matcher = IncrementalMatcher(pattern, working)
        update = random_insertions(working, 1, seed=2)[0]
        matcher.insert_edge(update.source, update.target)
        return matcher

    benchmark.pedantic(do_round, rounds=3, iterations=1)
