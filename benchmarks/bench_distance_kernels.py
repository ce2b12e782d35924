"""Eager-vs-compiled distance engine ratios (the distance BENCH trajectory).

Three old-vs-new comparisons at the fig6(f)-(h) smoke sizes
(|V|=1000, |E|=3000, 100 labels, bound k=3), each recorded into
``BENCH_distance.json`` at the repo root and into pytest-benchmark's
``extra_info``:

* **ball queries** — answering a batch of bounded descendant/ancestor balls
  through the eager precomputed :class:`DistanceMatrix` (which must build
  all of ``M`` first) vs the lazy :class:`CompiledDistanceMatrix`
  (gate: >= 5x);
* **per-ball kernel** — one dict-based ``DataGraph`` BFS vs one flat-kernel
  ball, no construction on either side (gate: >= 1x, the CI regression
  floor);
* **match precompute** — ``match()`` end-to-end with a freshly built eager
  ``M`` (the old default) vs the current default compiled oracle
  (gate: >= 3x).

One further case measures scale rather than a ratio: the **store scale**
case builds the IncMatch store for ``youtube_graph`` at 741, 1,483 and
2,966 nodes and records its ``tracemalloc`` size and build seconds in
``extra_info`` (gate: <= 20 MB at 2,966 nodes).
"""

from __future__ import annotations

import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import best_of

from repro.datasets.synthetic_real import youtube_graph
from repro.distance.compiled import CompiledDistanceMatrix
from repro.distance.incremental import build_store
from repro.distance.matrix import DistanceMatrix
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.generators import random_data_graph
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.bounded import match, naive_match

NUM_NODES = 1000
NUM_EDGES = 3000
NUM_LABELS = 100
BOUND = 3
SEED = 19
NUM_BALL_QUERIES = 200

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_distance.json"


@pytest.fixture(scope="module")
def setup():
    graph = random_data_graph(NUM_NODES, NUM_EDGES, num_labels=NUM_LABELS, seed=SEED)
    rng = random.Random(SEED)
    sample = rng.sample(list(graph.nodes()), NUM_BALL_QUERIES)
    return graph, sample


def _record(benchmark, name: str, legacy_s: float, compiled_s: float) -> float:
    """Attach the ratio to extra_info and fold it into BENCH_distance.json."""
    speedup = legacy_s / compiled_s if compiled_s else float("inf")
    benchmark.extra_info[f"{name}_legacy_s"] = round(legacy_s, 6)
    benchmark.extra_info[f"{name}_compiled_s"] = round(compiled_s, 6)
    benchmark.extra_info[f"{name}_speedup_old_over_new"] = round(speedup, 2)

    payload = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            payload = {}
    payload.setdefault(
        "workload",
        {
            "num_nodes": NUM_NODES,
            "num_edges": NUM_EDGES,
            "num_labels": NUM_LABELS,
            "bound": BOUND,
            "seed": SEED,
            "ball_queries": NUM_BALL_QUERIES,
        },
    )
    payload.setdefault("ratios", {})[name] = {
        "legacy_s": round(legacy_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup_old_over_new": round(speedup, 2),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return speedup


def test_bench_ball_queries_legacy_vs_compiled(benchmark, setup):
    """Bounded-ball batch through a fresh oracle: eager ``M`` vs lazy engine."""
    graph, sample = setup

    def legacy_run():
        oracle = DistanceMatrix(graph)
        for node in sample:
            oracle.descendants_within(node, BOUND)
            oracle.ancestors_within(node, BOUND)

    def compiled_run():
        oracle = CompiledDistanceMatrix(graph)
        for node in sample:
            oracle.descendants_within(node, BOUND)
            oracle.ancestors_within(node, BOUND)

    benchmark.pedantic(compiled_run, rounds=3, iterations=1)
    legacy_s = best_of(legacy_run, repeats=2)
    compiled_s = best_of(compiled_run, repeats=3)
    speedup = _record(benchmark, "ball_queries", legacy_s, compiled_s)
    # Acceptance gate of the compiled distance engine.
    assert speedup >= 5.0, f"lazy ball queries only {speedup:.1f}x faster than eager M"


def test_bench_per_ball_kernel_vs_dict_bfs(benchmark, setup):
    """One ball, no construction: dict BFS on DataGraph vs the flat kernel."""
    graph, sample = setup
    compiled = compile_graph(graph)
    kernel = compiled.flat_kernel()
    indices = [compiled.id_of(node) for node in sample]
    bounds = (BOUND, None)

    def legacy_run():
        for node in sample:
            for bound in bounds:
                graph.descendants_within(node, bound)

    def compiled_run():
        for index in indices:
            for bound in bounds:
                kernel.ball_bits(index, bound)

    benchmark.pedantic(compiled_run, rounds=3, iterations=1)
    legacy_s = best_of(legacy_run, repeats=2)
    compiled_s = best_of(compiled_run, repeats=3)
    speedup = _record(benchmark, "per_ball_kernel", legacy_s, compiled_s)
    # CI regression floor: the flat kernel must never lose to the dict BFS.
    assert speedup >= 1.0, f"flat kernel slower than dict BFS ({speedup:.2f}x)"


def test_bench_match_precompute_end_to_end(benchmark, setup):
    """match() including distance precompute: eager ``M`` (old default) vs compiled."""
    graph, _ = setup
    generator = PatternGenerator(graph, seed=SEED)
    patterns = [generator.generate(6, 6, BOUND) for _ in range(2)]

    def legacy_run():
        for pattern in patterns:
            match(pattern, graph, DistanceMatrix(graph))

    def compiled_run():
        for pattern in patterns:
            match(pattern, graph)  # default oracle: CompiledDistanceMatrix

    benchmark.pedantic(compiled_run, rounds=3, iterations=1)
    # Results must be identical before the times mean anything.
    for pattern in patterns:
        expected = naive_match(pattern, graph)
        assert match(pattern, graph) == expected
        assert match(pattern, graph, DistanceMatrix(graph)) == expected
    legacy_s = best_of(legacy_run, repeats=2)
    compiled_s = best_of(compiled_run, repeats=3)
    speedup = _record(benchmark, "match_precompute", legacy_s, compiled_s)
    # Acceptance gate of the compiled distance engine.
    assert speedup >= 3.0, f"compiled match precompute only {speedup:.1f}x faster"


#: The store-scale case: youtube_graph scales of 741, 1,483 and 2,966 nodes.
STORE_SCALES = (0.05, 0.1, 0.2)

#: Gate on the traced size of the store at the largest scale (2,966 nodes:
#: 8.8 MB of cells; the dict-of-finite-entries layout measured 567 MB).
STORE_MB_GATE = 20.0


@pytest.mark.parametrize("scale", STORE_SCALES)
def test_bench_store_scale(benchmark, scale):
    """The IncMatch store of the whole Exp-3 graph: traced size and build time."""
    graph = youtube_graph(scale=scale)
    compiled = CompiledGraph.from_graph(graph)
    # The snapshot's decoded adjacency is the snapshot's, not the store's.
    compiled.flat_kernel().adjacency_tuples()
    start = time.perf_counter()
    benchmark.pedantic(build_store, args=(compiled,), rounds=1, iterations=1)
    build_s = time.perf_counter() - start
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = build_store(compiled)
        store_mb = (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()
    benchmark.extra_info["num_nodes"] = store.num_nodes
    benchmark.extra_info["store_mb"] = round(store_mb, 2)
    benchmark.extra_info["build_s"] = round(build_s, 3)
    assert store.num_nodes == graph.number_of_nodes()
    if scale == max(STORE_SCALES):
        assert store_mb <= STORE_MB_GATE, f"store of {store.num_nodes} nodes is {store_mb:.1f} MB"
