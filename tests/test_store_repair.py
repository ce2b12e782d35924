"""Differential tests of the compiled store repairs (``UpdateM``).

``update_store_insert`` walks the edge head's shortest-path DAG once per
improved source, and ``update_store_delete`` re-settles, per sink, the
sources that lost every shortest path.  After every update of seeded mixed
streams, on small graphs with cycles, self-loops, 2-cycles, a hub and
disconnected parts:

* the repaired store equals ``build_store`` of the patched snapshot, cell
  for cell, and is stamped current;
* the returned ``AFF1`` equals the diff of the cells before and after.

The streams are checked to reach both deletion cases: a sink where only
the edge tail changes, and a sink where more sources change with it.  A
diamond covers a sink reached through several shortest-path parents, and
the 254-hop cell limit covers both the insertion walk and the tail-only
settle: each raises and leaves no store that looks current.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.distance.incremental import (
    build_store,
    update_store_delete,
    update_store_insert,
)
from repro.distance.matrix import INF_CELL
from repro.distance.oracle import INF
from repro.exceptions import DistanceOverflowError
from repro.graph.compiled import compile_graph
from repro.graph.datagraph import DataGraph

STREAM_SEEDS = range(12)
STREAM_LENGTH = 60


def zoo_graph() -> DataGraph:
    """Cycles, a self-loop, a 2-cycle, a hub, a diamond and a separate part."""
    graph = DataGraph(name="repair-zoo")
    for node in range(18):
        graph.add_node(node, label="X")
    edges = [
        # a 5-cycle with a chord
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3),
        # a self-loop and a 2-cycle
        (2, 2), (5, 6), (6, 5),
        # a hub in and out of everything around it
        (7, 0), (7, 5), (7, 8), (7, 9), (8, 7), (9, 7), (3, 7),
        # a diamond 10 -> {11, 12} -> 13, with a tail out of it
        (10, 11), (10, 12), (11, 13), (12, 13), (13, 14),
        # a part no other node reaches
        (15, 16), (16, 17), (17, 15),
    ]
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


def cells_diff(before: bytes, after: bytes, n: int) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """AFF1 read off two cell images: every pair whose cell moved."""
    def value(cell: int) -> float:
        return INF if cell == INF_CELL else cell

    return {
        divmod(index, n): (value(old), value(new))
        for index, (old, new) in enumerate(zip(before, after))
        if old != new
    }


def deletion_cases(aff1, tail: int) -> List[str]:
    """Per changed sink: ``"tail"`` when only the tail moved, else ``"more"``."""
    sources: Dict[int, set] = {}
    for source, sink in aff1:
        sources.setdefault(sink, set()).add(source)
    return ["tail" if changed == {tail} else "more" for changed in sources.values()]


def run_stream(graph: DataGraph, seed: int, length: int = STREAM_LENGTH) -> List[str]:
    """Apply a seeded mixed stream through the store, checking every step."""
    rng = random.Random(seed)
    nodes = graph.node_list()
    compiled = compile_graph(graph)
    store = compiled.distance_store()
    n = store.num_nodes
    cases: List[str] = []
    for _ in range(length):
        source, target = rng.choice(nodes), rng.choice(nodes)
        before = bytes(store.flat)
        if graph.has_edge(source, target):
            aff1 = update_store_delete(store, source, target)
            cases += deletion_cases(aff1, compiled.id_of(source))
        else:
            aff1 = update_store_insert(store, source, target)
        assert compile_graph(graph) is compiled  # patched, never recompiled
        assert store.version == compiled.version
        assert bytes(store.flat) == bytes(build_store(compiled).flat)
        assert aff1 == cells_diff(before, bytes(store.flat), n)
    return cases


class TestMixedStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_zoo_stream_matches_a_fresh_build(self, seed):
        run_stream(zoo_graph(), seed)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_random_graph_stream_matches_a_fresh_build(self, seed):
        rng = random.Random(1000 + seed)
        graph = DataGraph(name="repair-random")
        for node in range(rng.randint(2, 14)):
            graph.add_node(node, label="X")
        nodes = graph.node_list()
        for _ in range(rng.randint(0, 3 * len(nodes))):
            graph.add_edge(rng.choice(nodes), rng.choice(nodes), strict=False)
        run_stream(graph, seed)

    def test_streams_reach_both_deletion_cases(self):
        cases = []
        for seed in STREAM_SEEDS:
            cases += run_stream(zoo_graph(), seed)
        assert "tail" in cases
        assert "more" in cases


class TestDiamond:
    def test_insertion_reaches_a_sink_with_two_shortest_parents(self):
        # x -> s, then s -> t inserted; t -> {a, b} -> y -> w.
        graph = DataGraph(name="diamond")
        for node in "xstabyw":
            graph.add_node(node, label="X")
        for source, target in ["xs", "ta", "tb", "ay", "by", "yw"]:
            graph.add_edge(source, target)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        before = bytes(store.flat)
        aff1 = update_store_insert(store, "s", "t")
        assert bytes(store.flat) == bytes(build_store(compiled).flat)
        assert aff1 == cells_diff(before, bytes(store.flat), store.num_nodes)
        node_of = compiled.node_of
        decoded = {(node_of(x), node_of(y)): change for (x, y), change in aff1.items()}
        assert decoded[("x", "y")] == (INF, 4)
        assert decoded[("x", "w")] == (INF, 5)
        assert decoded[("s", "a")] == (INF, 2)
        assert decoded[("s", "b")] == (INF, 2)

    def test_insertion_improves_only_one_branch_of_a_diamond(self):
        # x already reaches a in one hop, so only the b branch improves.
        graph = DataGraph(name="half-diamond")
        for node in "xstaby":
            graph.add_node(node, label="X")
        for source, target in ["xs", "xa", "ta", "tb", "ay", "by"]:
            graph.add_edge(source, target)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        before = bytes(store.flat)
        aff1 = update_store_insert(store, "s", "t")
        assert bytes(store.flat) == bytes(build_store(compiled).flat)
        assert aff1 == cells_diff(before, bytes(store.flat), store.num_nodes)
        node_of = compiled.node_of
        changed = {(node_of(x), node_of(y)) for x, y in aff1}
        assert ("x", "b") in changed
        assert ("x", "a") not in changed and ("x", "y") not in changed

    def test_deletion_keeps_a_sink_with_a_second_shortest_parent(self):
        graph = DataGraph(name="diamond-delete")
        for node in "tabyz":
            graph.add_node(node, label="X")
        for source, target in ["ta", "tb", "ay", "by", "zt"]:
            graph.add_edge(source, target)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        before = bytes(store.flat)
        aff1 = update_store_delete(store, "a", "y")
        assert bytes(store.flat) == bytes(build_store(compiled).flat)
        assert aff1 == cells_diff(before, bytes(store.flat), store.num_nodes)
        node_of = compiled.node_of
        assert {(node_of(x), node_of(y)) for x, y in aff1} == {("a", "y")}


def chain(graph: DataGraph, prefix: str, length: int) -> None:
    """Add the path ``prefix0 -> ... -> prefix{length-1}``."""
    for index in range(length):
        graph.add_node(f"{prefix}{index}", label="X")
    for index in range(length - 1):
        graph.add_edge(f"{prefix}{index}", f"{prefix}{index + 1}")


class TestHopLimit:
    def test_insertion_walk_past_254_hops_raises_and_unstamps(self):
        # Two 128-node chains: joining them makes d(a0, b127) == 255.
        graph = DataGraph(name="join")
        chain(graph, "a", 128)
        chain(graph, "b", 128)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        with pytest.raises(DistanceOverflowError):
            update_store_insert(store, "a127", "b0")
        assert graph.has_edge("a127", "b0")
        assert store.version != compiled.version
        with pytest.raises(DistanceOverflowError):
            compiled.distance_store()

    def test_insertion_walk_at_254_hops_fits(self):
        graph = DataGraph(name="join-fits")
        chain(graph, "a", 128)
        chain(graph, "b", 127)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        aff1 = update_store_insert(store, "a127", "b0")
        a0, b126 = compiled.id_of("a0"), compiled.id_of("b126")
        assert aff1[(a0, b126)] == (INF, 254)
        assert store.version == compiled.version
        assert bytes(store.flat) == bytes(build_store(compiled).flat)

    def test_tail_only_settle_past_254_hops_raises_and_unstamps(self):
        # s -> t -> y is the short way; s -> c0 -> ... -> c253 -> y is 255
        # hops.  s has no predecessor, so deleting s -> t moves only s.
        graph = DataGraph(name="detour")
        chain(graph, "c", 254)
        for node in "sty":
            graph.add_node(node, label="X")
        for source, target in [("s", "t"), ("t", "y"), ("s", "c0"), ("c253", "y")]:
            graph.add_edge(source, target)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        s, y = compiled.id_of("s"), compiled.id_of("y")
        assert store.distance(s, y) == 2
        assert store.distance(compiled.id_of("c0"), y) == 254
        with pytest.raises(DistanceOverflowError):
            update_store_delete(store, "s", "t")
        assert not graph.has_edge("s", "t")
        assert store.version != compiled.version
        with pytest.raises(DistanceOverflowError):
            compiled.distance_store()

    def test_tail_only_settle_at_254_hops_fits(self):
        graph = DataGraph(name="detour-fits")
        chain(graph, "c", 253)
        for node in "sty":
            graph.add_node(node, label="X")
        for source, target in [("s", "t"), ("t", "y"), ("s", "c0"), ("c252", "y")]:
            graph.add_edge(source, target)
        compiled = compile_graph(graph)
        store = compiled.distance_store()
        aff1 = update_store_delete(store, "s", "t")
        s, y = compiled.id_of("s"), compiled.id_of("y")
        assert aff1[(s, y)] == (2, 254)
        assert set(deletion_cases(aff1, s)) == {"tail"}
        assert store.version == compiled.version
        assert bytes(store.flat) == bytes(build_store(compiled).flat)
