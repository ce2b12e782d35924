"""The benchmark's three workloads, each a closed loop with one client.

Every workload builds its data graph from a fixed dataset seed (the
stand-in for the paper's one real graph) and its queries and updates from
the run's ``--seed``.  The program receives only the graph and the DSL
text of each query or the update list of each batch.

A workload exposes:

* ``dataset()`` — a fresh copy of its data graph;
* ``setup(graph, seed)`` — what a user does before the first request (timed as
  ``setup_s``); returns the state the operations run against;
* ``operations(state, seed)`` — an endless iterator of operation inputs,
  drawn from the seed (and, for updates, from the live graph);
* ``execute(state, op)`` — runs one operation through the public API and
  returns ``(latencies, record)``; the record is what ``check`` verifies;
* ``check(records, graph, ops)`` — compares every record against an
  independent route and returns ``(attempted, failed)``; *graph* is the
  served graph after the run and *ops* every operation input, warm-up
  included.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from collections import Counter
from typing import Dict, Iterator, List, Tuple

from repro.api import to_dsl, wrap
from repro.datasets.synthetic_real import youtube_graph
from repro.distance.bfs import BFSDistanceOracle
from repro.graph.generators import skewed_label_graph
from repro.graph.pattern_generator import PatternGenerator
from repro.workloads.patterns import (
    YOUTUBE_EXAMPLE_DSL,
    YOUTUBE_FIG6A_P1_DSL,
    YOUTUBE_FIG6A_P2_DSL,
    pooled_label_workload,
    skewed_chain_workload,
)
from repro.workloads.updates import mixed_updates, split_batches

HAND_WRITTEN = (YOUTUBE_EXAMPLE_DSL, YOUTUBE_FIG6A_P1_DSL, YOUTUBE_FIG6A_P2_DSL)


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _render(view) -> str:
    """What a client does with a result: serialise it and count its tuples."""
    text = view.to_json()
    view.factorised().count_factorised()
    return text


def _digest(text: str) -> str:
    """The output a client received, kept small until the check."""
    return hashlib.sha1(text.encode()).hexdigest()


def _answer(handle, query: str) -> str:
    return _digest(handle.query(query).match().to_json())


def _reference(graph, balls=None):
    """An independent route: BFS oracle, so no edge memo and no adjacency path.

    *balls* caps the oracle's ball memo (``None``: unbounded), which only
    changes how long the check takes, not its answers.
    """
    copy = graph.copy()
    return wrap(copy, oracle=BFSDistanceOracle(copy, bits_cache_size=balls))


class PaperQueries:
    """Exp-1/2 read path: distinct DSL queries on one long-lived handle."""

    name = "paper_queries"
    scale = 0.1
    dataset_seed = 42
    #: Untimed queries before the timed region, so the ball LRU and the
    #: edge-seed memo reach their steady state first.
    warmup = 60
    specs = ((4, 4, 4), (8, 8, 4), (4, 4, 1))
    setup_repeats = 7

    def params(self) -> Dict[str, object]:
        graph = self.dataset()
        return {
            "graph": f"youtube_graph(scale={self.scale}, seed={self.dataset_seed})",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "queries": "3 hand-written (Example 2.3, Fig. 6(a) P1/P2), then "
            "P(4,4,4), P(8,8,4), P(4,4,1) in turn from PatternGenerator(seed)",
            "warmup_queries": self.warmup,
            "loop": "closed, one client",
        }

    def dataset(self):
        return youtube_graph(scale=self.scale, seed=self.dataset_seed)

    def setup(self, graph, seed: int):
        return wrap(graph)

    def operations(self, handle, seed: int) -> Iterator[str]:
        generator = PatternGenerator(handle.graph, seed=seed)
        index = 0
        while True:
            if index == self.warmup:
                yield from HAND_WRITTEN
            yield to_dsl(generator.generate(*self.specs[index % len(self.specs)]))
            index += 1

    def execute(self, handle, text: str):
        start = time.perf_counter()
        output = _render(handle.query(text).match())
        elapsed = _ms(start)
        return {"op": elapsed, "read": elapsed, "units": 1}, (text, _digest(output))

    def check(self, records, graph, ops) -> Tuple[int, int]:
        reference = _reference(graph)
        failed = sum(_answer(reference, text) != output for text, output in records)
        return len(records), failed

    def close(self, handle) -> None:
        handle.close()


class SkewedBatch:
    """Batch path: 24-query ``match_many`` batches on a Zipf-labelled graph."""

    name = "skewed_batch"
    num_nodes = 30_000
    num_edges = 90_000
    num_labels = 40
    skew = 1.3
    dataset_seed = 7
    chain_queries = 8
    pooled_queries = 12
    label_pools = 3
    max_top_label_nodes = 2
    repeats = 4
    #: The first batch starts the worker pool; the next ones warm the
    #: workers' ball and edge-seed memos.  All run before timing.
    warmup = 4
    setup_repeats = 3

    def params(self) -> Dict[str, object]:
        return {
            "graph": f"skewed_label_graph({self.num_nodes}, {self.num_edges}, "
            f"num_labels={self.num_labels}, skew={self.skew}, "
            f"seed={self.dataset_seed})",
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "batch": f"{self.chain_queries} skewed_chain_workload + "
            f"{self.pooled_queries} pooled_label_workload + "
            f"{self.repeats} repeats of earlier queries",
            "parallel": "None (the engine starts its own pool)",
            "warmup_batches": self.warmup,
            "loop": "closed, one client",
        }

    def dataset(self):
        return skewed_label_graph(
            self.num_nodes,
            self.num_edges,
            num_labels=self.num_labels,
            skew=self.skew,
            seed=self.dataset_seed,
        )

    def setup(self, graph, seed: int):
        return wrap(graph)

    def operations(self, handle, seed: int) -> Iterator[List[str]]:
        rng = random.Random(seed)
        graph = handle.graph
        labels = Counter(graph.attributes(node)["label"] for node in graph.nodes())
        top_label = re.compile(rf":{labels.most_common(1)[0][0]}\b")
        per_pool = self.pooled_queries // self.label_pools
        earlier: List[str] = []
        while True:
            fresh = [
                to_dsl(pattern)
                for pattern in skewed_chain_workload(
                    graph, num_patterns=self.chain_queries, seed=rng.getrandbits(32)
                )
            ]
            # A query with three or four nodes on the label a third of the
            # graph carries costs ten times a median batch (2.2 s against
            # 0.23 s) and alone would set a run's throughput, so such draws
            # are replaced.  The shared-edge-type queries come from several
            # label pools per batch, so a run averages over many pools.
            for _ in range(self.label_pools):
                pooled: List[str] = []
                while len(pooled) < per_pool:
                    for pattern in pooled_label_workload(
                        graph, num_patterns=per_pool, seed=rng.getrandbits(32)
                    ):
                        text = to_dsl(pattern)
                        if len(top_label.findall(text)) <= self.max_top_label_nodes:
                            pooled.append(text)
                fresh += pooled[:per_pool]
            repeats = rng.sample(earlier or fresh, self.repeats)
            earlier.extend(fresh)
            batch = fresh + repeats
            rng.shuffle(batch)
            yield batch

    def execute(self, handle, batch: List[str]):
        start = time.perf_counter()
        outputs = [view.to_json() for view in handle.match_many(batch)]
        elapsed = _ms(start)
        timings = {"op": elapsed, "read": elapsed, "units": len(batch)}
        return timings, [(text, _digest(output)) for text, output in zip(batch, outputs)]

    def check(self, records, graph, ops) -> Tuple[int, int]:
        reference = _reference(graph, balls=1 << 16)
        pairs = [pair for batch in records for pair in batch]
        failed = sum(_answer(reference, text) != output for text, output in pairs)
        return len(pairs), failed

    def close(self, handle) -> None:
        handle.close()


class UpdateStream:
    """Exp-3: IncMatch batches on two standing patterns, each followed by a read."""

    name = "update_stream"
    scale = 0.05
    dataset_seed = 42
    batch_size = 10
    standing = 2
    warmup = 2
    setup_repeats = 3

    def params(self) -> Dict[str, object]:
        graph = self.dataset()
        return {
            "graph": f"youtube_graph(scale={self.scale}, seed={self.dataset_seed})",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "standing_patterns": f"{self.standing} x DAG P(4,4,3) via PreparedQuery.stream",
            "updates": f"mixed_updates(insert_ratio=0.5) in batches of {self.batch_size}, "
            "round-robin over the standing patterns",
            "reads": "one fresh DAG P(4,4,3) match after each batch",
            "warmup_batches": self.warmup,
            "loop": "closed, one client",
        }

    def dataset(self):
        return youtube_graph(scale=self.scale, seed=self.dataset_seed)

    def setup(self, graph, seed: int):
        handle = wrap(graph)
        generator = PatternGenerator(graph, seed=seed)
        standing = []
        for _ in range(self.standing):
            query = handle.query(to_dsl(generator.generate_dag(4, 4, 3)))
            query.stream([])
            standing.append(query)
        return handle, standing

    def operations(self, state, seed: int) -> Iterator[Tuple[int, list, str]]:
        handle, standing = state
        graph = handle.graph
        rng = random.Random(seed)
        generator = PatternGenerator(graph, seed=seed + 1)
        index = 0
        while True:
            # One delta list per ten batches, drawn from the graph as it is
            # now; an update a previous batch already made is a no-op.
            stream = mixed_updates(graph, self.batch_size * 10, seed=rng)
            for updates in split_batches(stream, self.batch_size):
                read = to_dsl(generator.generate_dag(4, 4, 3))
                yield index % len(standing), updates, read
                index += 1

    def execute(self, state, op):
        handle, standing = state
        target, updates, read_text = op
        start = time.perf_counter()
        maintained = standing[target].stream(updates).to_json()
        write = _ms(start)
        start = time.perf_counter()
        read = _render(handle.query(read_text).match())
        read_ms = _ms(start)
        record = (
            updates,
            (standing[target].to_dsl(), _digest(maintained)),
            (read_text, _digest(read)),
        )
        timings = {"op": write, "read": read_ms, "units": len(updates), "busy": write + read_ms}
        return timings, record

    def check(self, records, graph, ops) -> Tuple[int, int]:
        """Replay the updates on a plain copy of the dataset and re-match.

        Replaying instead of keeping a graph copy per batch keeps the
        client's memory, and so ``peak_rss_mb``, independent of how many
        batches a run holds.
        """
        replica = self.dataset()

        def apply(updates) -> None:
            for update in updates:
                present = replica.has_edge(update.source, update.target)
                if update.is_insert and not present:
                    replica.add_edge(update.source, update.target)
                elif not update.is_insert and present:
                    replica.remove_edge(update.source, update.target)

        for _, updates, _ in ops[: self.warmup]:
            apply(updates)
        attempted = failed = 0
        for updates, *answers in records:
            apply(updates)
            fresh = wrap(replica.copy())
            for text, output in answers:
                attempted += 1
                failed += _answer(fresh, text) != output
        return attempted, failed

    def close(self, state) -> None:
        state[0].close()


WORKLOADS = {cls.name: cls for cls in (PaperQueries, SkewedBatch, UpdateStream)}
