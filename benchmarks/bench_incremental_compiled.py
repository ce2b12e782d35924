"""Benchmark of the incremental engine on update streams (not a paper figure).

Replays a Fig. 6(i)-style mixed update stream (the workload of
``incremental_batch_experiment``) and Fig. 6(j)/(k)-style unit streams
through ``IncrementalMatcher`` and records the wall clock of ``apply`` —
snapshot patching, interned ``UpdateBM`` repair and bitset propagation
included.  A round-robin case drives two standing patterns on one
``MatchSession`` with alternating batches, so every batch also pays the
idle matcher's re-pin onto the shared distance store.  Each run checks the
maintained match against a fresh session's match of the updated graph.
"""

from __future__ import annotations

import time

import pytest

from repro.graph.pattern_generator import PatternGenerator
from repro.datasets import youtube_graph
from repro.engine.session import MatchSession
from repro.matching.incremental import IncrementalMatcher
from repro.workloads.updates import (
    mixed_updates,
    random_deletions,
    random_insertions,
    split_batches,
)

#: Workload knobs — the Fig. 6(i) wiring of exp_incremental at bench scale.
SCALE = 0.03
SEED = 23
STREAM_SIZE = 200
#: Round-robin case: updates per batch (the update_stream workload's size).
ROUND_ROBIN_BATCH = 10


@pytest.fixture(scope="module")
def setup():
    graph = youtube_graph(scale=SCALE, seed=SEED)
    generator = PatternGenerator(graph, seed=SEED, predicate_attributes=("category",))
    pattern = generator.generate_dag(4, 4, 3)
    updates = mixed_updates(graph, STREAM_SIZE, seed=SEED)
    return graph, pattern, updates


def _best_apply_seconds(graph, pattern, updates, repeats=3):
    """Best-of-*repeats* wall clock of one apply() on a fresh matcher.

    Matcher construction (store build + initial fixpoint) happens outside
    the timed region: the measurement is the update-stream hot path.
    Returns the time and the last run's matcher.
    """
    best = float("inf")
    matcher = None
    for _ in range(repeats):
        matcher = IncrementalMatcher(pattern, graph.copy())
        start = time.perf_counter()
        matcher.apply(updates)
        best = min(best, time.perf_counter() - start)
    return best, matcher


def _record_stream(benchmark, graph, pattern, updates, stream: str) -> None:
    def make():
        return (IncrementalMatcher(pattern, graph.copy()),), {}

    benchmark.pedantic(lambda m: m.apply(updates), setup=make, rounds=3)
    seconds, matcher = _best_apply_seconds(graph, pattern, updates)
    benchmark.extra_info["compiled_apply_s"] = round(seconds, 6)
    benchmark.extra_info["stream"] = stream
    assert matcher.match == MatchSession(matcher.graph.copy()).match(pattern)


def test_bench_incremental_compiled_stream(benchmark, setup):
    """The mixed stream of Fig. 6(i)."""
    graph, pattern, updates = setup
    _record_stream(
        benchmark, graph, pattern, updates, f"mixed |delta|={STREAM_SIZE} scale={SCALE}"
    )


@pytest.mark.parametrize(
    "workload_name,build",
    [
        ("deletions", lambda graph: random_deletions(graph, 100, seed=29)),
        ("insertions", lambda graph: random_insertions(graph, 100, seed=31)),
    ],
)
def test_bench_incremental_compiled_unit_streams(benchmark, setup, workload_name, build):
    """Fig. 6(j)/(k)-style unit streams."""
    graph, pattern, _ = setup
    _record_stream(
        benchmark,
        graph,
        pattern,
        build(graph),
        f"{workload_name} |delta|=100 scale={SCALE}",
    )


def test_bench_incremental_compiled_round_robin(benchmark, setup):
    """Two standing DAG P(4,4,3) on one session take turns applying batches."""
    graph, _, updates = setup
    generator = PatternGenerator(graph, seed=SEED + 1, predicate_attributes=("category",))
    patterns = [generator.generate_dag(4, 4, 3) for _ in range(2)]
    batches = split_batches(updates, ROUND_ROBIN_BATCH)

    def make():
        session = MatchSession(graph.copy())
        for pattern in patterns:
            session.incremental_matcher(pattern)
        return session

    def run(session):
        for index, batch in enumerate(batches):
            session.apply_updates(patterns[index % len(patterns)], batch)

    benchmark.pedantic(run, setup=lambda: ((make(),), {}), rounds=3)
    best = float("inf")
    for _ in range(3):
        session = make()
        start = time.perf_counter()
        run(session)
        best = min(best, time.perf_counter() - start)
    benchmark.extra_info["round_robin_apply_s"] = round(best, 6)
    benchmark.extra_info["stream"] = (
        f"mixed |delta|={STREAM_SIZE} in batches of {ROUND_ROBIN_BATCH}, "
        f"{len(patterns)} standing patterns, scale={SCALE}"
    )
    fresh = MatchSession(session.graph.copy())
    for pattern in patterns:
        maintained, _ = session.apply_updates(pattern, [])
        assert maintained == fresh.match(pattern)
