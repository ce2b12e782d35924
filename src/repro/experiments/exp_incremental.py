"""Exp-3: incremental matching performance (Fig. 6(i)–(k)).

Three drivers compare ``IncMatch`` against re-running the batch algorithm
``Match`` (which, as in the paper, must rebuild the distance matrix after
the graph changes — that cost is counted):

* :func:`incremental_batch_experiment`      — Fig. 6(i): mixed update lists
  ``δ`` of growing size;
* :func:`incremental_deletions_experiment`  — Fig. 6(j): deletions only;
* :func:`incremental_insertions_experiment` — Fig. 6(k): insertions only.

Each row reports the elapsed time of both approaches and the size of the
affected area ``|AFF| = |AFF1| + |AFF2|`` per update, mirroring the numbers
annotated on the paper's plots.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.datasets import youtube_graph
from repro.distance.incremental import EdgeUpdate
from repro.distance.matrix import DistanceMatrix
from repro.experiments.harness import ExperimentRecord, timed
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.bounded import match
from repro.matching.incremental import IncrementalMatcher
from repro.workloads.updates import mixed_updates, random_deletions, random_insertions

__all__ = [
    "incremental_batch_experiment",
    "incremental_deletions_experiment",
    "incremental_insertions_experiment",
]

#: Default |δ| sweeps, scaled down ~8x from the paper's 400..3200 / 200..1600
#: to match the default graph scale.
DEFAULT_MIXED_SIZES = (50, 100, 150, 200, 250, 300, 350, 400)
DEFAULT_UNIT_SIZES = (25, 50, 75, 100, 125, 150, 175, 200)


def _prepare(
    scale: float, seed: int, pattern_nodes: int, pattern_edges: int, bound: int
):
    """Build the YouTube substitute, a DAG pattern over it, and a baseline match."""
    graph = youtube_graph(scale=scale, seed=seed)
    generator = PatternGenerator(graph, seed=seed, predicate_attributes=("category",))
    pattern = generator.generate_dag(pattern_nodes, pattern_edges, bound)
    return graph, pattern


def _run_sweep(
    *,
    experiment: str,
    title: str,
    paper_expectation: str,
    workload: Callable[[DataGraph, int, int], List[EdgeUpdate]],
    sizes: Sequence[int],
    scale: float,
    seed: int,
    pattern_nodes: int,
    pattern_edges: int,
    bound: int,
) -> ExperimentRecord:
    record = ExperimentRecord(
        experiment=experiment,
        title=title,
        paper_expectation=paper_expectation,
        notes=(
            f"YouTube substitute scale={scale}; pattern "
            f"P({pattern_nodes},{pattern_edges},{bound}) (DAG); Match time includes "
            "rebuilding the distance matrix on the updated graph"
        ),
    )
    for size in sizes:
        # Fresh copies per point: all approaches start from the same state.
        base_graph, pattern = _prepare(scale, seed, pattern_nodes, pattern_edges, bound)
        updates = workload(base_graph, size, seed)

        # Incremental (compiled engine): maintain the patched snapshot,
        # interned distance store and bitset match through the update list.
        inc_graph = base_graph.copy()
        matcher = IncrementalMatcher(pattern, inc_graph)
        area, inc_seconds = timed(matcher.apply, updates)

        # Batch: apply the updates to a copy, then rerun Match from scratch
        # (matrix rebuild included, as in the paper).
        batch_graph = base_graph.copy()
        for update in updates:
            if update.is_insert:
                batch_graph.add_edge(update.source, update.target, strict=False)
            else:
                batch_graph.remove_edge(update.source, update.target, strict=False)

        def rerun_batch():
            oracle = DistanceMatrix(batch_graph)
            return match(pattern, batch_graph, oracle)

        batch_result, batch_seconds = timed(rerun_batch)

        agreement = matcher.match == batch_result
        record.add_row(
            **{
                "|delta|": size,
                "IncMatch_s": round(inc_seconds, 3),
                "Match_s": round(batch_seconds, 3),
                "speedup": round(batch_seconds / inc_seconds, 2) if inc_seconds else float("inf"),
                "AFF_per_update": round(area.total_size / max(1, size), 1),
                "AFF1": area.aff1_size,
                "AFF2": area.aff2_core_size,
                "results_agree": agreement,
            }
        )
    return record


def incremental_batch_experiment(
    *,
    scale: float = 0.03,
    seed: int = 23,
    sizes: Sequence[int] = DEFAULT_MIXED_SIZES,
    pattern_nodes: int = 4,
    pattern_edges: int = 4,
    bound: int = 3,
) -> ExperimentRecord:
    """Fig. 6(i): IncMatch vs Match for mixed batch updates ``δ``."""
    return _run_sweep(
        experiment="fig6i",
        title="IncMatch vs Match for batch updates (mixed deletions + insertions)",
        paper_expectation=(
            "IncMatch outperforms Match for small-to-moderate |δ| and loses its "
            "advantage once |δ| gets large (the crossover in the paper is at "
            "~2800 of 58901 edges)"
        ),
        workload=lambda graph, size, s: mixed_updates(graph, size, seed=s),
        sizes=sizes,
        scale=scale,
        seed=seed,
        pattern_nodes=pattern_nodes,
        pattern_edges=pattern_edges,
        bound=bound,
    )


def incremental_deletions_experiment(
    *,
    scale: float = 0.03,
    seed: int = 29,
    sizes: Sequence[int] = DEFAULT_UNIT_SIZES,
    pattern_nodes: int = 4,
    pattern_edges: int = 4,
    bound: int = 3,
) -> ExperimentRecord:
    """Fig. 6(j): IncMatch vs Match for edge deletions only."""
    return _run_sweep(
        experiment="fig6j",
        title="IncMatch vs Match for edge deletions",
        paper_expectation=(
            "IncMatch is not sensitive to deletions: the affected area per "
            "update stays small and IncMatch beats Match across the sweep"
        ),
        workload=lambda graph, size, s: random_deletions(graph, size, seed=s),
        sizes=sizes,
        scale=scale,
        seed=seed,
        pattern_nodes=pattern_nodes,
        pattern_edges=pattern_edges,
        bound=bound,
    )


def incremental_insertions_experiment(
    *,
    scale: float = 0.03,
    seed: int = 31,
    sizes: Sequence[int] = DEFAULT_UNIT_SIZES,
    pattern_nodes: int = 4,
    pattern_edges: int = 4,
    bound: int = 3,
) -> ExperimentRecord:
    """Fig. 6(k): IncMatch vs Match for edge insertions only."""
    return _run_sweep(
        experiment="fig6k",
        title="IncMatch vs Match for edge insertions",
        paper_expectation=(
            "insertions have a stronger impact than deletions: the affected "
            "area per update grows with |δ| and IncMatch's advantage shrinks"
        ),
        workload=lambda graph, size, s: random_insertions(graph, size, seed=s),
        sizes=sizes,
        scale=scale,
        seed=seed,
        pattern_nodes=pattern_nodes,
        pattern_edges=pattern_edges,
        bound=bound,
    )
