"""Exp-2: efficiency and scalability (Fig. 6(e)–(h)).

Two drivers reproduce the second experiment set:

* :func:`real_life_efficiency_experiment` — Fig. 6(e): elapsed matching time
  of the three ``Match`` variants (distance matrix, 2-hop filter, BFS) on the
  three real-life dataset substitutes, for patterns ``P(4,4,4)`` and
  ``P(8,8,4)``;
* :func:`synthetic_scalability_experiment` — Fig. 6(f)/(g)/(h): elapsed time
  on synthetic graphs with a fixed ``|V|`` and increasing ``|E|``, for
  pattern sizes 4..10.

As in the paper, the distance matrix and the 2-hop labels are precomputed
once per graph and shared by all patterns; their construction time is not
included in the reported matching time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import DATASET_BUILDERS
from repro.distance.bfs import BFSDistanceOracle
from repro.distance.compiled import CompiledDistanceMatrix
from repro.distance.matrix import DistanceMatrix
from repro.distance.oracle import DistanceOracle
from repro.distance.twohop import TwoHopOracle
from repro.experiments.harness import ExperimentRecord, average, timed
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.bounded import match

__all__ = [
    "ORACLE_VARIANTS",
    "real_life_efficiency_experiment",
    "synthetic_scalability_experiment",
]

#: The Match variants of Exp-2, keyed by the paper's curve names, plus the
#: repo's lazy compiled distance engine as a fourth column.  Each runs the
#: counting route against its oracle; ``match()`` without an oracle runs
#: the set-at-a-time route instead.
ORACLE_VARIANTS: Dict[str, type] = {
    "Match": DistanceMatrix,
    "2-hop": TwoHopOracle,
    "BFS": BFSDistanceOracle,
    "Compiled": CompiledDistanceMatrix,
}


def _build_oracles(graph: DataGraph, variants: Sequence[str]) -> Dict[str, DistanceOracle]:
    oracles: Dict[str, DistanceOracle] = {}
    for name in variants:
        oracle_cls = ORACLE_VARIANTS[name]
        oracles[name] = oracle_cls(graph)
    return oracles


def real_life_efficiency_experiment(
    *,
    scale: float = 0.05,
    seed: int = 17,
    specs: Sequence[Tuple[int, int, int]] = ((4, 4, 4), (8, 8, 4)),
    patterns_per_spec: int = 3,
    datasets: Sequence[str] = ("Matter", "PBlog", "YouTube"),
    variants: Sequence[str] = ("Match", "2-hop", "BFS", "Compiled"),
) -> ExperimentRecord:
    """Fig. 6(e): Match vs 2-hop vs BFS on the real-life dataset substitutes."""
    record = ExperimentRecord(
        experiment="fig6e",
        title="Real-life data: Match vs 2-hop vs BFS (elapsed matching time, ms)",
        paper_expectation=(
            "Match (distance matrix) is fastest; 2-hop helps over BFS when many "
            "node pairs are disconnected; all are close when few candidates exist. "
            "The extra Compiled column (this repo's lazy flat-array engine) "
            "plays the paper's precomputed-index role"
        ),
        notes=f"dataset substitutes at scale={scale}; index build time excluded "
        "(matrix / labels shared across patterns)",
    )
    for dataset_name in datasets:
        graph = DATASET_BUILDERS[dataset_name](scale=scale, seed=seed)
        oracles = _build_oracles(graph, variants)
        generator = PatternGenerator(graph, seed=seed)
        for spec in specs:
            num_nodes, num_edges, bound = spec
            patterns = [
                generator.generate(num_nodes, num_edges, bound)
                for _ in range(patterns_per_spec)
            ]
            row = {
                "dataset": dataset_name,
                "pattern": f"P({num_nodes},{num_edges},{bound})",
            }
            for variant_name, oracle in oracles.items():
                times: List[float] = []
                for pattern in patterns:
                    _, seconds = timed(match, pattern, graph, oracle)
                    times.append(seconds)
                row[f"{variant_name}_ms"] = round(average(times) * 1000.0, 2)
            record.add_row(**row)
    return record


def synthetic_scalability_experiment(
    *,
    num_nodes: int = 2000,
    edge_counts: Sequence[int] = (2000, 4000, 6000),
    num_labels: int = 200,
    seed: int = 19,
    pattern_sizes: Sequence[int] = (4, 5, 6, 7, 8, 9, 10),
    bound: int = 3,
    patterns_per_point: int = 3,
    variants: Sequence[str] = ("Match", "2-hop", "BFS", "Compiled"),
) -> ExperimentRecord:
    """Fig. 6(f)/(g)/(h): scalability with |E| and with the pattern size.

    The paper fixes ``|V| = 20K`` and grows ``|E|`` from 20K to 60K; the
    default here keeps the same 1x/2x/3x edge-density progression at one
    tenth of the node count so the full sweep stays laptop-sized.  One row is
    produced per (|E|, pattern size) point and per variant column.
    """
    record = ExperimentRecord(
        experiment="fig6fgh",
        title="Synthetic scalability: elapsed matching time (ms)",
        paper_expectation=(
            "Match is insensitive to |E| growth thanks to the distance matrix; "
            "2-hop helps when |E| is small and loses its edge as the graph gets "
            "denser; Match performs best in all cases.  The extra Compiled "
            "column (this repo's lazy flat-array engine) shares that "
            "insensitivity via memoised kernel balls"
        ),
        notes=f"|V|={num_nodes}, labels={num_labels}, bound k={bound}; paper uses "
        "|V|=20K with |E|=20K/40K/60K — same density progression at reduced scale",
    )
    for num_edges in edge_counts:
        graph = random_data_graph(num_nodes, num_edges, num_labels=num_labels, seed=seed)
        oracles = _build_oracles(graph, variants)
        generator = PatternGenerator(graph, seed=seed)
        for size in pattern_sizes:
            patterns = [
                generator.generate(size, size, bound) for _ in range(patterns_per_point)
            ]
            row = {"|E|": num_edges, "pattern": f"P({size},{size},{bound})"}
            for variant_name, oracle in oracles.items():
                times: List[float] = []
                for pattern in patterns:
                    _, seconds = timed(match, pattern, graph, oracle)
                    times.append(seconds)
                row[f"{variant_name}_ms"] = round(average(times) * 1000.0, 2)
            record.add_row(**row)
    return record
