"""The chaos runner: seeded fault schedules over real workloads.

A chaos run is the dynamic counterpart of the static sanitizer: it arms a
seeded :class:`~repro.reliability.faults.FaultPlan`, drives a pooled
``match_many`` workload (optionally mutating the graph between rounds so
the staleness/repin machinery is exercised too), and asserts the **ground
truth** — pooled results under arbitrary injected failures must be
*identical* to serial execution with no faults armed.  Any divergence is a
correctness bug in the pool's failure handling, not a flake.

:func:`run_chaos` is the library entry point (the ``repro chaos`` CLI
subcommand and the chaos test suite both call it); it returns a
:class:`ChaosReport` with the equivalence verdict and every reliability
counter the run produced.

Determinism: every fault point fires inside a worker, whose schedule is a
pure function of the plan seed and its pool's fork serial.  Which task meets which
fire still depends on which worker picked it up — scheduling the OS
controls — so *which* fault hits *which* query can vary across runs, but
the equivalence invariant must hold for every interleaving; that is the
point.  Fire counters stay in the workers; the report carries the parent's
recovery counters instead.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Union

from repro.engine.session import MatchSession
from repro.graph.datagraph import DataGraph
from repro.graph.pattern import Pattern
from repro.matching.bounded import match
from repro.reliability import faults as _faults
from repro.reliability.faults import FaultPlan

__all__ = ["DEFAULT_CHAOS_PLAN", "ChaosReport", "run_chaos"]

#: The default chaos schedule: every fault point at a per-evaluation rate
#: with a per-process fire cap.  At rate 0.15 each worker stream of the CI
#: seeds (101, 202, ..., 505) fires within its first four tasks, so every
#: seed injects failures into a five-query round.  ``worker.hang`` sleeps
#: 2 s — comfortably past the chaos pool's 0.5 s task deadline, so a hang
#: always exercises the deadline-kill + quarantine path.
DEFAULT_CHAOS_PLAN = "worker.crash@0.15#2,worker.hang@0.15#2~2,queue.stall@0.15#2"


class ChaosReport:
    """The outcome of one :func:`run_chaos` invocation."""

    __slots__ = (
        "seed",
        "plan",
        "rounds",
        "queries",
        "mismatches",
        "reliability",
        "pool",
    )

    def __init__(
        self,
        seed: int,
        plan: str,
        rounds: int,
        queries: int,
        mismatches: List[Dict[str, int]],
        reliability: Dict[str, object],
        pool: Optional[Dict[str, object]],
    ) -> None:
        self.seed = seed
        self.plan = plan
        self.rounds = rounds
        self.queries = queries
        self.mismatches = mismatches
        self.reliability = reliability
        self.pool = pool

    @property
    def survived(self) -> bool:
        """``True`` when every pooled result matched its serial baseline."""
        return not self.mismatches

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "plan": self.plan,
            "rounds": self.rounds,
            "queries": self.queries,
            "survived": self.survived,
            "mismatches": list(self.mismatches),
            "reliability": self.reliability,
            "pool": self.pool,
        }

    def __repr__(self) -> str:
        verdict = "survived" if self.survived else f"{len(self.mismatches)} MISMATCHES"
        return f"<ChaosReport seed={self.seed} rounds={self.rounds} {verdict}>"


def _mutate(session: MatchSession, graph: DataGraph, rng: random.Random, ops: int = 2) -> int:
    """Apply *ops* random edge patches through the session (seeded)."""
    nodes = list(graph.nodes())
    applied = 0
    if len(nodes) < 2:
        return applied
    for _ in range(ops):
        if rng.random() < 0.5:
            edges = graph.edge_list()
            if edges:
                source, target = edges[rng.randrange(len(edges))]
                if session.patch_edge_delete(source, target):
                    applied += 1
                continue
        source = nodes[rng.randrange(len(nodes))]
        target = nodes[rng.randrange(len(nodes))]
        if source != target and not graph.has_edge(source, target):
            if session.patch_edge_insert(source, target):
                applied += 1
    return applied


def run_chaos(
    graph: DataGraph,
    patterns: Iterable[Pattern],
    *,
    seed: int,
    plan: Union[str, FaultPlan] = DEFAULT_CHAOS_PLAN,
    rounds: int = 3,
    workers: int = 2,
    task_timeout: float = 0.5,
    mutate: bool = True,
) -> ChaosReport:
    """Replay a seeded fault schedule over a pooled workload; verify vs serial.

    Each round arms the plan, runs ``match_many(parallel=True)`` on a
    session-owned pool sized *workers* with a tight *task_timeout*, disarms,
    recomputes every query serially, and records any result divergence.
    With *mutate* (default) the graph is patched between rounds so the
    staleness and repin paths run under fire.

    Fork workers inherit the armed plan by copy-on-write and salt it with
    their pool's fork serial.
    """
    parsed = plan if isinstance(plan, FaultPlan) else FaultPlan.parse(plan, seed=seed)
    patterns = list(patterns)
    rng = random.Random(seed ^ 0x5EED5EED)
    mismatches: List[Dict[str, int]] = []
    session = MatchSession(graph)
    try:
        session.worker_pool(max_workers=workers, task_timeout=task_timeout)
        for round_index in range(rounds):
            if mutate and round_index:
                _mutate(session, graph, rng)
            _faults.arm(parsed)
            try:
                pooled = session.match_many(
                    patterns, parallel=True, max_workers=workers
                )
            finally:
                _faults.disarm()
            serial = [match(pattern, graph) for pattern in patterns]
            for query_index, (got, want) in enumerate(zip(pooled, serial)):
                if got.as_dict() != want.as_dict():
                    mismatches.append(
                        {"round": round_index, "query": query_index}
                    )
        stats = session.stats()
        reliability = stats["reliability"]
        pool_stats = stats["pool"]
    finally:
        session.close()
    return ChaosReport(
        seed=seed,
        plan=parsed.to_env(),
        rounds=rounds,
        queries=len(patterns),
        mismatches=mismatches,
        reliability=reliability,
        pool=pool_stats,
    )
