"""MatchSession batch execution vs a per-call ``match()`` loop.

The engine's value proposition, measured on a mixed pattern workload
(:func:`repro.workloads.patterns.engine_batch_workload`: bound-1 patterns
taking the planner's adjacency fast path plus bound-k patterns on the
compiled distance oracle):

* **warm batch** — replaying the identical workload on an unchanged
  snapshot is answered from the session's result cache, vs a per-call
  ``match()`` loop that opens a throwaway session (and thus a fresh ball
  LRU) every time.  **Gate: >= 1.5x** (the PR's acceptance bar; in practice
  the ratio is orders of magnitude).
* **cold batch** — the first run of the workload through one shared
  session (shared snapshot + shared ball memos, no result-cache hits yet)
  vs the same per-call loop.  Recorded, no gate (the win is workload
  dependent).

The parallel path (the session's persistent worker pool) is measured at a
scale where it means something — 100k nodes — in
``bench_parallel_pool.py``; at this module's smoke scale any process pool
is pure overhead, which is exactly why the pool is never auto-started for
workloads this small.

A third measurement guards the fault harness's "free when off" contract:
every fault point sits in the worker pool's task loop behind a
``_faults.ENABLED`` attribute load, and the disarmed cost of all checks a
batch's tasks pass must stay within 2% of the batch itself.

All ratios land in ``BENCH_engine.json`` at the repo root (see
``benchmarks/README.md`` for the schema) and in pytest-benchmark's
``extra_info``.
"""

from __future__ import annotations

import json
import queue
from pathlib import Path

import pytest

from conftest import best_of

from repro.engine import MatchSession
from repro.engine.parallel import _serve
from repro.graph.generators import random_data_graph
from repro.matching.bounded import match
from repro.reliability import faults
from repro.reliability.faults import FAULT_POINTS, FaultPlan
from repro.workloads.patterns import engine_batch_workload

NUM_NODES = 1000
NUM_EDGES = 3000
NUM_LABELS = 100
NUM_PATTERNS = 10
BOUND = 3
SEED = 29

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


@pytest.fixture(scope="module")
def setup():
    graph = random_data_graph(NUM_NODES, NUM_EDGES, num_labels=NUM_LABELS, seed=SEED)
    patterns = engine_batch_workload(
        graph, num_patterns=NUM_PATTERNS, bound=BOUND, seed=SEED
    )
    return graph, patterns


def _record(benchmark, name: str, loop_s: float, session_s: float) -> float:
    """Attach the ratio to extra_info and fold it into BENCH_engine.json."""
    speedup = loop_s / session_s if session_s else float("inf")
    benchmark.extra_info[f"{name}_match_loop_s"] = round(loop_s, 6)
    benchmark.extra_info[f"{name}_session_s"] = round(session_s, 6)
    benchmark.extra_info[f"{name}_speedup_loop_over_session"] = round(speedup, 2)

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
            "num_patterns": NUM_PATTERNS,
            "bound": BOUND,
            "seed": SEED,
        },
    )
    payload.setdefault("ratios", {})[name] = {
        "match_loop_s": round(loop_s, 6),
        "session_s": round(session_s, 6),
        "speedup_loop_over_session": round(speedup, 2),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return speedup


def test_bench_match_many_warm_vs_match_loop(benchmark, setup):
    """The acceptance gate: warm ``match_many`` >= 1.5x over a ``match()`` loop."""
    graph, patterns = setup

    def loop_run():
        return [match(pattern, graph) for pattern in patterns]

    session = MatchSession(graph)
    cold = session.match_many(patterns)
    # Same relations either way — the cache must not change the answers.
    assert cold == loop_run()

    def warm_run():
        return session.match_many(patterns)

    benchmark.pedantic(warm_run, rounds=3, iterations=1)
    loop_s = best_of(loop_run, repeats=3)
    warm_s = best_of(warm_run, repeats=3)
    stats = session.stats()
    assert stats["cache_hits"] >= len(patterns), "warm rounds must hit the cache"
    speedup = _record(benchmark, "warm_batch", loop_s, warm_s)
    assert speedup >= 1.5, (
        f"warm match_many only {speedup:.2f}x faster than the per-call loop"
    )


def test_bench_match_many_cold_vs_match_loop(benchmark, setup):
    """First-run batch through one shared session (no result-cache hits)."""
    graph, patterns = setup

    def loop_run():
        return [match(pattern, graph) for pattern in patterns]

    def cold_run():
        return MatchSession(graph).match_many(patterns, parallel=False)

    benchmark.pedantic(cold_run, rounds=3, iterations=1)
    loop_s = best_of(loop_run, repeats=3)
    cold_s = best_of(cold_run, repeats=3)
    speedup = _record(benchmark, "cold_batch", loop_s, cold_s)
    # No gate: the cold win comes from shared ball memos and is workload
    # dependent; the floor just catches a pathological engine regression.
    assert speedup >= 0.5, f"cold match_many {speedup:.2f}x — engine overhead blew up"


def test_bench_disarmed_fault_hooks_overhead(benchmark, setup):
    """Gate: disarmed fault points cost <= 2% of a cold batch.

    Disarmed, each fault point is behind ``if _faults.ENABLED`` — the
    fire check never runs, so the cost is one module attribute load plus a
    branch.  The overhead is reconstructed rather than differenced (the
    hooks can't be compiled out to measure against): arm a rate-0 probe
    plan to *count* how many checks the batch's tasks reach in the worker
    loop, micro-time the disarmed guard, and bound their product against
    the batch time.  The count runs the worker loop in this process over
    in-process queues, because a forked worker's counters never reach the
    parent.
    """
    graph, patterns = setup
    faults.disarm()

    def cold_run():
        return MatchSession(graph).match_many(patterns, parallel=False)

    benchmark.pedantic(cold_run, rounds=3, iterations=1)
    batch_s = best_of(cold_run, repeats=3)

    # Rate 0 fires nothing but tallies every should_fire() call, i.e.
    # every guard site the batch's tasks pass through in a worker.
    probe = ",".join(f"{point}@0" for point in sorted(FAULT_POINTS))
    faults.arm(FaultPlan.parse(probe, seed=1))
    try:
        session = MatchSession(graph)
        tasks, answers = queue.SimpleQueue(), queue.SimpleQueue()
        for task_id, pattern in enumerate(patterns):
            unit = (pattern, session.plan(pattern))
            tasks.put((task_id, session.snapshot.version, unit))
        tasks.put(None)
        _serve(session, tasks, answers, 0)
        checks = faults.evaluations()
    finally:
        faults.disarm()

    iterations = 1_000_000

    def guard_loop():
        for _ in range(iterations):
            if faults.ENABLED and faults.should_fire("queue.stall"):
                pass  # pragma: no cover - unreachable while disarmed

    # Loop bookkeeping is part of the measurement; the bound is conservative.
    per_check_s = best_of(guard_loop, repeats=3) / iterations

    overhead_s = checks * per_check_s
    fraction = overhead_s / batch_s if batch_s else 0.0
    benchmark.extra_info["guard_checks_per_batch"] = checks
    benchmark.extra_info["guard_check_ns"] = round(per_check_s * 1e9, 2)
    benchmark.extra_info["disarmed_overhead_fraction"] = round(fraction, 6)

    payload = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            payload = {}
    payload["reliability"] = {
        "cold_batch_s": round(batch_s, 6),
        "guard_checks_per_batch": checks,
        "guard_check_ns": round(per_check_s * 1e9, 2),
        "disarmed_overhead_fraction": round(fraction, 6),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert checks >= 1, "the probe plan saw no fault-point checks at all"
    assert fraction <= 0.02, (
        f"disarmed fault hooks cost {fraction:.2%} of a cold batch "
        f"({checks} checks x {per_check_s * 1e9:.0f}ns vs {batch_s:.4f}s)"
    )
