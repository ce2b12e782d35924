"""Command-line interface for the bounded-simulation matcher.

The CLI makes the library usable without writing Python: graphs and patterns
are exchanged as the JSON documents produced by :mod:`repro.graph.io`, and
the paper's experiments can be (re)run by name.

Subcommands
-----------
``match``
    Compute the maximum bounded-simulation match of a pattern in a data
    graph and print it (optionally as JSON, optionally with the result
    graph summary).  The pattern is either a JSON file (``--pattern``) or
    query-DSL text (``--q``); runs through the public
    :class:`~repro.api.GraphHandle` surface.

``query``
    Batch mode: open **one** :class:`~repro.api.GraphHandle` over the graph
    and serve every query — pattern JSON files via ``--patterns`` and/or
    DSL strings via ``--q`` (repeatable) — from the shared snapshot
    (``session.match_many``).  ``--repeat N`` replays the workload so later
    rounds hit the session's result cache; ``--parallel pool`` forces the
    session's persistent worker pool (``--workers`` caps its size),
    ``serial`` disables it and ``auto`` (default) decides from the workload
    size; ``--explain`` prints each pattern's query plan (chosen strategy
    and why).

``generate``
    Generate a synthetic data graph (uniform random, scale-free,
    small-world, or one of the dataset substitutes) and write it as JSON.

``stats``
    Print summary statistics of a graph file.

``experiment``
    Run one of the paper's experiment drivers (``fig6a`` … ``fig9``,
    ``table-datasets``, ``appendix-stats``) or ``all``.

``incremental``
    Replay a JSON update stream (``IncMatch``) against a graph + pattern
    and report the affected areas and elapsed time per batch.

``lint``
    Run the project's invariant analyzer (:mod:`repro.analysis`) over
    source paths: snapshot-version guards on memo reads, patch-listener
    registration, shared read-only discipline and decode-at-the-boundary.
    ``--format json`` emits a machine-readable report; the exit code is
    non-zero when findings remain.

``chaos``
    Run the seeded fault-injection equivalence suite
    (:func:`repro.reliability.chaos.run_chaos`): arm a ``REPRO_FAULTS``
    plan, drive a pooled ``match_many`` workload (mutating the graph
    between rounds), and verify every pooled result against a clean serial
    baseline.  ``--seeds N`` runs a matrix of N derived seeds; the exit
    code is non-zero when any seed produced a pooled/serial mismatch.

Examples
--------
::

    python -m repro generate --kind youtube --scale 0.02 --out youtube.json
    python -m repro stats youtube.json
    python -m repro match --graph youtube.json --pattern pattern.json
    python -m repro match --graph youtube.json \\
        --q "(p1 {category = Music, rate > 3})-[<=2]->(p2 {uploader = 'FWPB'})"
    python -m repro query --graph youtube.json --patterns p1.json p2.json p3.json \\
        --repeat 2 --explain
    python -m repro query --graph youtube.json --q "(a:Music)-[<=2]->(b:Comedy)" \\
        --q "(a:News)->(b)"
    python -m repro experiment fig9
    python -m repro incremental --graph youtube.json --pattern pattern.json \\
        --updates delta.json --batch-size 50
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.api import GraphHandle, QuerySyntaxError
from repro.datasets import DATASET_BUILDERS
from repro.distance.bfs import BFSDistanceOracle
from repro.distance.compiled import CompiledDistanceMatrix
from repro.distance.matrix import DistanceMatrix
from repro.distance.twohop import TwoHopOracle
from repro.exceptions import SerializationError
from repro.experiments import ALL_EXPERIMENTS, run_experiment
from repro.graph.generators import random_data_graph, scale_free_graph, small_world_graph
from repro.graph.io import load_graph_json, load_pattern_json, save_graph_json
from repro.graph.statistics import compute_statistics

__all__ = ["main", "build_parser"]

_ORACLES = {
    "compiled": CompiledDistanceMatrix,
    "matrix": DistanceMatrix,
    "bfs": BFSDistanceOracle,
    "2hop": TwoHopOracle,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bounded graph simulation (Fan et al., VLDB 2010) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    match_parser = subparsers.add_parser("match", help="match a pattern against a data graph")
    match_parser.add_argument("--graph", required=True, help="data graph JSON file")
    pattern_source = match_parser.add_mutually_exclusive_group(required=True)
    pattern_source.add_argument("--pattern", help="pattern JSON file")
    pattern_source.add_argument(
        "--q",
        metavar="DSL",
        help="query-DSL text, e.g. \"(a:A)-[<=2]->(b:B {age > 30})\"",
    )
    match_parser.add_argument(
        "--oracle",
        choices=sorted(_ORACLES),
        default="compiled",
        help="distance substrate (default: compiled — the session's own "
        "set-at-a-time route over the compiled snapshot; the others run the "
        "counting refinement against that oracle)",
    )
    match_parser.add_argument(
        "--json", action="store_true", help="print the match as JSON instead of text"
    )
    match_parser.add_argument(
        "--result-graph", action="store_true", help="also print the result-graph summary"
    )
    match_parser.add_argument(
        "--factorised",
        action="store_true",
        help="report the result factorised (per-node columns + O(|Vp|) tuple "
        "count) instead of enumerating pairs",
    )

    query_parser = subparsers.add_parser(
        "query", help="serve a batch of patterns from one MatchSession"
    )
    query_parser.add_argument("--graph", required=True, help="data graph JSON file")
    query_parser.add_argument(
        "--patterns",
        nargs="+",
        default=[],
        metavar="PATTERN",
        help="pattern JSON files served from the shared snapshot",
    )
    query_parser.add_argument(
        "--q",
        action="append",
        default=[],
        metavar="DSL",
        help="query-DSL text (repeatable); served alongside --patterns",
    )
    query_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="replay the workload N times (later rounds hit the result cache)",
    )
    query_parser.add_argument(
        "--parallel",
        choices=["auto", "pool", "serial"],
        default="auto",
        help="batch execution: persistent worker pool, serial, or size-based "
        "auto (default)",
    )
    query_parser.add_argument(
        "--workers",
        "--max-workers",
        dest="workers",
        type=int,
        default=None,
        help="worker-pool size cap (default: CPU count)",
    )
    query_parser.add_argument(
        "--explain", action="store_true", help="print each pattern's query plan"
    )
    query_parser.add_argument(
        "--json", action="store_true", help="print a JSON report instead of text"
    )

    generate_parser = subparsers.add_parser("generate", help="generate a synthetic data graph")
    generate_parser.add_argument(
        "--kind",
        choices=["random", "scale-free", "small-world", "youtube", "matter", "pblog"],
        default="random",
    )
    generate_parser.add_argument("--nodes", type=int, default=1000)
    generate_parser.add_argument("--edges", type=int, default=3000)
    generate_parser.add_argument("--labels", type=int, default=20)
    generate_parser.add_argument("--scale", type=float, default=0.05,
                                 help="scale for the dataset substitutes")
    generate_parser.add_argument("--seed", type=int, default=42)
    generate_parser.add_argument("--out", required=True, help="output JSON file")

    stats_parser = subparsers.add_parser("stats", help="print statistics of a graph file")
    stats_parser.add_argument("graph", help="data graph JSON file")

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment_parser.add_argument(
        "name", choices=sorted(ALL_EXPERIMENTS) + ["all"], help="experiment id or 'all'"
    )

    incremental_parser = subparsers.add_parser(
        "incremental", help="replay an update stream with IncMatch"
    )
    incremental_parser.add_argument("--graph", required=True, help="data graph JSON file")
    incremental_parser.add_argument("--pattern", required=True, help="pattern JSON file")
    incremental_parser.add_argument(
        "--updates",
        required=True,
        help=(
            "JSON update stream: a list of {\"op\": \"insert\"|\"delete\", "
            "\"source\": ..., \"target\": ...} objects, applied in order"
        ),
    )
    incremental_parser.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="apply the stream in batches of this size (0 = one IncMatch batch)",
    )
    incremental_parser.add_argument(
        "--on-cyclic",
        choices=["raise", "recompute"],
        default="raise",
        help="behaviour for insertions with cyclic patterns",
    )
    incremental_parser.add_argument(
        "--json", action="store_true", help="print a JSON report instead of text"
    )

    lint_parser = subparsers.add_parser(
        "lint", help="run the project's invariant analyzer over source paths"
    )
    lint_parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="Python files or directories to analyze",
    )
    lint_parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="restrict to one rule id (repeatable); default: all rules",
    )

    chaos_parser = subparsers.add_parser(
        "chaos", help="run the fault-injection equivalence suite"
    )
    chaos_parser.add_argument(
        "--graph", default=None, help="data graph JSON file (default: synthetic)"
    )
    chaos_parser.add_argument(
        "--nodes", type=int, default=250, help="synthetic graph size (no --graph)"
    )
    chaos_parser.add_argument(
        "--edges", type=int, default=750, help="synthetic graph edges (no --graph)"
    )
    chaos_parser.add_argument(
        "--labels", type=int, default=8, help="synthetic graph labels (no --graph)"
    )
    chaos_parser.add_argument(
        "--queries", type=int, default=5, help="patterns per round (default: 5)"
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=101, help="fault-schedule seed (default: 101)"
    )
    chaos_parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="run a matrix of N seeds derived from --seed (default: 1)",
    )
    chaos_parser.add_argument(
        "--rounds", type=int, default=2, help="chaos rounds per seed (default: 2)"
    )
    chaos_parser.add_argument(
        "--plan",
        default=None,
        metavar="SPECS",
        help="fault plan, e.g. 'worker.crash@0.1#2,queue.stall' "
        "(default: the mixed chaos schedule)",
    )
    chaos_parser.add_argument(
        "--workers", type=int, default=2, help="pool size under test (default: 2)"
    )
    chaos_parser.add_argument(
        "--task-timeout",
        type=float,
        default=0.5,
        help="per-task deadline in seconds (default: 0.5)",
    )
    chaos_parser.add_argument(
        "--no-mutate",
        action="store_true",
        help="keep the graph fixed between rounds",
    )
    chaos_parser.add_argument(
        "--json", action="store_true", help="print a JSON report instead of text"
    )
    return parser


def _parse_dsl_or_exit(text: str, name: str = "") -> "Pattern":  # noqa: F821
    from repro.graph.pattern import Pattern

    try:
        return Pattern.from_dsl(text, name=name)
    except QuerySyntaxError as exc:
        raise SystemExit(str(exc))


def _command_match(args: argparse.Namespace) -> int:
    graph = load_graph_json(args.graph)
    if args.q is not None:
        pattern = _parse_dsl_or_exit(args.q, name="cli-query")
    else:
        pattern = load_pattern_json(args.pattern)
    # "compiled" is the handle's own route; anything else is an explicit
    # substrate the session must not bypass.
    oracle = None if args.oracle == "compiled" else _ORACLES[args.oracle](graph)
    handle = GraphHandle(graph, oracle=oracle)
    view = handle.query(pattern).match()

    if args.json:
        print(view.to_json(indent=2))
    elif args.factorised:
        factorised = view.factorised()
        if view.is_empty:
            print("no match: the pattern is not matched by the graph")
        else:
            columns = factorised.columns()
            sizes = " x ".join(str(len(column)) for column in columns.values())
            print(
                f"factorised match: {factorised.count_factorised()} "
                f"assignment tuple(s) ({sizes or '1'})"
            )
            for pattern_node, column in columns.items():
                print(f"  {pattern_node}: {len(column)} candidate(s)")
    elif view.is_empty:
        print("no match: the pattern is not matched by the graph")
    else:
        print(f"maximum match: {len(view)} pairs")
        for pattern_node in view.pattern_nodes():
            nodes = ", ".join(str(v) for v in view[pattern_node].ids())
            print(f"  {pattern_node} -> {{{nodes}}}")

    if args.result_graph and view:
        result_graph = view.graph()
        print(
            f"result graph: {result_graph.number_of_nodes()} nodes, "
            f"{result_graph.number_of_edges()} edges"
        )
    return 0 if view else 1


def _command_query(args: argparse.Namespace) -> int:
    graph = load_graph_json(args.graph)
    labels = list(args.patterns) + [f"--q #{i + 1}" for i in range(len(args.q))]
    patterns = [load_pattern_json(path) for path in args.patterns] + [
        _parse_dsl_or_exit(text, name=f"dsl-{index + 1}")
        for index, text in enumerate(args.q)
    ]
    if not patterns:
        raise SystemExit("query: provide at least one --patterns file or --q string")
    parallel = {"auto": None, "pool": True, "serial": False}[
        args.parallel
    ]
    handle = GraphHandle(graph)

    if args.explain and not args.json:
        for label, pattern in zip(labels, patterns):
            print(f"# {label}")
            print(handle.explain(pattern))
        print()

    import time

    views = []
    round_seconds = []
    for _ in range(max(1, args.repeat)):
        start = time.perf_counter()
        views = handle.match_many(
            patterns, parallel=parallel, max_workers=args.workers
        )
        round_seconds.append(round(time.perf_counter() - start, 4))

    rows = [
        {
            "pattern": label,
            "name": pattern.name,
            "fingerprint": pattern.fingerprint()[:12],
            "matched": bool(view),
            "match_pairs": len(view),
        }
        for label, pattern, view in zip(labels, patterns, views)
    ]
    stats = handle.stats()
    if args.json:
        print(
            json.dumps(
                {"patterns": rows, "rounds_s": round_seconds, "session": stats},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for row in rows:
            status = f"{row['match_pairs']} pairs" if row["matched"] else "no match"
            print(f"  {row['pattern']}: {status}")
        rounds = ", ".join(f"{seconds}s" for seconds in round_seconds)
        print(
            f"{len(patterns)} pattern(s) x {max(1, args.repeat)} round(s) "
            f"[{rounds}]; cache hits/misses: "
            f"{stats['cache_hits']}/{stats['cache_misses']}; plans: {stats['plans']}"
        )
        pool = stats.get("pool")
        if pool:
            print(
                f"worker pool: {pool['workers']} worker(s), "
                f"{pool['workers_spawned']} spawned, {pool['repin_count']} re-pin(s), "
                f"queue hwm {pool['queue_depth_hwm']}, "
                f"{pool['serial_fallbacks']} serial fallback(s)"
            )
    return 0 if all(row["matched"] for row in rows) else 1


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "random":
        graph = random_data_graph(args.nodes, args.edges, num_labels=args.labels, seed=args.seed)
    elif args.kind == "scale-free":
        out_degree = max(1, args.edges // max(1, args.nodes))
        graph = scale_free_graph(args.nodes, out_degree=out_degree,
                                 num_labels=args.labels, seed=args.seed)
    elif args.kind == "small-world":
        neighbors = max(1, args.edges // max(1, args.nodes))
        graph = small_world_graph(args.nodes, neighbors=neighbors,
                                  num_labels=args.labels, seed=args.seed)
    else:
        builder_name = {"youtube": "YouTube", "matter": "Matter", "pblog": "PBlog"}[args.kind]
        graph = DATASET_BUILDERS[builder_name](scale=args.scale, seed=args.seed)
    save_graph_json(graph, args.out)
    print(f"wrote {graph.number_of_nodes()} nodes / {graph.number_of_edges()} edges to {args.out}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    graph = load_graph_json(args.graph)
    stats = compute_statistics(graph)
    for key, value in stats.as_row().items():
        print(f"{key:>14}: {value}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        for name, driver in ALL_EXPERIMENTS.items():
            run_experiment(driver)
            print()
        return 0
    run_experiment(ALL_EXPERIMENTS[args.name])
    return 0


def _load_updates(path: str) -> List["EdgeUpdate"]:
    from repro.distance.incremental import EdgeUpdate

    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list):
        raise SystemExit(f"{path}: expected a JSON list of updates")
    updates = []
    for i, entry in enumerate(raw):
        try:
            updates.append(EdgeUpdate(entry["op"], entry["source"], entry["target"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"{path}: bad update at index {i}: {exc}")
    return updates


def _command_incremental(args: argparse.Namespace) -> int:
    import time

    from repro.matching.incremental import IncrementalMatcher
    from repro.workloads.updates import split_batches

    graph = load_graph_json(args.graph)
    pattern = load_pattern_json(args.pattern)
    updates = _load_updates(args.updates)
    matcher = IncrementalMatcher(pattern, graph, on_cyclic=args.on_cyclic)
    batches = (
        split_batches(updates, args.batch_size) if args.batch_size > 0 else [updates]
    )
    report = []
    total_seconds = 0.0
    for index, batch in enumerate(batches):
        start = time.perf_counter()
        area = matcher.apply(batch)
        elapsed = time.perf_counter() - start
        total_seconds += elapsed
        row = {"batch": index, "size": len(batch), "seconds": round(elapsed, 4)}
        row.update(area.summary())
        report.append(row)
    result = matcher.match
    if args.json:
        print(
            json.dumps(
                {
                    "batches": report,
                    "total_seconds": round(total_seconds, 4),
                    "match_pairs": len(result),
                    "match_empty": result.is_empty,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for row in report:
            print(
                f"batch {row['batch']:>3}  |delta|={row['size']:>5}  "
                f"{row['seconds']:.4f}s  AFF1={row['aff1']} AFF2={row['aff2']} "
                f"(+{row['added']}/-{row['removed']})"
            )
        print(
            f"{len(batches)} batch(es), "
            f"{total_seconds:.4f}s total; final match: {len(result)} pairs"
        )
    return 0 if result else 1


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import analyze_paths

    report = analyze_paths(args.paths, rules=args.rule)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.reliability.chaos import DEFAULT_CHAOS_PLAN, run_chaos
    from repro.reliability.faults import FaultPlanError
    from repro.workloads.patterns import engine_batch_workload

    def build_graph():
        if args.graph is not None:
            return load_graph_json(args.graph)
        return random_data_graph(
            args.nodes, args.edges, num_labels=args.labels, seed=31
        )

    plan = args.plan if args.plan is not None else DEFAULT_CHAOS_PLAN
    # The matrix derives seed_i = seed + 101*i so `--seed 101 --seeds 5`
    # reproduces the test suite's canonical seed ladder.
    seeds = [args.seed + 101 * index for index in range(max(1, args.seeds))]
    reports = []
    for seed in seeds:
        graph = build_graph()  # fresh per seed: rounds mutate it
        patterns = engine_batch_workload(
            graph, num_patterns=args.queries, seed=33
        )
        try:
            report = run_chaos(
                graph,
                patterns,
                seed=seed,
                plan=plan,
                rounds=args.rounds,
                workers=args.workers,
                task_timeout=args.task_timeout,
                mutate=not args.no_mutate,
            )
        except FaultPlanError as exc:
            raise SystemExit(f"chaos: bad --plan: {exc}")
        reports.append(report)

    survived = all(report.survived for report in reports)
    if args.json:
        print(
            json.dumps(
                {
                    "survived": survived,
                    "runs": [report.to_dict() for report in reports],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for report in reports:
            verdict = (
                "ok" if report.survived else f"{len(report.mismatches)} MISMATCH(ES)"
            )
            print(
                f"seed {report.seed}: {verdict} "
                f"({report.rounds} round(s) x {report.queries} query(ies))"
            )
            print(
                "  recovery: "
                f"{report.reliability['worker_crashes']} crash(es), "
                f"{report.reliability['deadline_kills']} deadline kill(s), "
                f"{report.reliability['lost_tasks']} stuck-queue task(s), "
                f"{report.pool['serial_fallbacks']} serial fallback(s)"
            )
        print(
            f"{len(reports)} seed(s): "
            + ("all survived" if survived else "EQUIVALENCE VIOLATED")
        )
    return 0 if survived else 1


_COMMANDS = {
    "match": _command_match,
    "query": _command_query,
    "generate": _command_generate,
    "stats": _command_stats,
    "experiment": _command_experiment,
    "incremental": _command_incremental,
    "lint": _command_lint,
    "chaos": _command_chaos,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SerializationError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
