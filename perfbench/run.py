"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_queries --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
operations twice, untraced and then traced, and prints the per-layer
metrics, the span coverage and the tracing overhead.  Every result is
checked against an independent route after the timed region.  The last
line of standard output is one JSON object; the lines before it name each
metric with its unit.  Details (latency samples, session counters, the
span table of a traced run) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _handle(state):
    return state[0] if isinstance(state, tuple) else state


#: Milliseconds one calibration unit takes on an otherwise idle core of the
#: reference machine (2-vCPU Intel Xeon container).  Reported times are in
#: reference milliseconds: wall time scaled by how fast the unit ran next
#: to the operation, which cancels the speed swings a shared core shows
#: when its sibling thread gets busy.
REFERENCE_UNIT_MS = 0.34


def _calibration_unit() -> int:
    """A fixed mix of integer, dict and big-int bit work (about 0.35 ms)."""
    total = 0
    table = {}
    bits = 0
    for i in range(1000):
        total += i * i % 7
        table[i & 255] = total
        bits |= 1 << (i & 1023)
    return total + len(table) + bits.bit_count()


def _probe() -> float:
    """Milliseconds of one calibration unit, now."""
    start = time.perf_counter()
    _calibration_unit()
    return (time.perf_counter() - start) * 1000.0


def _timed(call):
    """Run *call* between two speed probes; returns (result, scale factor).

    Multiplying a wall time measured inside *call* by the factor gives
    reference milliseconds.
    """
    before = _probe()
    result = call()
    after = _probe()
    return result, 2.0 * REFERENCE_UNIT_MS / (before + after)


def _pool_counters(stats: Dict[str, object]) -> Dict[str, float]:
    pool = stats.get("pool") or {}
    reliability = stats.get("reliability") or {}
    return {
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
        "cache_evictions": stats["cache_evictions"],
        "pool_tasks": sum((pool.get("per_worker_executed") or {}).values()),
        "pool_fallbacks": pool.get("serial_fallbacks", 0),
        "pool_crashes": pool.get("worker_crashes", 0),
        "pool_retries": reliability.get("retries", 0),
        "degraded_batches": reliability.get("degraded_batches", 0),
        "parallel_batches": stats["parallel_batches"],
    }


def run_pass(workload, seed, *, seconds=None, setups=1, replay=None, recorder=None):
    """Set up, warm up, then run timed operations; returns the pass's record.

    Without *replay* the timed loop runs until *seconds* have passed; with
    it, the pass repeats exactly the operations of an earlier pass.
    """
    from tracer import SETUP_OP, UNTIMED_OP

    setup_s: List[float] = []
    raw_setup_s: List[float] = []
    state = None
    for attempt in range(setups):
        graph = workload.dataset()
        gc.collect()
        if recorder is not None:
            recorder.op = SETUP_OP

        def setup():
            start = time.perf_counter()
            built = workload.setup(graph, seed)
            return built, time.perf_counter() - start

        (state, elapsed), factor = _timed(setup)
        raw_setup_s.append(elapsed)
        setup_s.append(elapsed * factor)
        if recorder is not None:
            recorder.op = UNTIMED_OP
        if attempt < setups - 1:
            workload.close(state)
            state = None
    handle = _handle(state)
    source = iter(replay["ops"]) if replay else workload.operations(state, seed)
    used = []
    errors = 0
    for _ in range(workload.warmup):
        op = next(source)
        used.append(op)
        try:
            workload.execute(state, op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            errors += 1
    before = _pool_counters(handle.stats())
    timings: List[Dict[str, float]] = []
    records = []
    timed = len(replay["ops"]) - workload.warmup if replay else None
    start = time.perf_counter()
    index = 0
    while (index < timed) if replay else (time.perf_counter() - start < seconds):
        op = next(source)
        used.append(op)
        if recorder is not None:
            recorder.op = index
            span = recorder.begin("op")
        try:
            (latencies, record), factor = _timed(lambda: workload.execute(state, op))
            for key in ("op", "read", "busy"):
                if key in latencies:
                    latencies["raw_" + key] = latencies[key]
                    latencies[key] *= factor
            latencies["factor"] = factor
            timings.append(latencies)
            records.append(record)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            errors += 1
        finally:
            if recorder is not None:
                recorder.end(span)
                recorder.op = UNTIMED_OP
        index += 1
    wall = time.perf_counter() - start
    after = _pool_counters(handle.stats())
    session_stats = handle.stats()
    workload.close(state)
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "ops": used,
        "timed_ops": index,
        "timings": timings,
        "records": records,
        "errors": errors,
        "wall_s": wall,
        "counters": {name: after[name] - before[name] for name in after},
        "session_stats": session_stats,
        "graph": handle.graph,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _tail(samples: List[float]):
    """The highest whole percentile with at least ten samples beyond it."""
    if len(samples) < 20:
        return None
    percentile = int(100 * (1 - 10 / len(samples)))
    return percentile, statistics.quantiles(samples, n=100)[percentile - 1]


def end_to_end(workload, result) -> Dict[str, float]:
    timings = result["timings"]
    op = [t["op"] for t in timings]
    read = [t["read"] for t in timings]
    busy_s = sum(t.get("busy", t["op"]) for t in timings) / 1000.0
    units = sum(t["units"] for t in timings)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "throughput_per_s": units / busy_s,
        "op_p50_ms": statistics.median(op),
        "read_p50_ms": statistics.median(read),
    }


E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "read_p50_ms": "ms",
}


def _named_report(workload, result, metrics, failed_frac) -> List[str]:
    """The end-to-end metrics under their per-workload names, one a line."""
    op = [t["op"] for t in result["timings"]]
    read = [t["read"] for t in result["timings"]]
    lines = [
        ("setup_s", metrics["setup_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("failed_frac", failed_frac, "ratio"),
    ]
    tail = _tail(op)
    if workload.name == "paper_queries":
        lines += [
            ("queries_per_s", metrics["throughput_per_s"], "q/s"),
            ("query_p50_ms", metrics["op_p50_ms"], "ms"),
        ]
        if tail:
            lines.append((f"query_p{tail[0]}_ms", tail[1], "ms"))
    elif workload.name == "skewed_batch":
        lines += [
            ("batch_queries_per_s", metrics["throughput_per_s"], "q/s"),
            ("batch_p50_s", metrics["op_p50_ms"] / 1000.0, "s"),
        ]
        if tail:
            lines.append((f"batch_p{tail[0]}_s", tail[1] / 1000.0, "s"))
    else:
        lines += [
            ("updates_per_s", metrics["throughput_per_s"], "1/s"),
            ("update_batch_p50_ms", metrics["op_p50_ms"], "ms"),
        ]
        if tail:
            lines.append((f"update_batch_p{tail[0]}_ms", tail[1], "ms"))
        lines.append(("read_after_write_p50_ms", metrics["read_p50_ms"], "ms"))
        read_tail = _tail(read)
        if read_tail:
            lines.append((f"read_after_write_p{read_tail[0]}_ms", read_tail[1], "ms"))
    text = [f"{workload.name} {name} = {value:.6g} {unit}" for name, value, unit in lines]
    text.append(f"{workload.name} samples = {len(op)} operations")
    if not tail:
        text.append(f"{workload.name} tail: fewer than 20 samples, no percentile has ten beyond it")
    return text


def _ball_misses(recorder) -> int:
    """Ball requests that reached the kernel (a ball span as a direct child)."""
    names = recorder.names
    if "distance.compiled.ball" not in names or "distance.compiled.request" not in names:
        return 0
    ball = names.index("distance.compiled.ball")
    request = names.index("distance.compiled.request")
    missed = set()
    for i in range(len(recorder.name_col)):
        if recorder.name_col[i] == ball and recorder.op_col[i] >= 0:
            parent = recorder.parent_col[i]
            if parent >= 0 and recorder.name_col[parent] == request:
                missed.add(parent)
    return len(missed)


def per_layer(recorder, traced, untraced) -> Dict[str, float]:
    ops = max(1, traced["timed_ops"])
    summary = recorder.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> Dict[str, float]:
        return summary.get(name, empty)

    def ms(name: str, kind: str = "total_s") -> float:
        return span(name)[kind] * 1000.0 / ops

    def per_op(counter: str) -> float:
        return recorder.counter_total(counter) / ops

    counters = traced["counters"]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    plans = recorder.counter_total("plans")
    requests = recorder.counter_total("ball_requests")
    updates = recorder.counter_total("updates")
    traced_busy = sum(t.get("busy", t["op"]) for t in traced["timings"])
    untraced_busy = sum(t.get("busy", t["op"]) for t in untraced["timings"])
    return {
        "api.parse_ms": ms("api.parse"),
        "api.render_ms": ms("api.render"),
        "engine.planner.plan_ms": ms("engine.planner.plan"),
        "engine.planner.ordered_frac": recorder.counter_total("plans_ordered") / plans
        if plans
        else 0.0,
        "engine.cache.hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
        "engine.cache.evictions": counters["cache_evictions"] / ops,
        "engine.session.self_ms": ms("engine.session", "self_s"),
        "engine.parallel.run_units_s": span("engine.parallel.run_units")["total_s"] / ops,
        "engine.parallel.tasks": counters["pool_tasks"] / ops,
        "engine.parallel.retries": counters["pool_retries"],
        "engine.parallel.crashes": counters["pool_crashes"],
        "engine.parallel.fallbacks": counters["pool_fallbacks"],
        "graph.compiled.compile_s": recorder.setup_total("graph.compiled.compile"),
        "graph.compiled.candidates_ms": ms("graph.compiled.candidates"),
        "graph.compiled.decode_ms": ms("graph.compiled.decode"),
        "graph.compiled.patch_ms": ms("graph.compiled.patch"),
        "matching.bounded.fixpoint_self_ms": ms("matching.bounded.fixpoint", "self_s"),
        "matching.bounded.removed_pairs": per_op("removed_pairs"),
        "distance.compiled.ball_requests": requests / ops,
        "distance.compiled.balls_computed": per_op("balls_computed"),
        "distance.compiled.ball_ms": ms("distance.compiled.ball"),
        "distance.compiled.ball_hit_ratio": 1.0 - _ball_misses(recorder) / requests
        if requests
        else 0.0,
        "matching.incremental.apply_ms": ms("matching.incremental.apply"),
        "matching.incremental.aff_per_update": recorder.counter_total("aff_total") / updates
        if updates
        else 0.0,
        "distance.incremental.store_update_ms": ms("distance.incremental.store_update"),
        "distance.incremental.aff1_pairs": per_op("aff1_pairs"),
        "distance.matrix.refreshes": per_op("refreshes"),
        "distance.matrix.refresh_ms": ms("distance.matrix.refresh"),
        "trace.coverage": summary.get("_top", empty)["total_s"] / span("op")["total_s"]
        if span("op")["total_s"]
        else 0.0,
        "trace.overhead_frac": traced_busy / untraced_busy - 1.0 if untraced_busy else 0.0,
    }


PER_LAYER_UNITS = {
    "engine.parallel.run_units_s": "s",
    "graph.compiled.compile_s": "s",
    "engine.planner.ordered_frac": "ratio",
    "engine.cache.hit_ratio": "ratio",
    "distance.compiled.ball_hit_ratio": "ratio",
    "matching.incremental.aff_per_update": "pairs/update",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "engine.parallel.retries": "count",
    "engine.parallel.crashes": "count",
    "engine.parallel.fallbacks": "count",
}


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "ms" if name.endswith("_ms") else "1/op"


def _check(workload, result):
    attempted, failed = workload.check(result["records"], result["graph"], result["ops"])
    return attempted + result["errors"], failed + result["errors"]


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        _fail(f"program sources not found at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        from tracer import Recorder, install

        untraced = run_pass(workload, args.seed, seconds=args.seconds / 2)
        recorder = Recorder()
        installation = install(recorder)
        try:
            traced = run_pass(workload, args.seed, replay=untraced, recorder=recorder)
        finally:
            installation.remove()
        attempted, failed = _check(workload, traced)
        metrics = per_layer(recorder, traced, untraced)
        recorder.dump(str(stem))
        details = {"untraced_counters": untraced["counters"], "traced": traced}
        lines = [f"{workload.name} {name} = {value:.6g} {_unit(name)}" for name, value in metrics.items()]
        units = {name: _unit(name) for name in metrics}
    else:
        result = run_pass(
            workload, args.seed, seconds=args.seconds, setups=workload.setup_repeats
        )
        result["peak_rss_mb"] = _peak_rss_mb()
        attempted, failed = _check(workload, result)
        metrics = end_to_end(workload, result)
        details = {"run": result}
        lines = _named_report(workload, result, metrics, failed / attempted)
        units = E2E_UNITS

    for key, value in details.items():
        if isinstance(value, dict):
            for drop in ("ops", "records", "graph"):
                value.pop(drop, None)
    details.update(
        {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
         "params": workload.params(), "metrics": metrics}
    )
    with open(str(stem) + ".json", "w") as handle:
        json.dump(details, handle, indent=1, default=str)
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
