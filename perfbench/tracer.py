"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the program at its layer
boundaries (see :data:`BOUNDARIES`) and records one span per call: its
name, start, end, parent span and the id of the benchmark operation
(query, batch or update batch) it belongs to.  Counters are recorded at
the same boundaries.  Nothing is written while the run is measured; the
span table goes to disk when the run ends (:meth:`Recorder.dump`).

Wrapping happens only in the traced pass and is undone afterwards, so
the untraced pass runs the program exactly as shipped.  Spans inside
forked pool workers are not collected: a worker inherits the wrappers but
records nothing, and the pool shows as one ``run_units`` span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Operation id of spans recorded outside the timed operations.
SETUP_OP = -2
UNTIMED_OP = -1


class Recorder:
    """Spans as parallel arrays plus named counters, all in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.counters: Dict[Tuple[str, int], float] = defaultdict(float)
        self.op = UNTIMED_OP
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self.op)
        self.start_col.append(time.perf_counter())
        self.end_col.append(0.0)
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.end_col[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(name, self.op)] += value

    # -- aggregation -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name over the timed operations: calls, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  The ``op`` roots are the benchmark's own operations; the
        ``_top`` entry sums their direct children, which is how much of
        the timed operations the layer spans cover.
        """
        count = len(self.name_col)
        child_time = [0.0] * count
        durations = [self.end_col[i] - self.start_col[i] for i in range(count)]
        for i in range(count):
            parent = self.parent_col[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        op_name = self._name_ids.get("op", -1)
        top = out["_top"]
        for i in range(count):
            if self.op_col[i] < 0:
                continue
            entry = out[self.names[self.name_col[i]]]
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - child_time[i]
            parent = self.parent_col[i]
            if parent >= 0 and self.name_col[parent] == op_name:
                top["calls"] += 1
                top["total_s"] += durations[i]
        return dict(out)

    def setup_total(self, name: str) -> float:
        """Total seconds of *name* spans recorded during set-up."""
        name_id = self._name_ids.get(name)
        return sum(
            self.end_col[i] - self.start_col[i]
            for i in range(len(self.name_col))
            if self.name_col[i] == name_id and self.op_col[i] == SETUP_OP
        )

    def counter_total(self, name: str) -> float:
        return sum(
            value
            for (counter, op), value in self.counters.items()
            if counter == name and op >= 0
        )

    def dump(self, stem: str) -> None:
        """Write the span table (raw columns plus a JSON index) next to *stem*."""
        with open(stem + ".spans.bin", "wb") as handle:
            for column in (
                self.name_col,
                self.parent_col,
                self.op_col,
                self.start_col,
                self.end_col,
            ):
                column.tofile(handle)
        index = {
            "spans": len(self.name_col),
            "columns": [
                ["name", "i"],
                ["parent", "i"],
                ["op", "i"],
                ["start_s", "d"],
                ["end_s", "d"],
            ],
            "names": self.names,
            "counters": [
                [name, op, value] for (name, op), value in sorted(self.counters.items())
            ],
        }
        with open(stem + ".spans.json", "w") as handle:
            json.dump(index, handle)


# ----------------------------------------------------------------------
# counter hooks: called with (recorder, args, result) after the call
# ----------------------------------------------------------------------


def _count_plan(recorder: Recorder, args, result) -> None:
    recorder.count("plans")
    if result.edge_order:
        recorder.count("plans_ordered")


def _count_ball(recorder: Recorder, args, result) -> None:
    if result is not None:
        recorder.count("balls_computed")


def _count_request(recorder: Recorder, args, result) -> None:
    recorder.count("ball_requests")


def _count_removed(recorder: Recorder, args, result) -> None:
    recorder.count("removed_pairs", len(result))


def _count_apply(recorder: Recorder, args, result) -> None:
    recorder.count("updates", len(args[1]))
    recorder.count("aff_total", result.total_size)


def _count_aff1(recorder: Recorder, args, result) -> None:
    recorder.count("aff1_pairs", len(result))


def _count_refresh(recorder: Recorder, args, result) -> None:
    recorder.count("refreshes")


#: (module, qualified attribute, span name, counter hook).  Module-level
#: functions are also re-bound in every loaded ``repro`` module that
#: imported them by name, so callers that hold a direct reference see the
#: wrapper too.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api.dsl", "parse_query", "api.parse", None),
    ("repro.api.results", "ResultView.to_json", "api.render", None),
    ("repro.api.factorised", "FactorisedView.count_factorised", "api.render", None),
    ("repro.engine.session", "MatchSession.plan", "engine.planner.plan", _count_plan),
    ("repro.engine.session", "MatchSession.match", "engine.session", None),
    ("repro.engine.session", "MatchSession.match_many", "engine.session", None),
    ("repro.engine.parallel", "WorkerPool.run_units", "engine.parallel.run_units", None),
    ("repro.graph.compiled", "compile_graph", "graph.compiled.compile", None),
    ("repro.graph.compiled", "CompiledGraph.candidate_bits", "graph.compiled.candidates", None),
    ("repro.graph.compiled", "CompiledGraph.decode", "graph.compiled.decode", None),
    ("repro.graph.compiled", "CompiledGraph.patch_edge_insert", "graph.compiled.patch", None),
    ("repro.graph.compiled", "CompiledGraph.patch_edge_delete", "graph.compiled.patch", None),
    ("repro.matching.bounded", "refine_bits_to_fixpoint", "matching.bounded.fixpoint", _count_removed),
    (
        "repro.distance.compiled",
        "CompiledDistanceMatrix.descendants_compact",
        "distance.compiled.request",
        _count_request,
    ),
    (
        "repro.distance.compiled",
        "CompiledDistanceMatrix.descendants_within_bits",
        "distance.compiled.request",
        _count_request,
    ),
    (
        "repro.distance.compiled",
        "CompiledDistanceMatrix.ancestors_within_bits",
        "distance.compiled.request",
        _count_request,
    ),
    ("repro.distance.compiled", "FlatBFSKernel.ball_nodes", "distance.compiled.ball", _count_ball),
    ("repro.distance.compiled", "FlatBFSKernel.ball_bits", "distance.compiled.ball", _count_ball),
    ("repro.matching.incremental", "IncrementalMatcher.apply", "matching.incremental.apply", _count_apply),
    ("repro.distance.incremental", "update_store_insert", "distance.incremental.store_update", _count_aff1),
    ("repro.distance.incremental", "update_store_delete", "distance.incremental.store_update", _count_aff1),
    ("repro.distance.matrix", "DistanceMatrix.refresh", "distance.matrix.refresh", _count_refresh),
    ("repro.distance.matrix", "InternedDistanceStore.from_matrix", "distance.matrix.refresh", None),
)


def _wrap(function: Callable, span: str, hook: Optional[Callable], recorder: Recorder):
    pid = recorder.pid

    def traced(*args, **kwargs):
        if os.getpid() != pid:
            return function(*args, **kwargs)
        index = recorder.begin(span)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index)
        if hook is not None:
            hook(recorder, args, result)
        return result

    traced.__wrapped__ = function
    traced.__name__ = getattr(function, "__name__", span)
    return traced


class Installation:
    """The wrappers currently installed; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install(recorder: Recorder) -> Installation:
    """Wrap every boundary in :data:`BOUNDARIES` to record into *recorder*."""
    installation = Installation()
    for module_name, qualified, span, hook in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in qualified:
            class_name, attribute = qualified.split(".")
            owner = getattr(module, class_name)
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, span, hook, recorder))
            else:
                wrapped = _wrap(raw, span, hook, recorder)
            installation._set(owner, attribute, wrapped)
            continue
        original = getattr(module, qualified)
        wrapped = _wrap(original, span, hook, recorder)
        for loaded_name, loaded in list(sys.modules.items()):
            if (
                loaded is not None
                and (loaded_name == "repro" or loaded_name.startswith("repro."))
                and getattr(loaded, qualified, None) is original
            ):
                installation._set(loaded, qualified, wrapped)
    return installation
