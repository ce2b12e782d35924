"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation section: it runs the corresponding experiment driver exactly once
under pytest-benchmark (so wall-clock numbers are recorded) and prints the
paper-style rows together with the paper's qualitative expectation.

Run with::

    pytest benchmarks/ --benchmark-only

Scales are chosen so the full suite finishes in a few minutes on a laptop;
every driver accepts larger scales for closer-to-paper runs (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import time

import pytest


def run_once(benchmark, driver, **kwargs):
    """Execute *driver* exactly once under the benchmark fixture."""
    return benchmark.pedantic(lambda: driver(**kwargs), rounds=1, iterations=1)


def best_of(fn, repeats: int = 3) -> float:
    """Best-of-*repeats* wall-clock seconds for one call of *fn*."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture
def report(capsys):
    """Print an ExperimentRecord table outside of pytest's capture."""

    def _print(record):
        with capsys.disabled():
            print()
            record.print()
        return record

    return _print
