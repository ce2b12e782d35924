"""E-6b — Fig. 6(b): Match vs VF2 running time for patterns (3,3,3)..(8,8,3)."""

from __future__ import annotations

from conftest import run_once

from repro.experiments import match_vs_vf2_experiment


def test_fig6b_match_vs_vf2_time(benchmark, report):
    record = run_once(
        benchmark,
        match_vs_vf2_experiment,
        scale=0.04,
        seed=7,
        patterns_per_spec=2,
    )
    report(record)
    assert len(record.rows) == 6
    # Paper shape: the matching process (matrix excluded) is faster than VF2
    # for the larger patterns, and total time is dominated by the matrix.
    last = record.rows[-1]
    assert last["match_process_s"] <= last["vf2_s"] * 5
    assert all(row["match_total_s"] >= row["match_process_s"] for row in record.rows)
