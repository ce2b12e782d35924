"""E-6c — Fig. 6(c): number of matches found by Match vs VF2."""

from __future__ import annotations

from conftest import run_once

from repro.experiments import match_vs_vf2_experiment


def test_fig6c_match_vs_vf2_matches(benchmark, report):
    record = run_once(
        benchmark,
        match_vs_vf2_experiment,
        scale=0.04,
        seed=11,
        patterns_per_spec=2,
    )
    report(record)
    # Paper shape: Match finds (many) more distinct matches than VF2 in all cases.
    assert all(row["match_matches"] >= row["vf2_matches"] for row in record.rows)
    assert any(row["match_matches"] > row["vf2_matches"] for row in record.rows)
