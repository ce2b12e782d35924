"""E-6a — Fig. 6(a): result graphs of the sample YouTube patterns."""

from __future__ import annotations

from conftest import run_once

from repro.experiments import result_graph_experiment


def test_fig6a_result_graphs(benchmark, report):
    record = run_once(benchmark, result_graph_experiment, scale=0.05, seed=7)
    report(record)
    matched = [row for row in record.rows if row["matched"]]
    # Paper shape: the sample patterns identify communities, one pattern node
    # maps to several data nodes, and the result graphs stay compact.
    assert matched
    assert any(row["avg_matches_per_node"] > 1 for row in matched)
    for row in matched:
        assert row["result_nodes"] <= row["match_pairs"]
