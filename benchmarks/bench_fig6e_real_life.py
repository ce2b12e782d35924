"""E-6e — Fig. 6(e): Match vs 2-hop vs BFS (+ compiled) on the real-life substitutes."""

from __future__ import annotations

from conftest import run_once

from repro.experiments import real_life_efficiency_experiment


def test_fig6e_real_life_datasets(benchmark, report):
    record = run_once(
        benchmark,
        real_life_efficiency_experiment,
        scale=0.04,
        seed=17,
        patterns_per_spec=2,
    )
    report(record)
    assert len(record.rows) == 6  # 3 datasets x 2 pattern sizes
    # Paper shape, transposed to the compiled engine: the precomputed-index
    # variant ("Compiled", match()'s default — memoised kernel balls behind
    # an LRU) is never slower than on-demand BFS by a large factor.  The
    # paper's eager matrix ("Match") answers balls by filtering full O(|V|)
    # distance rows, which at these scales loses to the kernel's
    # ball-proportional searches — keep a loose sanity bound on it so a
    # pathological regression still fails the smoke.
    compiled_avg = sum(row["Compiled_ms"] for row in record.rows) / len(record.rows)
    match_avg = sum(row["Match_ms"] for row in record.rows) / len(record.rows)
    bfs_avg = sum(row["BFS_ms"] for row in record.rows) / len(record.rows)
    assert compiled_avg <= bfs_avg * 1.5
    assert match_avg <= bfs_avg * 6
