"""The engine on a platform without ``fork``.

The worker pool needs the ``fork`` start method.  Where it is missing,
``match_many`` runs its serial loop whatever ``parallel`` says, no pool is
built, no pool counter appears in the stats, and asking for the pool raises
:class:`~repro.exceptions.EngineError`.  The platform is simulated by
patching the session module's ``fork_available``.
"""

from __future__ import annotations

import pytest

from repro.engine import MatchSession
from repro.engine import session as session_module
from repro.exceptions import EngineError
from repro.graph.generators import random_data_graph
from repro.matching.bounded import naive_match
from repro.workloads.patterns import engine_batch_workload


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(session_module, "fork_available", lambda: False)


@pytest.fixture
def pool_graph():
    return random_data_graph(300, 900, num_labels=8, seed=21)


@pytest.fixture
def workload(pool_graph):
    return engine_batch_workload(pool_graph, num_patterns=6, seed=23)


def as_dicts(results):
    return [result.as_dict() for result in results]


@pytest.mark.parametrize("parallel", [None, True])
def test_match_many_runs_serially(no_fork, pool_graph, workload, parallel):
    expected = [naive_match(pattern, pool_graph) for pattern in workload]
    with MatchSession(pool_graph) as serial_session:
        serial = serial_session.match_many(workload, parallel=False)
    assert as_dicts(serial) == as_dicts(expected)
    with MatchSession(pool_graph) as session:
        got = session.match_many(workload, parallel=parallel, max_workers=2)
        assert as_dicts(got) == as_dicts(serial)
        stats = session.stats()
        assert stats["pool"] is None
        assert stats["parallel_batches"] == 0
        assert stats["reliability"] == {"faults_armed": None}


def test_worker_pool_raises(no_fork, pool_graph):
    with MatchSession(pool_graph) as session:
        with pytest.raises(EngineError):
            session.worker_pool(max_workers=2)
        assert session.stats()["pool"] is None
