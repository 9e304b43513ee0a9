"""Cross-backend execution tests (`backend="thread" | "process" | "auto"`).

The backend decides only where MCMC chains run (sampling always runs
on threads), and it must be *invisible* in every answer: for a fixed
seed the results are byte-identical whether chains run on the caller
thread, a thread pool, or a process pool over shared memory — for any
worker count, cold or warm cache, across all five query kinds. These
tests pin that contract, the `REPRO_WORKERS` resolution order, the
`auto` rule, and that no shared-memory segment leaks.
"""

from __future__ import annotations

import logging
import os

import pytest

import repro.core.parallel as parallel_mod
from repro.core import shm
from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.mcmc import TopKSimulation
from repro.core.parallel import resolve_workers
from repro.core.queries import Query
from repro.lint.sanitizer import (
    build_records,
    build_workload,
    encode_canonical,
)

BACKENDS = ("thread", "process")
WORKER_GRID = (1, 2, 4)


def _canonical(result):
    """``result.canonical()`` plus the cache statistics.

    Process chains ship §VI-D pairwise integrals home from the workers
    precisely so that cache accounting stays bit-identical across
    backends, and that is worth asserting.
    """
    data = result.canonical()
    data["cache"] = result.cache
    return encode_canonical(data)


def _run_cell(records, queries, *, backend, workers):
    """One matrix cell: a fresh engine, cold pass then warm pass."""
    with RankingEngine(
        records,
        seed=7,
        workers=workers,
        backend=backend,
        samples=500,
        mcmc_chains=2,
        mcmc_steps=50,
    ) as engine:
        cold = [_canonical(engine.query(query)) for query in queries]
        warm = [_canonical(engine.query(query)) for query in queries]
    return cold, warm


@pytest.fixture(scope="module")
def matrix():
    """Every (backend, workers) cell over the mixed five-kind workload."""
    records = build_records(10)
    queries = build_workload(k=3)
    cells = {}
    for backend in BACKENDS:
        for workers in WORKER_GRID:
            cells[(backend, workers)] = _run_cell(
                records, queries, backend=backend, workers=workers
            )
    return queries, cells


class TestCrossBackendBitIdentity:
    def test_every_cell_matches_the_thread_serial_baseline(self, matrix):
        queries, cells = matrix
        base_cold, base_warm = cells[("thread", 1)]
        for (backend, workers), (cold, warm) in cells.items():
            for index, query in enumerate(queries):
                label = f"{backend}/w{workers} {query.kind}/{query.method}"
                assert cold[index] == base_cold[index], f"cold {label}"
                assert warm[index] == base_warm[index], f"warm {label}"

    def test_no_segments_leaked_by_the_matrix(self, matrix):
        assert shm.live_segments() == frozenset()


class TestResolveWorkersEnvironment:
    def test_auto_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers("auto") == 3

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(2) == 2

    def test_env_ignored_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert 1 <= resolve_workers("auto") <= 8

    @pytest.mark.parametrize("value", ["zero", "-1", "0"])
    def test_invalid_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(QueryError, match="REPRO_WORKERS"):
            resolve_workers("auto")

    def test_oversubscription_warns_once_per_process(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(parallel_mod, "_oversub_warned", False)
        cpus = os.cpu_count() or 1
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            resolve_workers(cpus + 7)
            resolve_workers(cpus + 7)
        warnings = [
            record
            for record in caplog.records
            if "exceeds os.cpu_count" in record.getMessage()
        ]
        assert len(warnings) == 1


class TestBackendKnob:
    def test_query_validates_backend(self):
        with pytest.raises(QueryError, match="backend"):
            Query(kind="utop_rank", i=1, j=1, backend="gpu")
        assert Query(kind="utop_rank", i=1, j=1, backend="process")

    def test_engine_validates_backend(self, paper_db):
        with pytest.raises(QueryError, match="backend"):
            RankingEngine(paper_db, backend="gpu")

    def test_explain_reports_backends(self, paper_db):
        engine = RankingEngine(paper_db, workers=2, backend="process")
        plan = engine.explain("utop_rank", k=2)
        assert plan["backend"] == "process"
        engine.close()

    def test_mcmc_auto_depends_on_workers_and_cores(
        self, paper_db, monkeypatch
    ):
        def resolved(workers):
            return TopKSimulation(
                paper_db, k=2, workers=workers, backend="auto"
            ).backend

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolved(2) == "process"
        assert resolved(1) == "thread"
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolved(2) == "thread"

    def test_mcmc_custom_oracle_refuses_process(self, paper_db):
        with pytest.raises(QueryError, match="custom"):
            TopKSimulation(
                paper_db,
                k=2,
                state_probability=lambda key: 0.5,
                workers=2,
                backend="process",
            )

    def test_mcmc_auto_falls_back_to_threads_for_custom_oracle(
        self, paper_db, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        simulation = TopKSimulation(
            paper_db,
            k=2,
            state_probability=lambda key: 0.5,
            workers=2,
            backend="auto",
        )
        assert simulation.backend == "thread"
