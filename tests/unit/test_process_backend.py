"""Cross-backend execution tests (`backend="thread" | "process" | "auto"`).

The process pool must be *invisible* in every answer: for a fixed seed
the merged results are byte-identical whether shards run on the caller
thread, a thread pool, or a process pool over shared memory — for any
worker count, cold or warm cache, across all five query kinds. These
tests pin that contract, the `REPRO_WORKERS` resolution order, the
engine/sampler lifecycle (no leaked shared-memory segments), and the
crash-retry path (`@pytest.mark.chaos`).
"""

from __future__ import annotations

import logging
import os
import time

import numpy as np
import pytest

import repro.core.parallel as parallel_mod
from repro.core import shm
from repro.core.correlation import GaussianCopula
from repro.core.distributions import ScoreDistribution, UniformScore
from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.mcmc import TopKSimulation
from repro.core.metrics import MetricsRegistry, use_registry
from repro.core.parallel import (
    PROCESS_CROSSOVER,
    ParallelSampler,
    resolve_workers,
)
from repro.core.queries import Query
from repro.core.records import UncertainRecord
from repro.lint.sanitizer import (
    build_records,
    build_workload,
    encode_canonical,
)

BACKENDS = ("thread", "process")
WORKER_GRID = (1, 2, 4)


def _canonical(result):
    """``result.canonical()`` plus the cache statistics.

    The process backend ships §VI-D pairwise integrals home from the
    workers precisely so that cache accounting stays bit-identical
    across backends, and that is worth asserting.
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


class TestSamplerBackendInvariance:
    def test_merged_estimates_identical(self, paper_db):
        thread = ParallelSampler(
            paper_db, seed=42, workers=2, backend="thread"
        )
        process = ParallelSampler(
            paper_db, seed=42, workers=2, backend="process"
        )
        try:
            assert np.array_equal(
                thread.rank_count_matrix(2_000, seed=3),
                process.rank_count_matrix(2_000, seed=3),
            )
            prefix = ["t5", "t1"]
            assert thread.prefix_probability(
                prefix, 1_000, seed=5
            ) == process.prefix_probability(prefix, 1_000, seed=5)
            assert thread.empirical_top_prefixes(
                2, 1_000, seed=1
            ) == process.empirical_top_prefixes(2, 1_000, seed=1)
        finally:
            thread.close()
            process.close()

    def test_close_unlinks_segment_and_sampler_stays_usable(self, paper_db):
        sampler = ParallelSampler(
            paper_db, seed=42, workers=2, backend="process"
        )
        before = sampler.rank_count_matrix(500, seed=9)
        assert shm.live_segments(), "process backend should map a segment"
        sampler.close()
        assert shm.live_segments() == frozenset()
        # Closed is not terminal: resources are lazily re-created.
        again = sampler.rank_count_matrix(500, seed=9)
        assert np.array_equal(before, again)
        sampler.close()
        sampler.close()  # idempotent
        assert shm.live_segments() == frozenset()

    def test_unknown_backend_rejected(self, paper_db):
        with pytest.raises(QueryError, match="backend"):
            ParallelSampler(paper_db, backend="gpu")


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
        assert plan["effective_backend"] == "process"
        engine.close()

    def test_process_with_copula_refused_at_construction(self, paper_db):
        copula = GaussianCopula(np.eye(len(paper_db)))
        with pytest.raises(QueryError, match="copula"):
            RankingEngine(paper_db, copula=copula, backend="process")

    def test_per_query_process_override_with_copula_refused(self, paper_db):
        copula = GaussianCopula(np.eye(len(paper_db)))
        engine = RankingEngine(paper_db, copula=copula, workers=2)
        query = Query(
            kind="utop_rank", i=1, j=1, method="montecarlo", backend="process"
        )
        with pytest.raises(QueryError, match="copula"):
            engine.query(query)
        engine.close()

    def test_auto_resolution_depends_on_size_and_cores(self, monkeypatch):
        small = RankingEngine(build_records(8), workers=2, backend="auto")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert small._effective_backend(None) == "thread"
        large = RankingEngine(
            build_records(PROCESS_CROSSOVER), workers=2, backend="auto"
        )
        assert large._effective_backend(None) == "process"
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert large._effective_backend(None) == "thread"
        small.close()
        large.close()

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


class _CrashingUniformScore(ScoreDistribution):
    """Uniform score (generic-batch path) that kills its process once.

    The first ``sample`` call that finds the sentinel file removes it
    and hard-exits the worker, simulating a mid-shard crash. The
    unlink-then-exit ordering makes the fault one-shot: the retried
    shard finds no sentinel and completes normally.
    """

    def __init__(self, lower, upper, sentinel=None):
        self.lower = float(lower)
        self.upper = float(upper)
        self.sentinel = sentinel

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        width = self.upper - self.lower
        return np.where((x >= self.lower) & (x <= self.upper), 1.0 / width, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        width = self.upper - self.lower
        return np.clip((x - self.lower) / width, 0.0, 1.0)

    def ppf(self, q):
        return self.lower + np.asarray(q, dtype=float) * (self.upper - self.lower)

    def mean(self):
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng, size=None):
        if self.sentinel is not None:
            try:
                os.unlink(self.sentinel)
            except FileNotFoundError:
                pass
            else:
                os._exit(1)
        return super().sample(rng, size)


def _crashy_db(sentinel):
    rng = np.random.default_rng(5)
    records = []
    for i in range(30):
        lower = float(rng.uniform(0.0, 10.0))
        score = (
            _CrashingUniformScore(lower, lower + 1.0, sentinel)
            if i == 7
            else UniformScore(lower, lower + 1.0)
        )
        records.append(UncertainRecord(record_id=f"r{i}", score=score))
    return records


@pytest.mark.chaos
class TestWorkerCrashRetry:
    def test_killed_worker_retries_byte_identically(self, tmp_path):
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        registry = MetricsRegistry()
        crashy = ParallelSampler(
            _crashy_db(str(sentinel)), seed=11, workers=2, backend="process"
        )
        clean = ParallelSampler(
            _crashy_db(None), seed=11, workers=2, backend="process"
        )
        try:
            with use_registry(registry):
                crashed = crashy.rank_counts(400, max_rank=5, seed=3)
            reference = clean.rank_counts(400, max_rank=5, seed=3)
            assert not sentinel.exists(), "fault was never triggered"
            assert np.array_equal(crashed.counts, reference.counts)
            assert registry.counter_total("shard_retries_total") >= 1
        finally:
            crashy.close()
            clean.close()
        assert shm.live_segments() == frozenset()


@pytest.mark.bench
class TestProcessBackendBenchSmoke:
    def test_process_backend_matches_columnar_baseline(self):
        records = build_records(400)
        serial = ParallelSampler(records, seed=0, workers=1)
        workers = min(os.cpu_count() or 1, 4)
        process = ParallelSampler(
            records, seed=0, workers=max(workers, 2), backend="process"
        )
        try:
            process.rank_count_matrix(100, seed=1)  # warm the pool
            start = time.perf_counter()
            base = serial.rank_count_matrix(4_000, seed=1)
            serial_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            parallel = process.rank_count_matrix(4_000, seed=1)
            process_elapsed = time.perf_counter() - start
        finally:
            serial.close()
            process.close()
        assert np.array_equal(base, parallel)
        if (os.cpu_count() or 1) < 2:
            pytest.skip("speedup assertion needs a multi-core host")
        # Generous floor: the shared-memory dispatch must recover at
        # least half the columnar throughput once real cores exist.
        assert process_elapsed <= serial_elapsed / 0.5
