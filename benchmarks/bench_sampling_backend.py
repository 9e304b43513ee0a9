"""Sampling-backend throughput: serial vs columnar vs parallel.

Times ``sample_scores`` through the three backends on all-uniform
databases of n ∈ {100, 1000, 5000} records and writes the throughput
table to ``BENCH_sampling.json`` (see ``emit.py``), so the sampler's
perf trajectory is tracked across PRs in version control.

Backends:

- **serial** — the pre-columnar per-record Python loop,
  :func:`sample_scores_serial` below, kept exactly for this
  comparison;
- **columnar** — the ``SamplingPlan`` family kernels behind
  ``sample_scores``;
- **parallel** — the sharded ``ParallelSampler`` front-end over a
  thread pool (same kernels, deterministic shard merge; at this batch
  size it mostly measures the sharding overhead).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_sampling_backend.py``.
"""

import os
import time

import numpy as np
import pytest

from repro import uniform
from repro.core.montecarlo import MonteCarloEvaluator
from repro.core.parallel import ParallelSampler

from conftest import emit
from emit import write_sampling_report

SIZES = (100, 1000, 5000)
#: Per-call batch size. Chosen at estimator granularity (one oracle
#: evaluation / one chunk of a larger budget): this is the regime where
#: the per-record Python call overhead the columnar backend eliminates
#: is visible. At very large batches both paths converge to raw RNG
#: throughput and the ratio approaches ~2-4x on this hardware.
SAMPLES = 128
#: Required columnar-vs-serial advantage at n=1000 (acceptance floor).
MIN_SPEEDUP = 5.0


def sample_scores_serial(evaluator, rng, samples):
    """Pre-columnar per-record sampling loop over ``evaluator.records``.

    The baseline the columnar plan is benchmarked and distribution-tested
    against; no estimator uses it.
    """
    n = len(evaluator.records)
    out = np.empty((samples, n))
    for i, rec in enumerate(evaluator.records):
        if rec.is_deterministic:
            out[:, i] = evaluator._tie_values.get(rec.record_id, rec.lower)
        else:
            out[:, i] = rec.score.sample(rng, samples)
    return out


def _uniform_db(n):
    return [uniform(f"r{i}", float(i % 17), float(i % 17) + 2.5) for i in range(n)]


def _time(fn, *args, repeats=3, **kwargs):
    """Best-of-``repeats`` wall time (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="sampling-backend")
def test_sampling_backend_throughput(benchmark):
    results = []
    speedups = {}
    for n in SIZES:
        db = _uniform_db(n)
        evaluator = MonteCarloEvaluator(db, seed=11)
        parallel = ParallelSampler(db, seed=11, workers="auto")

        serial = _time(
            sample_scores_serial, evaluator, np.random.default_rng(3), SAMPLES
        )
        columnar = _time(evaluator.sample_scores, SAMPLES, seed=3)
        sharded = _time(parallel.sample_scores, SAMPLES, seed=3)

        results += [
            {"n": n, "backend": "serial", "samples": SAMPLES, "seconds": serial},
            {"n": n, "backend": "columnar", "samples": SAMPLES, "seconds": columnar},
            {"n": n, "backend": "parallel", "samples": SAMPLES, "seconds": sharded},
        ]
        speedups[n] = serial / columnar
        parallel.close()

    path = write_sampling_report(results)
    emit(
        f"Sampling backends ({SAMPLES} samples; written to {path.name})",
        ["n", "backend", "seconds", "samples/sec"],
        [
            (
                r["n"],
                r["backend"],
                f"{r['seconds']:.4f}",
                f"{r['samples'] / r['seconds']:,.0f}",
            )
            for r in results
        ],
    )

    # Acceptance floor: the columnar path must beat the per-record loop
    # by >= 5x on 1000 uniform records.
    assert speedups[1000] >= MIN_SPEEDUP, (
        f"columnar speedup {speedups[1000]:.1f}x below {MIN_SPEEDUP}x"
    )

    evaluator = MonteCarloEvaluator(_uniform_db(1000), seed=11)
    benchmark(evaluator.sample_scores, SAMPLES, seed=3)
    benchmark.extra_info["speedup_n1000"] = speedups[1000]
    benchmark.extra_info["cpu_count"] = os.cpu_count() or 1


def test_columnar_matches_serial_distribution():
    """Columnar and serial paths draw from the same distribution."""
    db = _uniform_db(200)
    evaluator = MonteCarloEvaluator(db, seed=5)
    serial = sample_scores_serial(evaluator, np.random.default_rng(9), 4_000)
    columnar = evaluator.sample_scores(4_000, seed=9)
    assert np.allclose(serial.mean(axis=0), columnar.mean(axis=0), atol=0.08)
    assert np.allclose(serial.std(axis=0), columnar.std(axis=0), atol=0.08)
    lowers = np.array([rec.lower for rec in db])
    uppers = np.array([rec.upper for rec in db])
    assert np.all(columnar >= lowers) and np.all(columnar <= uppers)
