"""Tracing-overhead benchmark on the Figure 11 workload.

Quantifies what the query observability layer costs: the Figure 11
UTop-Rank(1, k) Monte-Carlo workload is run twice per ``k`` — once with
tracing off (the default) and once with ``trace=True`` plus a private
:class:`~repro.core.metrics.MetricsRegistry` — and the report compares
per-``k`` median wall times. The acceptance bar is a median overhead
below 5% with tracing on and byte-identical answers either way (the
trace and timing fields are stripped before comparison; a span tree
must never perturb probabilities).

Each timed query runs on a *fresh* engine over a private cache so no
pass warms the other: the plain and traced runs pay identical plan /
pairwise / sampling costs and differ only in the instrumentation.

Regenerate the committed report with::

    PYTHONPATH=src python -m repro.experiments.trace_overhead_bench

which writes ``BENCH_trace_overhead.json`` at the repository root;
``benchmarks/bench_trace_overhead.py`` reuses :func:`run_benchmark`.

Schema::

    {
      "schema": 2,
      "unit": "seconds",
      "host": {"cpu_count": ..., "platform": ..., ...},
      "size": ..., "samples": ..., "repeats": ...,
      "rows": [{"k": ..., "plain_seconds": ..., "traced_seconds": ...,
                "overhead": ..., "spans": ...}, ...],
      "median_overhead": ...,
      "answers_identical": true,
      "stage_breakdown": {"prune": ..., "montecarlo": ...}
    }
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import RankingEngine
from ..core.metrics import MetricsRegistry
from ..core.queries import QueryResult
from ..core.records import UncertainRecord
from .host import BENCH_SCHEMA, host_block
from .query_cache_bench import benchmark_records

__all__ = [
    "REPORT_PATH",
    "K_VALUES",
    "run_benchmark",
    "write_report",
    "main",
]

#: The committed report, at the repository root next to the other BENCH files.
REPORT_PATH = (
    Path(__file__).resolve().parents[3] / "BENCH_trace_overhead.json"
)

#: The Figure 11 ``k`` sweep, truncated to benchmark-friendly sizes.
K_VALUES = (5, 10, 20, 50)


def _count_spans(node: Dict[str, object]) -> int:
    children = node.get("children") or []
    return 1 + sum(_count_spans(child) for child in children)


def _stage_walls(node: Dict[str, object]) -> Dict[str, float]:
    """Total wall seconds per top-level stage name across one trace."""
    walls: Dict[str, float] = {}
    for child in node.get("children") or []:
        name = str(child["name"])
        walls[name] = walls.get(name, 0.0) + float(child["wall_seconds"])
    return walls


def _timed_query(
    records: Sequence[UncertainRecord],
    k: int,
    samples: int,
    seed: int,
    traced: bool,
) -> Tuple[QueryResult, float]:
    """One UTop-Rank(1, k) on a fresh engine; returns (result, s).

    A fresh engine (private cache, and — when traced — a private
    registry) per call keeps the two passes symmetric: neither benefits
    from artifacts the other computed.
    """
    engine = RankingEngine(
        records,
        seed=seed,
        samples=samples,
        trace=traced,
        metrics=MetricsRegistry() if traced else None,
    )
    start = time.perf_counter()
    result = engine.utop_rank(1, k, method="montecarlo")
    elapsed = time.perf_counter() - start
    return result, elapsed


def run_benchmark(
    size: int = 2_000,
    k_values: Sequence[int] = K_VALUES,
    samples: int = 10_000,
    repeats: int = 5,
    seed: int = 7,
) -> Dict[str, object]:
    """Per-``k`` plain-vs-traced medians plus the aggregate verdict."""
    records = benchmark_records(size)
    rows: List[dict] = []
    identical = True
    breakdown: Dict[str, float] = {}
    for k in k_values:
        plain_times: List[float] = []
        traced_times: List[float] = []
        spans = 0
        for _ in range(repeats):
            plain, plain_s = _timed_query(
                records, k, samples, seed, traced=False
            )
            traced, traced_s = _timed_query(
                records, k, samples, seed, traced=True
            )
            plain_times.append(plain_s)
            traced_times.append(traced_s)
            if plain.canonical() != traced.canonical():
                identical = False
            if traced.trace is not None:
                trace = traced.trace.to_dict()
                spans = _count_spans(trace)
                for name, wall in _stage_walls(trace).items():
                    breakdown[name] = breakdown.get(name, 0.0) + wall
        plain_median = statistics.median(plain_times)
        traced_median = statistics.median(traced_times)
        rows.append(
            {
                "k": int(k),
                "plain_seconds": plain_median,
                "traced_seconds": traced_median,
                "overhead": (
                    (traced_median - plain_median) / plain_median
                    if plain_median > 0
                    else 0.0
                ),
                "spans": int(spans),
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "unit": "seconds",
        "host": host_block(),
        "size": int(size),
        "samples": int(samples),
        "repeats": int(repeats),
        "rows": rows,
        "median_overhead": statistics.median(r["overhead"] for r in rows),
        "answers_identical": identical,
        "stage_breakdown": breakdown,
    }


def write_report(
    payload: Dict[str, object], path: Optional[Path] = None
) -> Path:
    """Write the report JSON (default: ``BENCH_trace_overhead.json``)."""
    target = path if path is not None else REPORT_PATH
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate BENCH_trace_overhead.json"
    )
    parser.add_argument("--size", type=int, default=2_000)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    payload = run_benchmark(
        size=args.size,
        samples=args.samples,
        repeats=args.repeats,
        seed=args.seed,
    )
    path = write_report(payload, args.out)
    print(
        f"n={payload['size']} samples={payload['samples']}: "
        f"median overhead {payload['median_overhead']:+.2%}, "
        f"identical={payload['answers_identical']} -> {path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
