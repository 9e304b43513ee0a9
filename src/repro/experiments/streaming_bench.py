"""Streaming-update benchmark: update→fresh-answer latency vs n.

Measures the payoff of delta-aware incremental maintenance
(:meth:`~repro.core.cache.ComputationCache.migrate` plus the
``table.mutate()`` delta API): a table-backed engine answers a warm
MCMC ranking query, then absorbs single-record edits one at a time,
timing each *commit → byte-fresh answer* round trip. Three regimes are
compared per database size:

- **cold** — a fresh engine over the same content answering the same
  query from an empty cache (what every edit would cost without
  incremental maintenance);
- **update** — the warm engine's post-edit latency: delta consumption,
  dirty-only re-validation, pairwise carry-forward, and the query
  itself re-run against the migrated memo;
- **identity** — after the final edit, a cold engine is rebuilt over
  the mutated table and the answers are compared canonically; every
  row must be byte-identical or the whole report is invalid.

The committed ``BENCH_streaming.json`` must show the update latency
growing *sublinearly* in n for single-record edits (the ``scaling``
block asserts ``latency_ratio < n_ratio`` across the size grid): the
only O(n) work left on the update path is re-scoring the table rows
and rolling the record-granular fingerprint, both with tiny constants,
while validation and pairwise integration are proportional to the
delta.

Regenerate the committed report with::

    PYTHONPATH=src python -m repro.experiments.streaming_bench

which writes ``BENCH_streaming.json`` at the repository root;
``benchmarks/bench_streaming.py`` asserts the acceptance floors
(sublinear scaling, >=90% pairwise reuse, full identity) and
``tests/integration/test_streaming_bench.py`` smoke-runs the harness
at tiny scale.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine import RankingEngine
from ..core.queries import QueryResult
from ..db.scoring import AttributeScore
from ..db.table import UncertainTable

__all__ = [
    "DEFAULT_SIZES",
    "REPORT_PATH",
    "build_table",
    "run_benchmark",
    "main",
]

#: The committed report, at the repository root next to the other BENCH
#: files (the pytest benchmark writes it through
#: :func:`benchmarks.emit.write_streaming_report`).
REPORT_PATH = Path(__file__).resolve().parents[3] / "BENCH_streaming.json"

#: Database sizes measured by default; the scaling block compares the
#: smallest against the largest.
DEFAULT_SIZES: Tuple[int, ...] = (250, 500, 1000)

#: Attribute domain of the benchmark scoring rule. The power-of-two
#: span keeps ``AttributeScore`` an exact identity on the generated
#: values, so table-path answers are byte-comparable across engines.
_DOMAIN: Tuple[float, float] = (0.0, 1024.0)


def _cell(index: int, n: int) -> Tuple[float, float]:
    """Deterministic overlapping interval for row ``index`` of ``n``."""
    lo = float((index * 37) % (2 * n)) / 16.0
    width = 0.5 + float((index * 13) % 7) / 2.0
    return (lo, lo + width)


def build_table(n: int) -> Tuple[UncertainTable, AttributeScore]:
    """A deterministic ``n``-row table of overlapping intervals."""
    rows = [
        {"id": f"r{i:05d}", "score": _cell(i, n)} for i in range(n)
    ]
    table = UncertainTable("streaming", ["id", "score"], rows)
    scoring = AttributeScore("score", _DOMAIN, scale=_DOMAIN[1])
    return table, scoring


def _engine(
    table: UncertainTable,
    scoring: AttributeScore,
    *,
    seed: int,
    samples: int,
) -> RankingEngine:
    return RankingEngine.from_table(
        table, scoring, seed=seed, samples=samples, workers=1
    )


def _query(engine: RankingEngine, k: int, seed: int) -> QueryResult:
    """The measured query: MCMC UTop-Prefix (pairwise-memo heavy)."""
    return engine.utop_prefix(k, l=2, method="mcmc", seed=seed)


def _answer(result: QueryResult) -> str:
    """``canonical()`` as JSON, so equal NaN diagnostics compare equal."""
    return json.dumps(result.canonical(), sort_keys=True, default=str)


def _edit(table: UncertainTable, index: int, n: int) -> None:
    """Commit one single-record edit: nudge row ``index``'s interval."""
    lo, hi = _cell(index, n)
    with table.mutate() as batch:
        batch.replace(
            {"id": f"r{index:05d}", "score": (lo + 0.125, hi + 0.125)}
        )


def run_benchmark(
    sizes: Sequence[int] = DEFAULT_SIZES,
    edits: int = 5,
    samples: int = 4000,
    seed: int = 7,
    query_seed: int = 13,
    k: int = 3,
) -> Dict[str, Any]:
    """Measure update→fresh-answer latency across the size grid.

    Per size: warm one table-backed engine with the query, commit
    ``edits`` single-record edits (timing each commit→answer round
    trip), then rebuild a cold engine over the final content and
    assert the warm answer is byte-identical to the cold recompute.
    """
    if edits < 1:
        raise ValueError("edits must be at least 1")
    results: List[Dict[str, Any]] = []
    for n in sizes:
        table, scoring = build_table(n)
        engine = _engine(table, scoring, seed=seed, samples=samples)
        start = time.perf_counter()
        _query(engine, k, query_seed)
        cold_first = time.perf_counter() - start

        latencies: List[float] = []
        warm_result: Optional[QueryResult] = None
        reuse = carried = dropped = 0
        for e in range(edits):
            _edit(table, 5 + e, n)
            start = time.perf_counter()
            warm_result = _query(engine, k, query_seed)
            latencies.append(time.perf_counter() - start)
        migration = engine.last_migration
        if migration is not None:
            reuse = migration.reuse_fraction
            carried = migration.pairwise_carried
            dropped = migration.pairwise_dropped
        engine.close()

        rebuild = _engine(table, scoring, seed=seed, samples=samples)
        start = time.perf_counter()
        cold_result = _query(rebuild, k, query_seed)
        cold_rebuild = time.perf_counter() - start
        rebuild.close()

        latencies.sort()
        p50 = latencies[len(latencies) // 2]
        results.append(
            {
                "n": int(n),
                "edits": int(edits),
                "cold_first_seconds": cold_first,
                "cold_rebuild_seconds": cold_rebuild,
                "update_p50_seconds": p50,
                "update_max_seconds": latencies[-1],
                "speedup_vs_cold_rebuild": (
                    cold_rebuild / p50 if p50 > 0 else float("inf")
                ),
                "reuse_fraction": float(reuse),
                "pairwise_carried": int(carried),
                "pairwise_dropped": int(dropped),
                "identical": (
                    warm_result is not None
                    and _answer(warm_result) == _answer(cold_result)
                ),
            }
        )

    smallest, largest = results[0], results[-1]
    n_ratio = largest["n"] / smallest["n"]
    latency_ratio = (
        largest["update_p50_seconds"] / smallest["update_p50_seconds"]
        if smallest["update_p50_seconds"] > 0
        else float("inf")
    )
    return {
        "unit": "seconds",
        "query": {
            "kind": "utop_prefix",
            "method": "mcmc",
            "k": int(k),
            "l": 2,
            "seed": int(query_seed),
        },
        "engine": {"seed": int(seed), "samples": int(samples)},
        "results": results,
        "scaling": {
            "n_ratio": n_ratio,
            "latency_ratio": latency_ratio,
            "sublinear": latency_ratio < n_ratio,
        },
        "identity_all": all(row["identical"] for row in results),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate BENCH_streaming.json"
    )
    parser.add_argument(
        "--sizes",
        type=lambda raw: [int(p) for p in raw.split(",") if p.strip()],
        default=list(DEFAULT_SIZES),
    )
    parser.add_argument("--edits", type=int, default=5)
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    payload = run_benchmark(
        sizes=args.sizes,
        edits=args.edits,
        samples=args.samples,
        seed=args.seed,
    )
    # Stamp the same schema-2 envelope benchmarks/emit.py applies (the
    # pytest benchmark writes through emit.write_streaming_report; this
    # CLI must not require benchmarks/ on sys.path).
    from .host import BENCH_SCHEMA, host_block

    payload = dict(payload)
    payload["schema"] = BENCH_SCHEMA
    payload["host"] = host_block()
    path = args.out if args.out is not None else REPORT_PATH
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for row in payload["results"]:
        print(
            f"n={row['n']}: cold {row['cold_rebuild_seconds']:.3f}s, "
            f"update p50 {row['update_p50_seconds'] * 1000:.1f}ms "
            f"({row['speedup_vs_cold_rebuild']:.0f}x, "
            f"reuse {row['reuse_fraction']:.3f}, "
            f"identical={row['identical']})"
        )
    scaling = payload["scaling"]
    print(
        f"scaling: latency x{scaling['latency_ratio']:.2f} over "
        f"n x{scaling['n_ratio']:.1f} "
        f"(sublinear={scaling['sublinear']}) -> {path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
