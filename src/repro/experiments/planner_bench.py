"""Adaptive-planner benchmark: cost-model planning vs static ladders.

Runs one mixed 50-query workload — all five query kinds over four
database families — under three strategies and compares total
wall-clock:

- **planner** — ``method="auto"`` with the cost-model planner on
  (``RankingEngine(planner=True)``, the default);
- **ladder_exact_first** — today's reactive degradation ladder
  (``planner=False``): exact / MCMC is *attempted* and only abandoned
  when the budget actually expires mid-stage;
- **ladder_mc_first** — a static Monte-Carlo-first ladder
  (``method="montecarlo"`` for every query).

The workload families exercise the two planning mechanisms that a
reactive ladder cannot express:

- **doomed** databases (n=20, every interval overlapping) issue
  deadline-budgeted queries whose exact DP / MCMC walk is predictably
  several times over the deadline. The reactive ladder burns the whole
  deadline discovering that before falling to a lower rung; the planner
  skips the doomed stage up front and answers from a *higher*-confidence
  rung (full Monte-Carlo instead of baseline / clipped MCMC) in
  milliseconds.
- The **covered** database seeds the rank-count store with one large
  unbudgeted query, then issues sample-capped queries requesting more
  samples than anyone will ever draw. The static ladders pay a fresh
  top-up draw per query; the planner serves the covered block
  (``ComputationCache.rank_count_coverage``) at reduced sample count
  for nearly free.

The **tiny** / **mid** families are unbudgeted traffic where the
planner must be a bystander: plan annotation only, answers byte-equal
to the reactive ladder's.

Audits (planner vs ``ladder_exact_first``, per pass):

- *identity* — wherever both strategies answered with the same method
  and neither result is partial, the canonical answers (timing / cache
  / trace / plan-diagnostics stripped) must be byte-identical;
- *confidence* — the planner's answer must never rank below the
  reactive ladder's under ``(method rank, non-partial)`` ordering with
  exact > {mcmc, montecarlo} > baseline. Reduced-sample covered-block
  serving keeps the method and partial flag, so it ties rather than
  loses.

Regenerate the committed report with::

    PYTHONPATH=src python -m repro.experiments.planner_bench

which writes ``BENCH_planner.json`` at the repository root via
``benchmarks/emit.py``; ``benchmarks/bench_planner.py`` asserts the
acceptance floors (>= 1.3x cold speedup vs the reactive ladder, wins
vs both static ladders, zero confidence violations, full identity) and
``tests/integration/test_planner_bench.py`` smoke-runs the same
harness at tiny scale.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.budget import Budget
from ..core.cache import ComputationCache
from ..core.engine import RankingEngine
from ..core.queries import QueryResult
from ..core.records import UncertainRecord, uniform

__all__ = [
    "REPORT_PATH",
    "STRATEGIES",
    "WorkItem",
    "databases",
    "workload",
    "run_pass",
    "run_benchmark",
    "main",
]

#: The committed report, at the repository root next to the other BENCH
#: files (written through :func:`benchmarks.emit.write_planner_report`,
#: which stamps the schema-2 envelope).
REPORT_PATH = Path(__file__).resolve().parents[3] / "BENCH_planner.json"

#: Strategy order: the planner first, then the two static ladders it
#: must beat. ``ladder_exact_first`` *is* today's reactive ``auto``.
STRATEGIES = ("planner", "ladder_exact_first", "ladder_mc_first")

#: Method rank for the confidence audit. Exact beats both sampling
#: rungs; MCMC and Monte-Carlo are peers (different estimators of the
#: same quantity); the baseline collapse ranks below everything.
CONFIDENCE_RANK = {"exact": 3, "mcmc": 2, "montecarlo": 2, "baseline": 0}


@dataclass(frozen=True)
class WorkItem:
    """One workload query: spec parameters plus its per-run budget.

    ``Budget`` objects are single-use and deadline budgets start
    ticking at construction, so the workload carries budget *specs*
    (``deadline_s`` / ``max_samples``) and each strategy run builds a
    fresh ``Budget`` immediately before issuing the query.
    """

    label: str
    db: str
    kind: str
    args: Mapping[str, object] = field(default_factory=dict)
    deadline_s: Optional[float] = None
    max_samples: Optional[int] = None
    samples: Optional[int] = None


def _interval_db(
    n: int,
    seed: int,
    center_lo: float,
    center_hi: float,
    width_lo: float,
    width_hi: float,
) -> List[UncertainRecord]:
    """``n`` uniform-interval records with configurable overlap."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(center_lo, center_hi, size=n)
    widths = rng.uniform(width_lo, width_hi, size=n)
    return [
        uniform(
            f"r{i:05d}",
            float(centers[i] - widths[i]),
            float(centers[i] + widths[i]),
        )
        for i in range(n)
    ]


def databases(
    doomed_dbs: int = 6,
    doomed_n: int = 20,
    covered_n: int = 800,
) -> Dict[str, List[UncertainRecord]]:
    """The four workload families, keyed by database name.

    The doomed and covered families are *fully* overlapping (every
    interval intersects every other) so k-dominance pruning keeps the
    whole table: doomed exact DPs stay several times over their
    deadline, and covered Monte-Carlo draws stay expensive enough that
    serving the cached block is a measurable win.
    """
    dbs: Dict[str, List[UncertainRecord]] = {
        "tiny": _interval_db(8, 11, 0.0, 70.0, 2.0, 4.0),
        "mid": _interval_db(40, 23, 0.0, 100.0, 2.0, 6.0),
        "covered": _interval_db(covered_n, 37, 0.0, 3.0, 15.0, 25.0),
    }
    for d in range(doomed_dbs):
        dbs[f"doomed{d}"] = _interval_db(
            doomed_n, 101 + d, 0.0, 5.0, 20.0, 30.0
        )
    return dbs


def workload(
    doomed_dbs: int = 6,
    doomed_deadline_s: float = 0.3,
    doomed_depth: int = 12,
    covered_queries: int = 20,
    covered_seed_samples: int = 50_000,
    covered_requested: int = 1_000_000,
    covered_cap: int = 20_000,
    covered_depth: int = 10,
) -> List[WorkItem]:
    """The mixed workload (50 items at the default parameters).

    ``covered_requested`` is sized so the static ladders never finish
    it: rank counts are memoized with deterministic top-up, so each
    capped ladder query grows the store by ``covered_cap``; the request
    must exceed ``covered_seed_samples + 2 * covered_queries *
    covered_cap`` (cold plus warm pass) or late warm queries would
    complete the draw and flip from partial to full answers.

    Every covered item reuses ``covered_depth`` as its rank range:
    rank-count blocks are keyed by the *pruned-table* fingerprint
    (prune level = ``j``), so only same-depth queries share coverage.
    """
    items: List[WorkItem] = [
        # Unbudgeted bystander traffic: the planner annotates but must
        # not perturb (identity-audited against the reactive ladder).
        WorkItem("tiny-rank-a", "tiny", "utop_rank", {"i": 1, "j": 3, "l": 1}),
        WorkItem("tiny-rank-b", "tiny", "utop_rank", {"i": 2, "j": 5, "l": 2}),
        WorkItem("tiny-prefix", "tiny", "utop_prefix", {"k": 2, "l": 1}),
        WorkItem("tiny-set", "tiny", "utop_set", {"k": 2, "l": 1}),
        WorkItem("tiny-agg", "tiny", "rank_aggregation", {}),
        WorkItem(
            "tiny-threshold", "tiny", "threshold_topk",
            {"k": 3, "threshold": 0.5},
        ),
        WorkItem("mid-rank-a", "mid", "utop_rank", {"i": 1, "j": 5, "l": 2}),
        WorkItem("mid-rank-b", "mid", "utop_rank", {"i": 3, "j": 8, "l": 3}),
        WorkItem("mid-rank-c", "mid", "utop_rank", {"i": 2, "j": 6, "l": 1}),
        WorkItem("mid-agg", "mid", "rank_aggregation", {}),
        WorkItem(
            "mid-threshold", "mid", "threshold_topk",
            {"k": 5, "threshold": 0.3},
        ),
    ]
    for d in range(doomed_dbs):
        db = f"doomed{d}"
        depth = doomed_depth + d % 3
        items.append(
            WorkItem(
                f"{db}-rank", db, "utop_rank",
                {"i": 1, "j": depth, "l": 2},
                deadline_s=doomed_deadline_s,
            )
        )
        items.append(
            WorkItem(
                f"{db}-prefix", db, "utop_prefix", {"k": 5, "l": 2},
                deadline_s=doomed_deadline_s,
            )
        )
        if d % 2 == 0:
            items.append(
                WorkItem(
                    f"{db}-set", db, "utop_set", {"k": 5, "l": 2},
                    deadline_s=doomed_deadline_s,
                )
            )
        else:
            items.append(
                WorkItem(
                    f"{db}-threshold", db, "threshold_topk",
                    {"k": depth, "threshold": 0.4},
                    deadline_s=doomed_deadline_s,
                )
            )
    items.append(
        WorkItem(
            "covered-seed", "covered", "utop_rank",
            {"i": 1, "j": covered_depth, "l": 3},
            samples=covered_seed_samples,
        )
    )
    for q in range(covered_queries):
        items.append(
            WorkItem(
                f"covered-{q:02d}", "covered", "utop_rank",
                {"i": 1 + q % 3, "j": covered_depth, "l": 1 + q % 3},
                max_samples=covered_cap,
                samples=covered_requested,
            )
        )
    return items


def _make_budget(item: WorkItem) -> Optional[Budget]:
    if item.deadline_s is not None:
        return Budget.for_deadline(
            item.deadline_s, max_samples=item.max_samples
        )
    if item.max_samples is not None:
        return Budget(max_samples=item.max_samples)
    return None


def _run_item(
    engine: RankingEngine, item: WorkItem, strategy: str
) -> Tuple[QueryResult, float]:
    """Issue one workload item; returns ``(result, wall seconds)``."""
    method = "montecarlo" if strategy == "ladder_mc_first" else "auto"
    budget = _make_budget(item)
    args = dict(item.args)
    start = time.perf_counter()
    if item.kind == "utop_rank":
        result = engine.utop_rank(
            int(args["i"]), int(args["j"]), l=int(args["l"]),
            method=method, samples=item.samples, budget=budget,
        )
    elif item.kind == "utop_prefix":
        result = engine.utop_prefix(
            int(args["k"]), l=int(args["l"]), method=method, budget=budget
        )
    elif item.kind == "utop_set":
        result = engine.utop_set(
            int(args["k"]), l=int(args["l"]), method=method, budget=budget
        )
    elif item.kind == "threshold_topk":
        result = engine.threshold_topk(
            int(args["k"]), float(args["threshold"]),
            method=method, budget=budget,
        )
    elif item.kind == "rank_aggregation":
        result = engine.rank_aggregation(method=method)
    else:
        raise ValueError(f"unknown workload kind {item.kind!r}")
    return result, time.perf_counter() - start


def _confidence(result: QueryResult) -> Tuple[int, int]:
    """``(method rank, non-partial)`` — lexicographically comparable."""
    return (
        CONFIDENCE_RANK.get(result.method or "", 0),
        0 if result.partial else 1,
    )


def run_pass(
    engines: Mapping[str, RankingEngine],
    items: Sequence[WorkItem],
    strategy: str,
) -> Tuple[List[Dict[str, object]], float]:
    """Run the workload once; returns ``(per-query rows, total seconds)``.

    Total is the sum of per-query walls (engine construction and
    workload bookkeeping are excluded — the strategies share them).
    """
    rows: List[Dict[str, object]] = []
    total = 0.0
    for item in items:
        result, elapsed = _run_item(engines[item.db], item, strategy)
        total += elapsed
        rows.append(
            {
                "label": item.label,
                "db": item.db,
                "method": result.method,
                "partial": bool(result.partial),
                "seconds": elapsed,
                "confidence": _confidence(result),
                "blob": json.dumps(result.canonical(), sort_keys=True),
            }
        )
    return rows, total


def _family(db: str) -> str:
    return "doomed" if db.startswith("doomed") else db


def _family_totals(rows: Sequence[Mapping[str, object]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for row in rows:
        family = _family(str(row["db"]))
        totals[family] = totals.get(family, 0.0) + float(row["seconds"])
    return totals


def _method_counts(rows: Sequence[Mapping[str, object]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for row in rows:
        method = str(row["method"])
        counts[method] = counts.get(method, 0) + 1
    return counts


def _audit(
    planner_rows: Sequence[Mapping[str, object]],
    auto_rows: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """Identity + confidence audit of the planner against reactive auto."""
    compared = identical = mismatched_methods = partial_skipped = 0
    wins = ties = violations = 0
    violation_labels: List[str] = []
    for planned, reactive in zip(planner_rows, auto_rows):
        if planned["confidence"] > reactive["confidence"]:
            wins += 1
        elif planned["confidence"] == reactive["confidence"]:
            ties += 1
        else:
            violations += 1
            violation_labels.append(str(planned["label"]))
        if planned["method"] != reactive["method"]:
            mismatched_methods += 1
            continue
        if planned["partial"] or reactive["partial"]:
            # Partial answers at different sample counts legitimately
            # differ (covered-block serving vs budget-capped top-up);
            # the confidence audit above still covers them.
            partial_skipped += 1
            continue
        compared += 1
        if planned["blob"] == reactive["blob"]:
            identical += 1
    return {
        "compared": compared,
        "identical": identical,
        "all_identical": identical == compared,
        "method_mismatches": mismatched_methods,
        "partial_skipped": partial_skipped,
        "confidence_wins": wins,
        "confidence_ties": ties,
        "confidence_violations": violations,
        "violation_labels": violation_labels,
    }


def run_benchmark(
    seed: int = 0,
    samples: int = 10_000,
    mcmc_chains: int = 4,
    mcmc_steps: int = 1_000,
    doomed_dbs: int = 6,
    doomed_n: int = 20,
    doomed_deadline_s: float = 0.3,
    doomed_depth: int = 12,
    covered_n: int = 800,
    covered_queries: int = 20,
    covered_seed_samples: int = 50_000,
    covered_requested: int = 1_000_000,
    covered_cap: int = 20_000,
) -> Dict[str, object]:
    """Run all three strategies cold + warm and audit the planner.

    Each strategy gets its own private cache per database (built once,
    shared cold -> warm via a fresh engine, exactly the query-cache
    benchmark's session model), so no strategy warms another.
    """
    dbs = databases(
        doomed_dbs=doomed_dbs, doomed_n=doomed_n, covered_n=covered_n
    )
    items = workload(
        doomed_dbs=doomed_dbs,
        doomed_deadline_s=doomed_deadline_s,
        doomed_depth=doomed_depth,
        covered_queries=covered_queries,
        covered_seed_samples=covered_seed_samples,
        covered_requested=covered_requested,
        covered_cap=covered_cap,
    )
    strategy_blocks: Dict[str, Dict[str, object]] = {}
    rows_by_pass: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    for strategy in STRATEGIES:
        caches = {name: ComputationCache() for name in dbs}
        rows_by_pass[strategy] = {}
        block: Dict[str, object] = {}
        for pass_name in ("cold", "warm"):
            engines = {
                name: RankingEngine(
                    records,
                    seed=seed,
                    cache=caches[name],
                    samples=samples,
                    mcmc_chains=mcmc_chains,
                    mcmc_steps=mcmc_steps,
                    planner=strategy == "planner",
                )
                for name, records in dbs.items()
            }
            rows, total = run_pass(engines, items, strategy)
            rows_by_pass[strategy][pass_name] = rows
            block[f"{pass_name}_seconds"] = total
            block[f"{pass_name}_families"] = _family_totals(rows)
            block[f"{pass_name}_methods"] = _method_counts(rows)
        strategy_blocks[strategy] = block

    audits = {
        pass_name: _audit(
            rows_by_pass["planner"][pass_name],
            rows_by_pass["ladder_exact_first"][pass_name],
        )
        for pass_name in ("cold", "warm")
    }
    planner = strategy_blocks["planner"]
    exact_first = strategy_blocks["ladder_exact_first"]
    mc_first = strategy_blocks["ladder_mc_first"]

    def _total(block: Mapping[str, object]) -> float:
        return float(block["cold_seconds"]) + float(block["warm_seconds"])

    return {
        "unit": "seconds",
        "workload": {
            "queries": len(items),
            "kinds": sorted({item.kind for item in items}),
            "databases": {name: len(records) for name, records in dbs.items()},
            "doomed_deadline_s": float(doomed_deadline_s),
            "covered": {
                "seed_samples": int(covered_seed_samples),
                "requested": int(covered_requested),
                "cap": int(covered_cap),
            },
        },
        "engine": {
            "seed": int(seed),
            "samples": int(samples),
            "mcmc_chains": int(mcmc_chains),
            "mcmc_steps": int(mcmc_steps),
        },
        "strategies": strategy_blocks,
        "speedup_vs_auto_cold": (
            float(exact_first["cold_seconds"])
            / float(planner["cold_seconds"])
        ),
        "speedup_vs_auto_warm": (
            float(exact_first["warm_seconds"])
            / float(planner["warm_seconds"])
        ),
        "beats_exact_first": _total(planner) < _total(exact_first),
        "beats_mc_first": _total(planner) < _total(mc_first),
        "audits": audits,
        "identity_all": all(a["all_identical"] for a in audits.values()),
        "confidence_violations": sum(
            int(a["confidence_violations"]) for a in audits.values()
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate BENCH_planner.json"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--doomed-dbs", type=int, default=6)
    parser.add_argument("--covered-queries", type=int, default=20)
    parser.add_argument("--deadline", type=float, default=0.3)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    payload = run_benchmark(
        seed=args.seed,
        samples=args.samples,
        doomed_dbs=args.doomed_dbs,
        covered_queries=args.covered_queries,
        doomed_deadline_s=args.deadline,
    )
    # Stamp the same schema-2 envelope benchmarks/emit.py applies (the
    # pytest benchmark writes through emit.write_planner_report; this
    # CLI must not require benchmarks/ on sys.path).
    from .host import BENCH_SCHEMA, host_block

    payload = dict(payload)
    payload["schema"] = BENCH_SCHEMA
    payload["host"] = host_block()
    path = args.out if args.out is not None else REPORT_PATH
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    planner = payload["strategies"]["planner"]
    exact_first = payload["strategies"]["ladder_exact_first"]
    mc_first = payload["strategies"]["ladder_mc_first"]
    print(
        f"{payload['workload']['queries']} queries: "
        f"planner {planner['cold_seconds']:.2f}s cold / "
        f"{planner['warm_seconds']:.2f}s warm, "
        f"exact-first {exact_first['cold_seconds']:.2f}s / "
        f"{exact_first['warm_seconds']:.2f}s, "
        f"mc-first {mc_first['cold_seconds']:.2f}s / "
        f"{mc_first['warm_seconds']:.2f}s "
        f"({payload['speedup_vs_auto_cold']:.1f}x cold vs auto, "
        f"identity={payload['identity_all']}, "
        f"violations={payload['confidence_violations']}) -> {path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
