"""Regenerate ``refs.json``: input pools and their reference answers.

Run once from the repository root, on the code the answers should pin::

    python3 perfbench/build_refs.py

It rebuilds both workloads' pools and references in one go, so every
reference comes from the same code, and it checks that the answers it
times pass against the references it wrote.

``exact-topk`` databases are ``synthetic_records(60, seed=s)`` for the
first seeds ``s`` of one database *shape*: k=3 and k=4 pruned sets of 9
records each (about the paper's "prunes to about 10 records"), with 338
distinct 3-prefixes and 1728 distinct 4-prefixes -- the commonest such
shape. Within a shape the exact queries cost nearly the same on every
database, so a pool's figures do not hinge on which databases it drew;
the MCMC walk's cost still varies with how many states it visits. The
databases are timed while their answers are recorded, sorted by that
time into strata of ``POOLS`` consecutive databases, and dealt one per
stratum into the ``POOLS`` pools, so every pool carries about the same
work.

``mc-scan`` suites are ``paper_dataset_suite(20000, seed=s)`` for
``SUITE_SEEDS``.

Each query's reference entry is built as ``answers.py`` describes: the
exact answers as computed; for the MCMC UTop-Prefix, the most probable
prefixes by exact evaluation on a fresh engine; for the Monte-Carlo
1-UTop queries, the leading ``CANDIDATES`` answers of the same query
sequence on a fresh engine with the same seed; for the threshold query,
every record that reaches half the threshold.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core.linext import count_prefixes  # noqa: E402
from repro.core.ppo import ProbabilisticPartialOrder  # noqa: E402
from repro.core.pruning import shrink_database  # noqa: E402
from repro.datasets.synthetic import paper_dataset_suite  # noqa: E402
from repro.serve.lifecycle import synthetic_records  # noqa: E402

import workloads  # noqa: E402
from answers import (  # noqa: E402
    CANDIDATES,
    REFS_PATH,
    canonical,
    distance_entry,
    exact_entry,
    mismatch,
    oracle_entry,
    threshold_entry,
    top_entry,
)

POOLS = 6
POOL_SIZE = 10
#: (k=3 pruned size, k=4 pruned size, 3-prefixes, 4-prefixes).
SHAPE = (9, 9, 338, 1728)
SUITE_SEEDS = [20090107, 20090117, 20090127, 20090137]


def shape(seed: int) -> tuple:
    records = synthetic_records(workloads.EXACT_RECORDS, seed=seed)
    k3 = shrink_database(records, 3).kept
    k4 = shrink_database(records, 4).kept
    if len(k3) != 9 or len(k4) != 9:
        return ()
    return (
        len(k3),
        len(k4),
        count_prefixes(ProbabilisticPartialOrder(k3), 3),
        count_prefixes(ProbabilisticPartialOrder(k4), 4),
    )


def timed_answers(workload, records):
    """Each benchmark query's canonical answer on a fresh engine, and
    the seconds they took together."""
    engine = workload.engine(records)
    started = time.perf_counter()
    answers = {
        name: canonical(query(engine)) for name, query, _ in workload.queries
    }
    took = time.perf_counter() - started
    engine.close()
    return answers, took


def exact_entries(workload, records, answers):
    samples = {name: draws for name, _, draws in workload.queries}
    engine = workload.engine(records)
    candidates = canonical(
        engine.utop_prefix(4, l=CANDIDATES, method="exact")
    )
    engine.close()
    return {
        "utop_prefix_3_auto": exact_entry(answers["utop_prefix_3_auto"]),
        "utop_set_3_exact": exact_entry(answers["utop_set_3_exact"]),
        "utop_rank_1_3_exact": exact_entry(answers["utop_rank_1_3_exact"]),
        "utop_prefix_4_mcmc": oracle_entry("mcmc", candidates),
        "rank_agg": distance_entry(
            answers["rank_agg"], samples["rank_agg"], len(records)
        ),
    }


def mc_entries(workload, records, answers):
    """The benchmark's query sequence again, with more answers each."""
    mc, samples = "montecarlo", workloads.MC_SAMPLES
    floor = workloads.MC_THRESHOLD / 2.0
    engine = workload.engine(records)
    entries = {
        "utop_rank_1_10": top_entry(
            canonical(engine.utop_rank(1, 10, l=CANDIDATES, method=mc)),
            samples,
        ),
        "utop_prefix_5": top_entry(
            canonical(engine.utop_prefix(5, l=CANDIDATES, method=mc)),
            samples,
        ),
        "utop_set_5": top_entry(
            canonical(engine.utop_set(5, l=CANDIDATES, method=mc)), samples
        ),
        "threshold_10_0.3": threshold_entry(
            canonical(engine.threshold_topk(10, floor, method=mc)),
            samples,
            workloads.MC_THRESHOLD,
            floor,
        ),
        "utop_rank_1_10_x2": top_entry(
            canonical(
                engine.utop_rank(
                    1, 10, l=CANDIDATES, method=mc, samples=2 * samples
                )
            ),
            2 * samples,
        ),
    }
    engine.close()
    return entries


def reference(workload, records, entries_of):
    """Checked reference entries of one database, and the seconds its
    benchmark queries took."""
    answers, took = timed_answers(workload, records)
    entries = entries_of(workload, records, answers)
    for name, answer in answers.items():
        problem = mismatch(answer, entries[name])
        if problem:
            raise SystemExit(f"reference {name} fails its own check: {problem}")
    return entries, took


def build_exact() -> dict:
    workload = workloads.ExactTopK({"exact-topk": {}})
    seeds = []
    candidate = 1
    while len(seeds) < POOLS * POOL_SIZE:
        if shape(candidate) == SHAPE:
            seeds.append(candidate)
        candidate += 1
    answers, cost = {}, {}
    for seed in seeds:
        records = synthetic_records(workloads.EXACT_RECORDS, seed=seed)
        answers[str(seed)], cost[seed] = reference(
            workload, records, exact_entries
        )
        print(f"exact-topk db {seed}: {cost[seed]:.2f}s", file=sys.stderr)
    ranked = sorted(seeds, key=lambda s: cost[s])
    pools = [[] for _ in range(POOLS)]
    for stratum in range(POOL_SIZE):
        block = ranked[stratum * POOLS : (stratum + 1) * POOLS]
        if stratum % 2:
            block.reverse()
        for pool, seed in zip(pools, block):
            pool.append(seed)
    for pool in pools:
        print(
            f"pool {pool}: {sum(cost[s] for s in pool):.1f}s",
            file=sys.stderr,
        )
    return {"pools": pools, "answers": answers}


def build_mc() -> dict:
    workload = workloads.MCScan({"mc-scan": {}})
    answers = {}
    for suite_seed in SUITE_SEEDS:
        suite = paper_dataset_suite(
            size=workloads.MC_SUITE_SIZE, seed=suite_seed
        )
        total = 0.0
        for name, records in sorted(suite.items()):
            key = f"{suite_seed}/{name}"
            answers[key], took = reference(workload, records, mc_entries)
            total += took
        print(f"mc-scan suite {suite_seed}: {total:.1f}s", file=sys.stderr)
    return {"suites": SUITE_SEEDS, "answers": answers}


def main() -> int:
    refs = {"exact-topk": build_exact(), "mc-scan": build_mc()}
    with open(REFS_PATH, "w", encoding="utf-8") as out:
        json.dump(refs, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
