"""The three benchmark workloads, driven through ``repro``'s public API.

All three are closed loops: a caller sends its next operation only
after the previous one answered.

- ``exact-topk`` (1 caller): 60-record overlapping-interval databases
  from ``serve.lifecycle.synthetic_records``, each with a fresh engine
  (private cache) and five cold queries. The exact piecewise algebra
  and the MCMC state oracle do the work.
- ``mc-scan`` (1 caller): the five paper datasets at 20k records
  (``paper_dataset_suite``), each with a fresh engine and five cold
  Monte-Carlo queries. Sampling and pruning do the work.
- ``serve-mixed`` (2 client connections): an in-process
  ``RankingService`` over ``RankingEngine.from_table(synthetic_table
  (1000))``, queried and mutated over loopback TCP in pinned rounds.

``exact-topk`` and ``mc-scan`` run in *passes*: a pass evaluates every
database of one input set once, and a run measures whole passes. The
``--seed`` picks the input set (an ``exact-topk`` pool or an
``mc-scan`` suite) and its order; the input sets come from
``refs.json``, which ``build_refs.py`` wrote together with the
reference answers of every database in them.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.engine import RankingEngine
from repro.core.metrics import MetricsRegistry
from repro.core.pruning import shrink_database
from repro.datasets.synthetic import paper_dataset_suite
from repro.serve.app import RankingService, ServiceConfig
from repro.serve.lifecycle import synthetic_records, synthetic_table

from answers import canonical, mismatch

#: Engine seed of every workload: answers are pure functions of the
#: database and this seed, which is what makes them checkable.
ENGINE_SEED = 20090329

EXACT_RECORDS = 60
EXACT_MCMC_CHAINS = 4
EXACT_MCMC_STEPS = 1000
#: Monte-Carlo draws of the exact-topk Rank-Agg (the engine default).
EXACT_SAMPLES = 10_000
MC_SUITE_SIZE = 20_000
#: Draws per mc-scan query: a pass then takes about 10 s on the 2-core
#: reference host, so a run measures two passes and its median query
#: latency rests on two samples of every query, not one.
MC_SAMPLES = 5_000
MC_THRESHOLD = 0.3

QueryFn = Callable[[RankingEngine], Any]

#: (name, query, draws behind a sampled answer) per exact-topk database.
EXACT_QUERIES: List[Tuple[str, QueryFn, int]] = [
    ("utop_prefix_3_auto", lambda e: e.utop_prefix(3), 0),
    ("utop_set_3_exact", lambda e: e.utop_set(3, method="exact"), 0),
    ("utop_rank_1_3_exact", lambda e: e.utop_rank(1, 3, method="exact"), 0),
    (
        "utop_prefix_4_mcmc",
        lambda e: e.utop_prefix(4, method="mcmc"),
        EXACT_MCMC_CHAINS * EXACT_MCMC_STEPS,
    ),
    ("rank_agg", lambda e: e.rank_aggregation(), EXACT_SAMPLES),
]

#: The same per mc-scan dataset. The last query repeats the first at
#: twice the samples, which tops up the cached rank-count block.
MC_QUERIES: List[Tuple[str, QueryFn, int]] = [
    (
        "utop_rank_1_10",
        lambda e: e.utop_rank(1, 10, method="montecarlo"),
        MC_SAMPLES,
    ),
    (
        "utop_prefix_5",
        lambda e: e.utop_prefix(5, method="montecarlo"),
        MC_SAMPLES,
    ),
    ("utop_set_5", lambda e: e.utop_set(5, method="montecarlo"), MC_SAMPLES),
    (
        "threshold_10_0.3",
        lambda e: e.threshold_topk(10, MC_THRESHOLD, method="montecarlo"),
        MC_SAMPLES,
    ),
    (
        "utop_rank_1_10_x2",
        lambda e: e.utop_rank(
            1, 10, method="montecarlo", samples=2 * MC_SAMPLES
        ),
        2 * MC_SAMPLES,
    ),
]


@dataclass
class Op:
    """One completed operation of the closed loop."""

    kind: str  # "query" or "mutate"
    name: str
    latency_s: float
    ok: bool
    degraded: bool = False
    planner_skips: int = 0
    error: str = ""


def _planner_skips(events: List[Any]) -> int:
    return sum(
        1
        for event in events
        if event["action"] == "skipped"
        and str(event["reason"]).startswith("planner:")
    )


# ----------------------------------------------------------------------
# pass-based workloads: exact-topk and mc-scan
# ----------------------------------------------------------------------


@dataclass
class Unit:
    """One database of a pass: its reference key and its records."""

    key: str
    records: List[Any]


class PassWorkload:
    """A workload whose inputs are a list of databases, run in passes."""

    name = ""
    queries: List[Tuple[str, QueryFn, int]] = []

    def __init__(self, refs: Dict[str, Any]) -> None:
        self.refs = refs[self.name]

    def generate(self, seed: int) -> List[Unit]:
        raise NotImplementedError

    def engine(self, records: List[Any]) -> RankingEngine:
        raise NotImplementedError

    def build(self, units: List[Unit]) -> List[RankingEngine]:
        """Fresh engines, each with a private cache and registry."""
        return [self.engine(unit.records) for unit in units]

    def release(self, engines: List[RankingEngine]) -> None:
        for engine in engines:
            engine.close()

    def run_unit(self, unit: Unit, engine: RankingEngine) -> List[Op]:
        """Every query on one database, each checked against its reference."""
        ops: List[Op] = []
        expected = self.refs["answers"][unit.key]
        for name, query, _ in self.queries:
            started = time.perf_counter()
            try:
                result = query(engine)
            except Exception as exc:  # a failed op is counted, not fatal
                ops.append(
                    Op(
                        "query",
                        name,
                        time.perf_counter() - started,
                        ok=False,
                        error=f"{unit.key}/{name}: {exc!r}",
                    )
                )
                continue
            latency = time.perf_counter() - started
            problem = mismatch(canonical(result), expected[name])
            events = [
                {"action": e.action, "reason": e.reason}
                for e in result.degradation
            ]
            ops.append(
                Op(
                    "query",
                    name,
                    latency,
                    ok=problem is None,
                    degraded=bool(events) or result.partial,
                    planner_skips=_planner_skips(events),
                    error=(
                        "" if problem is None
                        else f"{unit.key}/{name}: {problem}"
                    ),
                )
            )
        return ops

    def serialize(self, units: List[Unit]) -> bytes:
        """Canonical bytes of generated inputs (for the seed self-test)."""
        rows = [
            [unit.key]
            + [
                [rec.record_id, repr(rec.score), rec.lower, rec.upper]
                for rec in unit.records
            ]
            for unit in units
        ]
        return json.dumps(rows).encode("utf-8")


class ExactTopK(PassWorkload):
    """Pools of 60-record databases; five cold queries each."""

    name = "exact-topk"
    queries = EXACT_QUERIES

    def generate(self, seed: int) -> List[Unit]:
        rng = np.random.default_rng(seed)
        pools = self.refs["pools"]
        pool = pools[int(rng.integers(len(pools)))]
        order = rng.permutation(len(pool))
        return [
            Unit(
                str(pool[i]),
                synthetic_records(EXACT_RECORDS, seed=int(pool[i])),
            )
            for i in order
        ]

    def engine(self, records: List[Any]) -> RankingEngine:
        return RankingEngine(
            records,
            seed=ENGINE_SEED,
            mcmc_chains=EXACT_MCMC_CHAINS,
            mcmc_steps=EXACT_MCMC_STEPS,
            samples=EXACT_SAMPLES,
            metrics=MetricsRegistry(),
        )


class MCScan(PassWorkload):
    """The five paper datasets of one suite; five cold queries each."""

    name = "mc-scan"
    queries = MC_QUERIES

    def generate(self, seed: int) -> List[Unit]:
        rng = np.random.default_rng(seed)
        suites = self.refs["suites"]
        suite_seed = int(suites[int(rng.integers(len(suites)))])
        datasets = paper_dataset_suite(size=MC_SUITE_SIZE, seed=suite_seed)
        names = sorted(datasets)
        return [
            Unit(f"{suite_seed}/{names[i]}", datasets[names[i]])
            for i in rng.permutation(len(names))
        ]

    def engine(self, records: List[Any]) -> RankingEngine:
        return RankingEngine(
            records,
            seed=ENGINE_SEED,
            samples=MC_SAMPLES,
            metrics=MetricsRegistry(),
        )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

SERVE_RECORDS = 1000
SERVE_CLIENTS = 2
#: The four-spec query pool. Both clients send the same spec in each
#: phase, so concurrent duplicates reach the coalescer.
SERVE_SPECS: List[Dict[str, Any]] = [
    {"kind": "utop_rank", "i": 1, "j": 5},
    {"kind": "utop_prefix", "k": 3},
    {"kind": "utop_set", "k": 3},
    {"kind": "threshold_topk", "k": 5, "threshold": 0.3},
]
#: Level whose pruned records the "hot" edits touch (the prefix/set k).
SERVE_HOT_LEVEL = 3
SERVICE_CONFIG = ServiceConfig(
    deadline_ms=2000.0,
    max_concurrency=SERVE_CLIENTS,
    max_queue=4 * SERVE_CLIENTS,
    # A tripped breaker would pin later queries to the baseline and
    # change the mix mid-run; keep it closed.
    breaker_threshold=1_000_000,
)
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Round:
    """One pinned round: a hot edit, four query phases, a tail edit.

    The hot edit shifts a record of the level-3 pruned set, so every
    pruned fingerprint changes and the planner re-sizes the prefix
    space; the tail edit shifts a record outside it, so only the table
    refresh runs. No edit is in flight with a read.
    """

    hot: Dict[str, Any]
    phases: List[Dict[str, Any]]
    tail: Dict[str, Any]


@dataclass
class ServeInputs:
    rows: List[Dict[str, Any]]
    rounds: List[Round]


def _edit(row: Dict[str, Any], shift: float) -> Dict[str, Any]:
    low, high = row["score"]
    return {
        "update": [
            {
                "key": row["id"],
                "column": "score",
                "value": [low + shift, high + shift],
            }
        ]
    }


class ServeMixed:
    """Reads and single-row writes against a live service."""

    name = "serve-mixed"

    #: Rounds scripted per run; a run stops at its time limit first.
    max_rounds = 400

    def generate(self, seed: int) -> ServeInputs:
        table, scoring = synthetic_table(SERVE_RECORDS)
        rows = [
            {"id": row["id"], "score": row["score"].bounds}
            for row in table.rows
        ]
        records = table.to_records(scoring)
        hot_ids = {
            rec.record_id
            for rec in shrink_database(records, SERVE_HOT_LEVEL).kept
        }
        hot = [row for row in rows if row["id"] in hot_ids]
        tail = [row for row in rows if row["id"] not in hot_ids]
        rng = np.random.default_rng(seed)
        rounds = []
        for _ in range(self.max_rounds):
            # Shifts of a few thousandths keep the dominance structure,
            # so every hot edit costs about the same re-sizing work.
            hot_row = hot[int(rng.integers(len(hot)))]
            tail_row = tail[int(rng.integers(len(tail)))]
            phases = [SERVE_SPECS[i] for i in rng.permutation(len(SERVE_SPECS))]
            rounds.append(
                Round(
                    hot=_edit(hot_row, float(rng.uniform(0.001, 0.005))),
                    phases=phases,
                    tail=_edit(tail_row, float(rng.uniform(0.001, 0.005))),
                )
            )
        return ServeInputs(rows=rows, rounds=rounds)

    def serialize(self, inputs: ServeInputs) -> bytes:
        payload = {
            "rows": [[r["id"], list(r["score"])] for r in inputs.rows],
            "rounds": [
                [r.hot, r.phases, r.tail] for r in inputs.rounds
            ],
        }
        return json.dumps(payload).encode("utf-8")

    def build(self, inputs: ServeInputs) -> "Service":
        """A fresh service; ``inputs`` script the traffic, not the table."""
        return Service()

    def release(self, service: "Service") -> None:
        service.close()

    def clients(self) -> ThreadPoolExecutor:
        """The client connections' threads, one per connection."""
        return ThreadPoolExecutor(
            max_workers=SERVE_CLIENTS, thread_name_prefix="bench-client"
        )

    def run_round(
        self, service: "Service", round_: Round, clients: ThreadPoolExecutor
    ) -> List[Op]:
        """One round; each phase waits for both clients' replies."""
        ops = [service.mutate(round_.hot)]
        for spec in round_.phases:
            futures = [
                clients.submit(service.query, spec)
                for _ in range(SERVE_CLIENTS)
            ]
            ops.extend(f.result() for f in futures)
        ops.append(service.mutate(round_.tail))
        return ops


class Service:
    """A started ``RankingService`` on its own event-loop thread."""

    def __init__(self) -> None:
        table, scoring = synthetic_table(SERVE_RECORDS)
        self.engine = RankingEngine.from_table(
            table, scoring, seed=ENGINE_SEED, metrics=MetricsRegistry()
        )
        self.service = RankingService(self.engine, SERVICE_CONFIG)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="bench-service", daemon=True
        )
        self.thread.start()
        self.port = asyncio.run_coroutine_threadsafe(
            self.service.start("127.0.0.1", 0), self.loop
        ).result(REQUEST_TIMEOUT_S)

    def _post(self, path: str, body: Dict[str, Any]) -> Tuple[int, Any, float]:
        payload = json.dumps(body).encode("utf-8")
        started = time.perf_counter()
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request(
                "POST",
                path,
                body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        latency = time.perf_counter() - started
        return response.status, json.loads(data), latency

    def query(self, spec: Dict[str, Any]) -> Op:
        name = spec["kind"]
        try:
            status, reply, latency = self._post("/query", spec)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return Op("query", name, 0.0, ok=False, error=repr(exc))
        if status != 200:
            return Op(
                "query", name, latency, ok=False, error=f"status {status}"
            )
        result, serve = reply["result"], reply["serve"]
        problem = ""
        if not result["answers"]:
            problem = f"empty answer to {spec}"
        elif serve["overrun"]:
            problem = f"overrun on {spec}"
        return Op(
            "query",
            name,
            latency,
            ok=not problem,
            degraded=bool(serve["degraded"]),
            planner_skips=_planner_skips(result["degradation"]),
            error=problem,
        )

    def mutate(self, body: Dict[str, Any]) -> Op:
        try:
            status, reply, latency = self._post("/mutate", body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return Op("mutate", "mutate", 0.0, ok=False, error=repr(exc))
        if status != 200 or not reply.get("changed"):
            return Op(
                "mutate",
                "mutate",
                latency,
                ok=False,
                error=f"status {status}, reply {str(reply)[:200]}",
            )
        return Op("mutate", "mutate", latency, ok=True)

    def close(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self.loop
            ).result(REQUEST_TIMEOUT_S)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(REQUEST_TIMEOUT_S)
            self.loop.close()
