"""Runtime determinism sanitizer (``python -m repro.lint.sanitize``).

The static cross-module rules (:mod:`repro.lint.crossmodule`) prove
properties of the *code*; this module checks the property the project
actually promises: **query answers are a pure function of (records,
seeds, query args)** — independent of thread scheduling, worker count,
and cache temperature. It replays a seeded mixed-query workload

- ``--repeats`` times under *thread-scheduling perturbation* (the span
  start hook in :mod:`repro.core.trace` injects pseudo-random
  microsecond sleeps at span boundaries — the natural preemption points
  between evaluation stages — which reorders worker interleavings
  without touching any engine code path);
- across a worker grid (default 1/2/4) so sharded backends and MCMC
  chain pools run both serial and concurrent;
- across an execution-backend grid (default threads only; the CLI's
  ``--backend`` flag defaults to ``thread,process``) so MCMC chains
  run in worker processes are held to the same byte-for-byte contract
  as chains on threads (sampling always runs on threads);
- twice per engine, so the second pass answers from a warm
  :class:`~repro.core.cache.ComputationCache`;
- across a planner grid (the CLI's ``--planner`` flag defaults to
  ``on,off``) asserting the cost-model planner changes nothing about
  unbudgeted answers: planning on must be byte-identical to the purely
  reactive static ladder (the planner's per-result ``plan`` diagnostic
  block is stripped before comparison — it is the one field that only
  exists on the planning side);
- across a mutation grid (the CLI's ``--mutate`` flag defaults to
  ``off,on``) asserting delta-aware incremental maintenance is
  answer-invisible: the ``on`` cells build the engine over an
  :class:`~repro.db.table.UncertainTable` whose initial content is
  *stale* (two perturbed rows plus two extras), then commit one
  ``table.mutate()`` batch restoring the canonical content, so every
  query runs through ``changes_since`` delta consumption and
  :meth:`~repro.core.cache.ComputationCache.migrate` — and must still
  be byte-identical to the direct-records baseline;

and diffs every :meth:`~repro.core.queries.QueryResult.canonical`
rendition against the unperturbed serial baseline **byte-for-byte**
(the wall-clock, cache-delta, trace, and planner-plan fields are
stripped — everything else, including diagnostics and float bit
patterns, must match).

On divergence the report names the query, the first differing JSON
path, and — because every engine runs with tracing on — the deepest
span at which the two executions' span trees structurally disagree,
which localizes the nondeterminism to an evaluation stage.

The workload deliberately carries **no budgets**: budget clipping is
wall-clock driven and therefore legitimately schedule-dependent; the
sanitizer checks the deterministic contract, not the degradation
ladder.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import RankingEngine, certain, uniform
from repro.core.queries import Query
from repro.core.records import UncertainRecord
from repro.core.trace import set_span_start_hook

__all__ = [
    "DEFAULT_BACKEND_GRID",
    "DEFAULT_MUTATE_GRID",
    "DEFAULT_PLANNER_GRID",
    "DEFAULT_WORKER_GRID",
    "Divergence",
    "SanitizerReport",
    "SpanJitter",
    "build_mutation_scenario",
    "build_records",
    "build_workload",
    "run_sanitizer",
]

_MASK64 = (1 << 64) - 1
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407

#: Worker settings exercised per repeat: serial, small pool, wide pool.
DEFAULT_WORKER_GRID: Tuple[int, ...] = (1, 2, 4)

#: Execution backends exercised per repeat. The library default keeps
#: tier-1 runs fast (thread pools only); the sanitizer CLI widens this
#: to ``thread,process`` so release checks cover MCMC chains run in
#: worker processes, the one place the process backend applies.
DEFAULT_BACKEND_GRID: Tuple[str, ...] = ("thread",)

#: Planner settings exercised per repeat. The library default keeps
#: tier-1 runs fast (planning on, the engine default); the sanitizer
#: CLI widens this to ``on,off`` so release checks assert planning
#: changes nothing about unbudgeted answers.
DEFAULT_PLANNER_GRID: Tuple[str, ...] = ("on",)

#: Mutation settings exercised per repeat. The library default keeps
#: tier-1 runs fast (direct records only); the sanitizer CLI widens
#: this to ``off,on`` so release checks assert delta-aware incremental
#: maintenance never changes an answer.
DEFAULT_MUTATE_GRID: Tuple[str, ...] = ("off",)

def _lcg(state: int) -> int:
    return (state * _LCG_MUL + _LCG_INC) & _MASK64


class SpanJitter:
    """Span-start hook injecting pseudo-random scheduling sleeps.

    Uses a lock-protected 64-bit LCG rather than :mod:`random` so the
    jitter stream is self-contained and the hook is safe to call from
    any worker thread. The *sleep amounts* are deterministic per seed,
    but which thread draws which amount depends on arrival order —
    exactly the scheduling perturbation we want.
    """

    def __init__(self, seed: int, max_us: int) -> None:
        self._state = _lcg((seed << 1) | 1)
        self._lock = threading.Lock()
        self.max_us = max(0, int(max_us))
        self.calls = 0

    def __call__(self, span: Any) -> None:
        if self.max_us == 0:
            return
        with self._lock:
            self._state = _lcg(self._state)
            draw = self._state >> 33
            self.calls += 1
        time.sleep((draw % (self.max_us + 1)) / 1e6)


def build_records(count: int = 12) -> List[UncertainRecord]:
    """A deterministic mixed database of ``count`` records.

    Interval bounds are generated arithmetically (no RNG involved) so
    the workload is a function of ``count`` alone. Every third record
    is certain; the rest carry overlapping uniform intervals so the
    partial order has real uncertainty to rank under.
    """
    if count < 4:
        raise ValueError("the workload needs at least 4 records")
    records: List[UncertainRecord] = []
    for i in range(count):
        rid = f"t{i:02d}"
        lo = float((i * 37) % 50) / 10.0
        if i % 3 == 2:
            records.append(certain(rid, lo))
        else:
            width = 0.5 + float((i * 13) % 7) / 2.0
            records.append(uniform(rid, lo, lo + width))
    return records


#: Attribute domain used by the mutation-axis scoring function. The
#: power-of-two span makes ``AttributeScore.score_value`` the exact
#: identity on the workload's values (``16 * v / 16 == v`` bit-for-bit
#: in IEEE doubles), so the table path produces distributions that are
#: byte-identical to :func:`build_records`' direct constructors.
_MUTATE_DOMAIN: Tuple[float, float] = (0.0, 16.0)


def _canonical_cell(index: int) -> object:
    """The table cell whose scored distribution matches record ``index``."""
    lo = float((index * 37) % 50) / 10.0
    if index % 3 == 2:
        return lo
    width = 0.5 + float((index * 13) % 7) / 2.0
    return (lo, lo + width)


def build_mutation_scenario(count: int = 12) -> Tuple[Any, Any, Any]:
    """A stale table, its scoring rule, and the restoring mutation.

    Returns ``(table, scoring, restore)``. The table's *initial* rows
    deliberately disagree with :func:`build_records`: rows 1 and 2 (one
    interval, one certain) are perturbed and two extra rows are
    appended. Calling ``restore()`` commits a single ``table.mutate()``
    batch — two deletes plus two replaces — after which the scored
    records equal ``build_records(count)`` exactly, so an engine built
    over the stale table and mutated back must answer byte-identically
    to the direct-records baseline while exercising the delta
    consumption and cache-migration paths.
    """
    from repro.db.scoring import AttributeScore
    from repro.db.table import UncertainTable

    if count < 4:
        raise ValueError("the mutation scenario needs at least 4 records")
    rows: List[Dict[str, object]] = []
    for i in range(count):
        rows.append({"id": f"t{i:02d}", "score": _canonical_cell(i)})
    # Perturb one interval row and one certain row, and append extras
    # the restoring batch will delete.
    rows[1] = {"id": "t01", "score": (0.25, 6.25)}
    rows[2] = {"id": "t02", "score": 1.25}
    rows.append({"id": "zx98", "score": (0.5, 2.5)})
    rows.append({"id": "zx99", "score": 3.25})
    table = UncertainTable("sanitizer", ["id", "score"], rows)
    scoring = AttributeScore(
        "score", _MUTATE_DOMAIN, scale=_MUTATE_DOMAIN[1]
    )

    def restore() -> None:
        with table.mutate() as batch:
            batch.delete("zx98")
            batch.delete("zx99")
            batch.replace({"id": "t01", "score": _canonical_cell(1)})
            batch.replace({"id": "t02", "score": _canonical_cell(2)})

    return table, scoring, restore


def build_workload(k: int = 3) -> List[Query]:
    """The mixed-query workload: every kind, every non-baseline method.

    Both TOP-k kinds run exact, MCMC and Monte-Carlo, so every branch
    of the shared top-k evaluator is under every axis. Each stochastic
    query pins an explicit ``seed`` so answers are addressable across
    engines built with different worker settings.
    """
    return [
        Query(kind="utop_rank", i=1, j=2, l=2, method="exact"),
        Query(kind="utop_rank", i=1, j=k, l=2, method="montecarlo", seed=11),
        Query(kind="utop_prefix", k=k, l=2, method="exact"),
        Query(kind="utop_prefix", k=k, l=2, method="montecarlo", seed=12),
        Query(kind="utop_prefix", k=k, l=2, method="mcmc", seed=13),
        Query(kind="utop_set", k=k, l=2, method="exact"),
        Query(kind="utop_set", k=k, l=2, method="montecarlo", seed=14),
        Query(kind="utop_set", k=k, l=2, method="mcmc", seed=17),
        Query(kind="rank_aggregation", method="montecarlo", seed=15),
        Query(
            kind="threshold_topk",
            k=k,
            threshold=0.05,
            method="auto",
            seed=16,
        ),
    ]


def _json_default(value: Any) -> Any:
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def encode_canonical(data: Dict[str, Any]) -> bytes:
    """Canonical bytes for the byte-for-byte comparison."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode("utf-8")


def _diff_path(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """First JSON path at which two canonical values differ."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            sub = _diff_path(a[key], b[key], f"{path}.{key}")
            if sub is not None:
                return sub
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}.length"
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            sub = _diff_path(item_a, item_b, f"{path}[{index}]")
            if sub is not None:
                return sub
        return None
    if a != b:
        return path
    return None


def _span_skeleton(node: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Structure-only view of a span tree: names and child shapes."""
    if not node:
        return None
    return {
        "name": node.get("name"),
        "children": [
            _span_skeleton(child) for child in node.get("children") or []
        ],
    }


def _deepest_span_divergence(
    a: Optional[Dict[str, Any]],
    b: Optional[Dict[str, Any]],
    path: str = "",
) -> Optional[str]:
    """Deepest span path where two trace skeletons disagree."""
    if a is None and b is None:
        return None
    if a is None or b is None:
        return path or "<root>"
    here = f"{path}/{a.get('name')}" if path else str(a.get("name"))
    if a.get("name") != b.get("name"):
        return here
    children_a = a.get("children") or []
    children_b = b.get("children") or []
    deepest: Optional[str] = None
    for child_a, child_b in zip(children_a, children_b):
        sub = _deepest_span_divergence(child_a, child_b, here)
        if sub is not None:
            deepest = sub
    if deepest is not None:
        return deepest
    if len(children_a) != len(children_b):
        return here
    return None


@dataclass(frozen=True)
class Divergence:
    """One detected mismatch against the baseline execution."""

    label: str
    query_index: int
    query_kind: str
    json_path: str
    span_path: Optional[str]

    def describe(self) -> str:
        where = (
            f" (deepest differing span: {self.span_path})"
            if self.span_path
            else ""
        )
        return (
            f"{self.label}: query #{self.query_index} "
            f"[{self.query_kind}] diverged at {self.json_path}{where}"
        )


@dataclass
class SanitizerReport:
    """Aggregate outcome of one sanitizer run."""

    repeats: int
    worker_grid: Tuple[int, ...]
    queries: int
    backend_grid: Tuple[str, ...] = DEFAULT_BACKEND_GRID
    planner_grid: Tuple[str, ...] = DEFAULT_PLANNER_GRID
    mutate_grid: Tuple[str, ...] = DEFAULT_MUTATE_GRID
    runs: int = 0
    comparisons: int = 0
    jitter_calls: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "repeats": self.repeats,
            "worker_grid": list(self.worker_grid),
            "backend_grid": list(self.backend_grid),
            "planner_grid": list(self.planner_grid),
            "mutate_grid": list(self.mutate_grid),
            "queries": self.queries,
            "runs": self.runs,
            "comparisons": self.comparisons,
            "jitter_calls": self.jitter_calls,
            "divergences": [
                {
                    "label": d.label,
                    "query_index": d.query_index,
                    "query_kind": d.query_kind,
                    "json_path": d.json_path,
                    "span_path": d.span_path,
                }
                for d in self.divergences
            ],
        }

    def render(self) -> str:
        lines = [
            f"determinism sanitizer: {self.runs} run(s), "
            f"{self.comparisons} comparison(s) over {self.queries} "
            f"queries, workers={'/'.join(map(str, self.worker_grid))}, "
            f"backends={'/'.join(self.backend_grid)}, "
            f"planner={'/'.join(self.planner_grid)}, "
            f"mutate={'/'.join(self.mutate_grid)}, "
            f"repeats={self.repeats}, "
            f"{self.jitter_calls} jitter sleep(s) injected"
        ]
        if self.ok:
            lines.append("all results byte-identical to the baseline")
        else:
            lines.append(f"{len(self.divergences)} divergence(s):")
            lines.extend("  " + d.describe() for d in self.divergences)
        return "\n".join(lines)


@dataclass
class _Execution:
    """One engine pass over the workload: canonical dicts + traces."""

    label: str
    canonical: List[Dict[str, Any]]
    encoded: List[bytes]
    traces: List[Optional[Dict[str, Any]]]


def _execute(
    label: str,
    records: Sequence[UncertainRecord],
    queries: Sequence[Query],
    *,
    workers: int,
    backend: str,
    samples: int,
    mcmc_steps: int,
    mcmc_chains: int,
    engine_seed: int,
    planner: bool = True,
    mutate: bool = False,
) -> Tuple[_Execution, _Execution]:
    """Run the workload cold then warm on one freshly built engine.

    With ``mutate=True`` the engine is built over the stale table from
    :func:`build_mutation_scenario` and the restoring mutation batch is
    committed *before* the first query, so the cold pass consumes the
    table delta (and migrates surviving cache artifacts) on its way to
    what must be the byte-identical canonical answer.
    """
    if mutate:
        table, scoring, restore = build_mutation_scenario(len(records))
        engine = RankingEngine.from_table(
            table,
            scoring,
            seed=engine_seed,
            workers=workers,
            backend=backend,
            samples=samples,
            mcmc_chains=mcmc_chains,
            mcmc_steps=mcmc_steps,
            trace=True,
            planner=planner,
        )
        restore()
    else:
        engine = RankingEngine(
            records,
            seed=engine_seed,
            workers=workers,
            backend=backend,
            samples=samples,
            mcmc_chains=mcmc_chains,
            mcmc_steps=mcmc_steps,
            trace=True,
            planner=planner,
        )
    try:
        passes: List[_Execution] = []
        for temperature in ("cold", "warm"):
            canonical: List[Dict[str, Any]] = []
            encoded: List[bytes] = []
            traces: List[Optional[Dict[str, Any]]] = []
            for query in queries:
                result = engine.query(query)
                data = result.canonical()
                canonical.append(data)
                encoded.append(encode_canonical(data))
                traces.append(
                    _span_skeleton(
                        result.trace.to_dict() if result.trace else None
                    )
                )
            passes.append(
                _Execution(
                    f"{label} {temperature}", canonical, encoded, traces
                )
            )
    finally:
        # Release sampler thread pools before the next grid cell; the
        # matrix builds dozens of engines.
        engine.close()
    return passes[0], passes[1]


def run_sanitizer(
    *,
    repeats: int = 3,
    records: int = 12,
    samples: int = 2000,
    worker_grid: Sequence[int] = DEFAULT_WORKER_GRID,
    backend_grid: Sequence[str] = DEFAULT_BACKEND_GRID,
    planner_grid: Sequence[str] = DEFAULT_PLANNER_GRID,
    mutate_grid: Sequence[str] = DEFAULT_MUTATE_GRID,
    jitter_us: int = 200,
    seed: int = 0,
    mcmc_steps: int = 150,
    mcmc_chains: int = 4,
    k: int = 3,
) -> SanitizerReport:
    """Replay the workload across the perturbation matrix and compare.

    ``repeats`` counts perturbed replays *in addition to* the
    unperturbed baseline (repeat 0 runs with no jitter hook). Every
    (repeat, workers, backend, planner, cache-temperature) cell is
    compared query-by-query against the baseline cell (repeat 0, first
    worker setting, first backend, first planner setting, cold cache).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    grid = tuple(int(w) for w in worker_grid) or DEFAULT_WORKER_GRID
    backends = tuple(backend_grid) or DEFAULT_BACKEND_GRID
    for name in backends:
        if name not in ("thread", "process", "auto"):
            raise ValueError(f"unknown execution backend {name!r}")
    planners = tuple(planner_grid) or DEFAULT_PLANNER_GRID
    for name in planners:
        if name not in ("on", "off"):
            raise ValueError(f"unknown planner setting {name!r}")
    mutates = tuple(mutate_grid) or DEFAULT_MUTATE_GRID
    for name in mutates:
        if name not in ("on", "off"):
            raise ValueError(f"unknown mutate setting {name!r}")
    database = build_records(records)
    queries = build_workload(k=k)
    report = SanitizerReport(
        repeats=repeats,
        worker_grid=grid,
        queries=len(queries),
        backend_grid=backends,
        planner_grid=planners,
        mutate_grid=mutates,
    )

    baseline: Optional[_Execution] = None
    for repeat in range(repeats + 1):
        jitter: Optional[SpanJitter] = None
        if repeat > 0:
            jitter = SpanJitter(
                seed=(seed << 16) | repeat, max_us=jitter_us
            )
        previous = set_span_start_hook(jitter)
        try:
            for workers in grid:
                for backend in backends:
                    for planner_mode in planners:
                        for mutate_mode in mutates:
                            label = (
                                f"repeat={repeat} workers={workers} "
                                f"backend={backend} "
                                f"planner={planner_mode} "
                                f"mutate={mutate_mode}"
                            )
                            cold, warm = _execute(
                                label,
                                database,
                                queries,
                                workers=workers,
                                backend=backend,
                                samples=samples,
                                mcmc_steps=mcmc_steps,
                                mcmc_chains=mcmc_chains,
                                engine_seed=7,
                                planner=planner_mode == "on",
                                mutate=mutate_mode == "on",
                            )
                            report.runs += 1
                            if baseline is None:
                                baseline = cold
                            for execution in (cold, warm):
                                if execution is baseline:
                                    continue
                                _compare(
                                    report, baseline, execution, queries
                                )
        finally:
            set_span_start_hook(previous)
        if jitter is not None:
            report.jitter_calls += jitter.calls
    return report


def _compare(
    report: SanitizerReport,
    baseline: _Execution,
    execution: _Execution,
    queries: Sequence[Query],
) -> None:
    for index, query in enumerate(queries):
        report.comparisons += 1
        if execution.encoded[index] == baseline.encoded[index]:
            continue
        report.divergences.append(
            Divergence(
                label=execution.label,
                query_index=index,
                query_kind=query.kind,
                json_path=_diff_path(
                    baseline.canonical[index], execution.canonical[index]
                )
                or "$",
                span_path=_deepest_span_divergence(
                    baseline.traces[index], execution.traces[index]
                ),
            )
        )
