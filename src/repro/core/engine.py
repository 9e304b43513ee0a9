"""`RankingEngine` — the library's main entry point.

Ties the pieces of the paper together the way its evaluation does:

1. **Prune** the database with k-dominance (Algorithm 2) at the level the
   query allows (``j`` for UTop-Rank(i, j), ``k`` for TOP-k queries;
   rank aggregation needs all ranks and is never pruned).
2. **Pick an evaluation method**: exact (piecewise-polynomial integrals)
   when the densities allow it and the answer space is small enough to
   enumerate; Monte-Carlo integration for RECORD-RANK queries (the
   paper's §VI-C choice); multi-chain MCMC for TOP-k queries over large
   spaces (§VI-D).
3. **Return** typed answers with probabilities and execution metadata.

Every query family funnels through one dispatcher,
:meth:`RankingEngine.query`, which takes a frozen
:class:`~repro.core.queries.Query` spec; the public ``utop_rank`` /
``utop_prefix`` / ``utop_set`` / ``rank_aggregation`` /
``threshold_topk`` methods are thin wrappers that build specs. The
dispatcher owns the cross-cutting bookkeeping — timing, the cache
delta, degradation events, the optional per-query trace
(:mod:`repro.core.trace`), and metrics (:mod:`repro.core.metrics`) —
so it lives in exactly one place.

Example
-------
>>> from repro import uniform, certain
>>> from repro.core.engine import RankingEngine
>>> db = [certain("a1", 9.0), uniform("a2", 5.0, 8.0), certain("a3", 7.0)]
>>> engine = RankingEngine(db, seed=7)
>>> engine.utop_rank(1, 1).top.record_id
'a1'
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .budget import Budget
from .cache import (
    CacheStats,
    ComputationCache,
    MigrationReport,
    fingerprint_records,
    shared_cache,
)
from .errors import EvaluationError, QueryError
from .exact import ExactEvaluator, supports_exact
from .linext import count_prefixes, enumerate_prefixes
from .mcmc import TopKSimulation
from .metrics import MetricsRegistry, global_registry, use_registry
from .montecarlo import (
    MonteCarloEvaluator,
    compile_plan,
    select_top_rank_candidates,
)
from .costmodel import (
    CostModel,
    PlanFeatures,
    overlap_density,
    stage_key,
)
from .numeric import wilson_half_width
from .parallel import (
    DEFAULT_SHARDS,
    PROCESS_CROSSOVER,
    ParallelSampler,
    resolve_workers,
)
from .planner import QueryPlan, QueryPlanner
from .ppo import ProbabilisticPartialOrder
from .pruning import shrink_database
from .queries import (
    DegradationEvent,
    PrefixAnswer,
    Query,
    QueryResult,
    RankAggAnswer,
    RecordAnswer,
    SetAnswer,
)
from .rank_agg import optimal_rank_aggregation
from .records import UncertainRecord
from .trace import Span, activate, span
from .validation import validate_records

__all__ = ["RankingEngine"]

logger = logging.getLogger(__name__)


class _StageSkipped(EvaluationError):
    """A ladder stage declined to run (typically: budget already drained)."""


@dataclass(frozen=True)
class _TopK:
    """What distinguishes UTop-Prefix(k) from UTop-Set(k) (Defs. 5–6).

    Both rank the same k-prefix space of the linear-extension tree; a
    set answer is a prefix answer with the order dropped. Everything
    else — enumeration, budget charging, the ladder — is shared by
    :meth:`RankingEngine._eval_topk`.
    """

    #: Error-message name of the query family.
    label: str
    #: MCMC target and the suffix of the cached artifact kinds.
    target: str
    #: Answer key built from an iterable of record ids.
    key: Callable[[Any], Any]
    #: Deterministic tie-break between equally probable keys.
    tie_break: Callable[[Any], Any]
    #: ``ExactEvaluator`` method scoring one key.
    exact_score: str
    #: Sampler method returning ``{key: frequency}``.
    empirical: str
    #: Answer class the evaluator returns.
    answer: type
    #: What one enumerated candidate is called in budget messages.
    noun: str


_TOPK: Dict[str, _TopK] = {
    "utop_prefix": _TopK(
        label="UTop-Prefix",
        target="prefix",
        key=tuple,
        tie_break=tuple,
        exact_score="prefix_probability",
        empirical="empirical_top_prefixes",
        answer=PrefixAnswer,
        noun="prefix",
    ),
    "utop_set": _TopK(
        label="UTop-Set",
        target="set",
        key=frozenset,
        tie_break=sorted,
        exact_score="top_set_probability",
        empirical="empirical_top_sets",
        answer=SetAnswer,
        noun="candidate set",
    ),
}

#: The ``auto`` degradation ladder per query family, highest fidelity
#: first; ``exact`` is dropped when :meth:`RankingEngine._exact_eligible`
#: says no.
_LADDERS: Dict[str, Tuple[str, ...]] = {
    "utop_rank": ("exact", "montecarlo", "baseline"),
    "utop_prefix": ("exact", "mcmc", "montecarlo", "baseline"),
    "utop_set": ("exact", "mcmc", "montecarlo", "baseline"),
}


@dataclass
class _EvalContext:
    """Mutable per-query state shared between the dispatcher and evaluators.

    Replaces the per-method ``nonlocal`` bookkeeping the wrapper era
    copy-pasted: evaluators record degradation events, partial/truncated
    flags, confidence bounds, and diagnostics here, and
    :meth:`RankingEngine.query` folds the fields into the
    :class:`QueryResult` exactly once.
    """

    budget: Optional[Budget]
    method: str
    sampler_seed: int
    mcmc_seed: int
    backend: str = "thread"
    events: List[DegradationEvent] = field(default_factory=list)
    partial: bool = False
    truncated: bool = False
    half_width: Optional[float] = None
    error_bound: Optional[float] = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    pruned_size: int = 0
    used: str = ""
    # Planner state: the plan built for this query (auto only), the
    # cost model it consulted (for post-run feedback), the sample count
    # a covered-block plan substituted for the request, and per-stage
    # wall seconds measured by _run_stages for the fitting loop.
    plan: Optional[QueryPlan] = None
    plan_model: Optional[CostModel] = None
    plan_samples: Optional[int] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def mark_partial(self, stage: str, reason: str) -> None:
        """Record that ``stage`` returned a partial, best-so-far answer."""
        self.partial = True
        self.events.append(DegradationEvent(stage, "clipped", reason))  # reprolint: disable=CON001 -- a context belongs to one query and only the thread running that query touches it


class RankingEngine:
    """High-level evaluator for ranking queries over uncertain scores.

    Parameters
    ----------
    records:
        The database ``D`` of :class:`UncertainRecord`.
    seed:
        Seed for all randomized evaluation (Monte-Carlo, MCMC). The
        default ``0`` makes every run reproducible out of the box; pass
        ``None`` to opt into OS entropy explicitly.
    prune:
        Whether to apply k-dominance pruning ahead of evaluation.
    exact_record_limit:
        Maximum (pruned) database size for which exact per-rank
        probabilities are computed; larger inputs use Monte-Carlo.
    prefix_enumeration_limit:
        Maximum number of distinct k-prefixes that the exact TOP-k path
        will enumerate; larger spaces switch to MCMC.
    samples:
        Default Monte-Carlo sample count (the paper's experiments use
        10,000).
    mcmc_chains / mcmc_steps / psrf_threshold:
        Multi-chain simulation parameters for TOP-k queries.
    copula:
        Optional :class:`~repro.core.correlation.GaussianCopula` over
        the records (in database order) modelling score correlation.
        When set, evaluation is restricted to the sampling-based methods
        that remain valid without independence: UTop-Rank, rank
        distributions, and rank aggregation run on correlated samples;
        UTop-Prefix/UTop-Set fall back to empirical frequencies
        (``method="montecarlo"``); exact and MCMC paths are refused.
        k-dominance pruning stays sound because dominance is a
        support-containment property that holds on every joint sample.
    workers:
        ``None`` (default) keeps the legacy single-evaluator sampling
        path. Any other value — an integer, ``"auto"``, or even ``1`` —
        switches the Monte-Carlo paths to the sharded
        :class:`~repro.core.parallel.ParallelSampler` and runs MCMC
        chains on that many threads. Because shard streams are derived
        from a fixed shard count, every result is identical for every
        worker count; the knob only changes wall-clock time.
    backend:
        Where sharded sampling work runs when ``workers`` is set:
        ``"thread"`` (default) uses an in-process pool, ``"process"``
        ships the compiled sampling plan to a pool of worker processes
        through shared memory (no pickling per task), and ``"auto"``
        picks processes only when it can pay off — multiple workers, a
        multi-core host, and a database at least
        :data:`~repro.core.parallel.PROCESS_CROSSOVER` records large.
        Results are bit-identical across backends (shard streams are
        derived the same way everywhere); a per-query ``backend=``
        override narrows or widens the choice for one query. A copula
        forces threads — correlated evaluators are built from closures
        that cannot cross a process boundary — and ``"process"`` with a
        copula is refused at construction.
    budget:
        Optional default :class:`~repro.core.budget.Budget` applied to
        every query (a per-query ``budget=`` argument overrides it).
        With a budget in force, ``method="auto"`` degrades along the
        ladder exact → Monte-Carlo → score-median baseline instead of
        raising, recording a :class:`DegradationEvent` per sacrificed
        stage on the result; Monte-Carlo stages return best-so-far
        partial estimates with a Wilson confidence half-width when the
        budget drains mid-run.
    cache:
        The computation cache backing this engine (see
        :mod:`repro.core.cache`). ``None`` (default) gives the engine a
        private cache: every compiled plan, evaluator, pairwise
        integral, and Monte-Carlo sample block is reused across this
        engine's queries, with no coupling to other engines.
        ``"shared"`` joins the process-wide :func:`~repro.core.cache.
        shared_cache`, so engines over content-identical databases
        serve each other's work. Passing a
        :class:`~repro.core.cache.ComputationCache` instance shares
        exactly with whoever else holds it. Answers are unaffected by
        the choice — cached sample blocks reproduce cold runs bit for
        bit — only time and memory change; budgeted queries charge
        their budget only for samples the cache cannot supply.
    trace:
        When ``True``, every query opens a root :class:`~repro.core.
        trace.Span` with child spans per evaluation stage and attaches
        the tree to ``QueryResult.trace``. Off (the default) the span
        helpers are no-ops and answers are byte-identical to untraced
        runs; a per-query ``trace=`` argument overrides this default in
        either direction.
    metrics:
        The :class:`~repro.core.metrics.MetricsRegistry` this engine's
        queries emit into (counters such as ``queries_total`` and
        ``samples_drawn_total``, plus ``query_duration_seconds``
        histograms). ``None`` (default) uses the process-wide
        :func:`~repro.core.metrics.global_registry`; pass a private
        registry for isolated accounting. Metrics are always on — their
        cost is a few dictionary increments per query.
    planner:
        Whether ``method="auto"`` consults the cost-model planner
        (:mod:`repro.core.planner`) before running. ``True`` (default)
        uses a default-tuned :class:`~repro.core.planner.QueryPlanner`;
        pass an instance for custom headroom, or ``False`` for the
        purely reactive ladder. Unbudgeted answers are byte-identical
        either way — without a live budget the planner only annotates;
        under one it skips ladder stages predicted to blow the budget
        (each skip recorded as a :class:`DegradationEvent` with a
        ``planner:`` reason) and may serve a covered rank-count block
        at reduced sample count, flagged partial. Fitted cost
        coefficients live in the computation cache, keyed per database
        fingerprint.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        seed: Optional[int] = 0,
        prune: bool = True,
        exact_record_limit: int = 20,
        prefix_enumeration_limit: int = 20_000,
        samples: int = 10_000,
        mcmc_chains: int = 10,
        mcmc_steps: int = 3_000,
        psrf_threshold: float = 1.05,
        copula=None,
        workers: Union[int, str, None] = None,
        backend: str = "thread",
        budget: Optional[Budget] = None,
        cache: Union[ComputationCache, str, None] = None,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        planner: Union[bool, QueryPlanner] = True,
    ) -> None:
        self._check_database(records, copula)
        if backend not in ("thread", "process", "auto"):
            raise QueryError(f"unknown execution backend {backend!r}")
        if backend == "process" and copula is not None:
            raise QueryError(
                "backend='process' is unavailable with a copula: "
                "correlated evaluators cannot cross a process boundary; "
                "use backend='thread' or 'auto'"
            )
        self.records = list(records)
        self.rng = np.random.default_rng(seed)
        # Resolve eagerly so a bad value fails at construction, not at
        # the first query.
        self.workers: Optional[int] = (
            None if workers is None else resolve_workers(workers)
        )
        self.backend = backend
        # Every ParallelSampler this engine builds, so close() can tear
        # down their pools and shared-memory segments. Samplers re-create
        # resources lazily, so a closed engine (or a sampler shared
        # through a common cache) remains usable — close() only releases
        # what is currently held.
        self._owned_samplers: List[ParallelSampler] = []
        self.prune = prune
        self.exact_record_limit = exact_record_limit
        self.prefix_enumeration_limit = prefix_enumeration_limit
        self.samples = samples
        self.mcmc_chains = mcmc_chains
        self.mcmc_steps = mcmc_steps
        self.psrf_threshold = psrf_threshold
        self.budget = budget
        self.copula = copula
        self.trace = trace
        self._metrics = metrics if metrics is not None else global_registry()
        if isinstance(planner, QueryPlanner):
            self.planner: Optional[QueryPlanner] = planner
        else:
            self.planner = QueryPlanner() if planner else None
        if cache is None:
            self.cache: ComputationCache = ComputationCache()
        elif isinstance(cache, str):
            if cache != "shared":
                raise QueryError(f"unknown cache setting {cache!r}")
            self.cache = shared_cache()
        else:
            self.cache = cache
        # Stable per-engine stream roots, drawn once: queries become
        # pure functions of (records, constructor seed, query args), so
        # their sampled artifacts are addressable across queries — the
        # old per-call rng draws made every call a fresh stream and
        # therefore uncacheable. Two engines with equal seeds still
        # agree, and different seeds still diverge.
        self._sampler_seed = int(self.rng.integers(2**63))
        self._mcmc_seed = int(self.rng.integers(2**63))
        self._db_fp = fingerprint_records(self.records)
        if copula is None:
            self._copula_token: Optional[str] = None
        else:
            digest = hashlib.blake2b(
                np.ascontiguousarray(
                    copula.correlation, dtype=float
                ).tobytes(),
                digest_size=12,
            )
            self._copula_token = digest.hexdigest()
        # from_table() subscription state: when bound to a table, the
        # engine consumes its mutation deltas (changes_since) and
        # re-extracts records whenever a batch committed, migrating
        # delta-surviving cache artifacts (see _refresh_table).
        self._table: Optional[Any] = None
        self._table_scoring: Any = None
        self._table_payload: Optional[List[str]] = None
        self._table_version: Optional[int] = None
        self._refresh_lock = threading.Lock()
        self._last_migration: Optional[MigrationReport] = None

    # ------------------------------------------------------------------
    # construction from a table
    # ------------------------------------------------------------------

    @staticmethod
    def _check_database(records: Sequence[UncertainRecord], copula) -> None:
        """Refuse an empty database or a copula of the wrong dimension."""
        if not records:
            raise QueryError("cannot rank an empty database")
        if copula is not None and copula.dimension != len(records):
            raise QueryError(
                f"copula dimension {copula.dimension} does not match "
                f"database size {len(records)}"
            )

    @classmethod
    def from_table(
        cls,
        table: Any,
        scoring: Any,
        payload_columns: Optional[Sequence[str]] = None,
        **engine_kwargs: Any,
    ) -> "RankingEngine":
        """Build an engine directly over an ``UncertainTable``.

        Extracts records with ``table.to_records(..., validate=True)``
        and *subscribes to the table's mutation deltas*: every committed
        ``table.mutate()`` batch is delivered through
        ``table.changes_since`` at the next query, so answers always
        reflect the live table without hand-wired ``to_records``
        plumbing at every call site — and because the deltas name
        exactly which record keys changed, the engine migrates
        delta-surviving cache artifacts (pairwise integrals, the fitted
        cost model) to the new fingerprint instead of discarding them
        (:meth:`~repro.core.cache.ComputationCache.migrate`).

        Parameters
        ----------
        table:
            An :class:`~repro.db.table.UncertainTable` (anything with
            ``to_records`` and ``changes_since``).
        scoring:
            The scoring spec forwarded to ``to_records``.
        payload_columns:
            Optional payload columns forwarded to ``to_records``.
        **engine_kwargs:
            Any :class:`RankingEngine` constructor argument
            (``seed=``, ``workers=``, ``trace=``, ...).
        """
        records = table.to_records(
            scoring, payload_columns=payload_columns, validate=True
        )
        engine = cls(records, **engine_kwargs)
        engine._table = table
        engine._table_scoring = scoring
        engine._table_payload = (
            list(payload_columns) if payload_columns is not None else None
        )
        engine._table_version = table.changes_since(None).version
        return engine

    def _refresh_table(self) -> None:
        """Re-extract records if the subscribed table has moved on.

        When the table delivers deltas for the gap, cached artifacts
        untouched by them are migrated to the new fingerprint; when it
        cannot (overflowed delta log), the refresh falls back to
        wholesale invalidation — recompute, never a wrong answer.
        """
        if self._table is None:
            return
        with self._refresh_lock:
            changes = self._table.changes_since(self._table_version)
            if changes.version == self._table_version:
                return
            dirty: set = set()
            if changes.deltas is not None:
                for delta in changes.deltas:
                    dirty |= delta.touched
            # Validation is the O(n)-with-a-big-constant part of a
            # refresh. When the delta names exactly which keys moved,
            # records outside it are byte-unchanged since the validated
            # subscription snapshot, so only the dirty ones need
            # re-checking; without deltas, validate wholesale.
            records = self._table.to_records(
                self._table_scoring,
                payload_columns=self._table_payload,
                validate=changes.deltas is None,
            )
            if changes.deltas is not None and dirty:
                touched = [r for r in records if r.record_id in dirty]
                if touched:
                    validate_records(touched, raise_on_issue=True)
            self._check_database(records, self.copula)
            old_fp = self._db_fp
            self.records = list(records)
            self._db_fp = fingerprint_records(self.records)
            self._table_version = changes.version
            if self._db_fp == old_fp or changes.deltas is None:
                return
            self._last_migration = self.cache.migrate(
                old_fp, self._db_fp, dirty
            )

    @property
    def table(self) -> Optional[Any]:
        """The subscribed table when built via :meth:`from_table`."""
        return self._table

    @property
    def last_migration(self) -> Optional[MigrationReport]:
        """The most recent delta-aware cache migration, if any."""
        return self._last_migration

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def database_fingerprint(self) -> str:
        """Content fingerprint of the ranked records (cache identity).

        Stable across engines holding identical records; the serving
        layer keys request coalescing and circuit breakers on it.
        """
        self._refresh_table()
        return self._db_fp

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this engine's queries emit into."""
        return self._metrics

    def sampling_coverage(
        self, samples: int, max_rank: Optional[int] = None
    ) -> int:
        """How many of ``samples`` draws the shared cache already holds.

        A read-only probe against the block-structured rank-count store
        for this database and the engine's default sampling stream. The
        serving layer uses it to skip coalescing when a burst would hit
        warm blocks anyway. ``max_rank`` mirrors the query path's prune
        level: rank counts are keyed by the *pruned* table fingerprint,
        so the probe resolves the same pruned entry the query would.
        """
        self._refresh_table()
        if max_rank is None:
            subset, fp = self.records, self._db_fp
        else:
            subset, fp = self._pruned_entry(int(max_rank))
        n = len(subset)
        limit = n if max_rank is None else max(1, min(int(max_rank), n))
        return self.cache.rank_count_coverage(
            fp, self._backend_key(), samples, limit
        )

    def ppo(self) -> ProbabilisticPartialOrder:
        """The partial order induced by the full database (cached)."""
        return self._ppo(self._db_fp, self.records)

    def _pairwise_cache(self):
        """The per-database Eq. 1 memo shared by exact/MCMC/rank-agg."""
        return self.cache.pairwise(self._db_fp)

    def _ppo(
        self, fp: str, subset: Sequence[UncertainRecord]
    ) -> ProbabilisticPartialOrder:
        def build() -> ProbabilisticPartialOrder:
            with span("pairwise", records=len(subset)):
                return ProbabilisticPartialOrder(
                    subset, cache=self._pairwise_cache()
                )

        return self.cache.artifact("ppo", fp, build)

    def _pruned_entry(
        self, level: int
    ) -> Tuple[List[UncertainRecord], str]:
        """``(pruned records, their fingerprint)`` for a dominance level."""
        if not self.prune or level >= len(self.records):
            return self.records, self._db_fp

        def build() -> Tuple[List[UncertainRecord], str]:
            kept = shrink_database(self.records, level).kept
            return kept, fingerprint_records(kept)

        return self.cache.artifact("prune", (self._db_fp, level), build)

    def _plan_for(self, fp: str, subset: Sequence[UncertainRecord]):
        """The compiled sampling plan for ``subset``, by fingerprint."""

        def build():
            with span("plan-compile", records=len(subset)):
                return compile_plan(subset)

        return self.cache.artifact("plan", fp, build)

    def _exact(
        self, fp: str, subset: Sequence[UncertainRecord]
    ) -> ExactEvaluator:
        """The (memoizing) exact evaluator for ``subset``, by fingerprint."""
        return self.cache.artifact("exact", fp, lambda: ExactEvaluator(subset))

    def _stream_seeds(self, seed: Optional[int]) -> Tuple[int, int]:
        """``(sampler root, mcmc root)`` for a per-query seed override.

        ``None`` keeps the engine's constructor-derived streams (the
        cache-addressable default). An explicit override is hashed into
        the same 63-bit space, independently of the constructor seed:
        two engines built with different seeds still agree on a query
        carrying the same ``seed=``, which is what makes per-query
        seeds a cross-engine reproducibility handle.
        """
        if seed is None:
            return self._sampler_seed, self._mcmc_seed
        digest = hashlib.blake2b(
            f"query-seed:{int(seed)}".encode("utf-8"), digest_size=16
        ).digest()
        return (
            int.from_bytes(digest[:8], "big") % (2**63),
            int.from_bytes(digest[8:], "big") % (2**63),
        )

    def _backend_key(self, sampler_seed: Optional[int] = None) -> Tuple:
        """Identity of this engine's sampling stream, minus the workers.

        Keys every sampled artifact together with the database
        fingerprint. Includes the sampler kind (serial vs sharded —
        different stream layouts), the sampler seed (the engine's, or a
        per-query override), the fixed shard count, and the copula, but
        deliberately *not* the worker count: results are
        worker-invariant by contract, so engines that differ only in
        ``workers`` share sampled counts.
        """
        seed = self._sampler_seed if sampler_seed is None else sampler_seed
        base: Tuple = (
            ("mc", seed)
            if self.workers is None
            else ("shard", seed, DEFAULT_SHARDS)
        )
        if self._copula_token is not None:
            base = base + ("copula", self._copula_token)
        return base

    def _effective_backend(self, override: Optional[str] = None) -> str:
        """Resolve the execution backend for one query.

        ``override`` (a per-query ``backend=``) takes precedence over
        the engine knob. ``"auto"`` picks processes only when they can
        pay off: multiple workers, a multi-core host, no copula, and a
        database at least ``PROCESS_CROSSOVER`` records large —
        otherwise shared-memory export and task marshalling cost more
        than the GIL relief buys. An explicit ``"process"`` under a
        copula is refused (correlated evaluators are closures).
        """
        backend = self.backend if override is None else override
        if backend == "process" and self.copula is not None:
            raise QueryError(
                "backend='process' is unavailable with a copula: "
                "correlated evaluators cannot cross a process boundary"
            )
        if backend == "auto":
            backend = (
                "process"
                if self.copula is None
                and self.workers is not None
                and self.workers > 1
                and (os.cpu_count() or 1) > 1
                and len(self.records) >= PROCESS_CROSSOVER
                else "thread"
            )
        return backend

    def _mcmc_call_seed(
        self,
        target: str,
        k: int,
        l: int,
        mcmc_seed: Optional[int] = None,
    ) -> int:
        """Deterministic per-query MCMC seed (stable across repeats)."""
        root = self._mcmc_seed if mcmc_seed is None else mcmc_seed
        token = (
            f"{root}:{target}:{k}:{l}:"
            f"{self.mcmc_chains}:{self.mcmc_steps}"
        )
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def _sampler_factory(
        self, subset: Sequence[UncertainRecord], plan
    ) -> Callable[[int], MonteCarloEvaluator]:
        """Seed-to-evaluator constructor over ``subset``, honoring the copula.

        A Gaussian copula marginalizes to any record subset by taking
        the corresponding correlation submatrix, so pruned databases
        keep exactly the joint distribution of the surviving records.
        The factory form lets :class:`ParallelSampler` build one
        copula-aware evaluator per shard; ``plan`` is the shared
        compiled sampling plan for ``subset``.
        """
        if self.copula is None:
            return lambda s: MonteCarloEvaluator(subset, seed=s, plan=plan)
        from .correlation import CorrelatedMonteCarloEvaluator, GaussianCopula

        wanted = {rec.record_id for rec in subset}
        idx = [
            i
            for i, rec in enumerate(self.records)
            if rec.record_id in wanted
        ]
        sub = self.copula.correlation[np.ix_(idx, idx)]
        return lambda s: CorrelatedMonteCarloEvaluator(
            subset, GaussianCopula(sub), seed=s, plan=plan
        )

    def _sampler(
        self,
        subset: Sequence[UncertainRecord],
        fp: str,
        sampler_seed: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> Union[MonteCarloEvaluator, ParallelSampler]:
        """Monte-Carlo front-end over ``subset``, cached by fingerprint.

        With ``workers=None`` this is a single evaluator; otherwise a
        sharded :class:`ParallelSampler` whose results are worker-count
        and backend invariant. The evaluator object is keyed by the
        worker count and backend too (a sampler built for one pool
        shape should not decide another engine's parallelism), but the
        *counts* it produces are keyed by :meth:`_backend_key` alone
        and therefore shared.

        Without a copula the sampler builds its shard evaluators from
        the compiled plan itself, which keeps the process backend
        available; a copula needs per-shard correlated evaluators, so
        it passes a closure factory and stays on threads (enforced
        upstream by :meth:`_effective_backend`).
        """
        seed = self._sampler_seed if sampler_seed is None else sampler_seed
        effective = (
            self._effective_backend(None) if backend is None else backend
        )

        def build() -> Union[MonteCarloEvaluator, ParallelSampler]:
            plan = self._plan_for(fp, subset)
            if self.workers is None:
                return self._sampler_factory(subset, plan)(seed)
            sampler = ParallelSampler(
                subset,
                seed=seed,
                workers=self.workers,
                factory=(
                    None
                    if self.copula is None
                    else self._sampler_factory(subset, plan)
                ),
                plan=plan,
                backend=effective,
            )
            self._owned_samplers.append(sampler)  # reprolint: disable=CON001 -- samplers are only built on the query thread (cache builds run inline); worker pools never construct samplers
            return sampler

        return self.cache.artifact(
            "sampler",
            (fp, self._backend_key(sampler_seed), self.workers, effective),
            build,
        )

    def _rank_counts(
        self,
        fp: str,
        subset: Sequence[UncertainRecord],
        samples: int,
        max_rank: Optional[int] = None,
        budget: Optional[Budget] = None,
        sampler_seed: Optional[int] = None,
        backend: Optional[str] = None,
    ):
        """Memoized rank counts of ``subset`` with deterministic top-up
        (see cache), drawn under a ``sample`` span."""
        sampler = self._sampler(subset, fp, sampler_seed, backend)
        with span("sample", requested=samples) as sample_span:
            sc = self.cache.rank_counts(
                fp,
                self._backend_key(sampler_seed),
                sampler,
                samples,
                max_rank=max_rank,
                budget=budget,
            )
            if sample_span is not None:
                sample_span.set(done=sc.done)
        return sc

    def _guard_copula(self, method: str) -> str:
        """Map/refuse methods that assume independence under a copula."""
        if self.copula is None:
            return method
        if method == "auto":
            return "montecarlo"
        if method in ("exact", "mcmc"):
            raise QueryError(
                f"method {method!r} assumes independent scores and is "
                "invalid when a copula is set; use 'montecarlo'"
            )
        return method

    def cache_stats(self) -> CacheStats:
        """Live counters of this engine's computation cache.

        Hits, misses, LRU evictions, retained bytes, and top-up
        extensions (rank-count requests partially served from cached
        sample blocks). For a ``"shared"`` cache the counters cover all
        participating engines.
        """
        return self.cache.stats()

    def _median_ranking(
        self, subset: Sequence[UncertainRecord]
    ) -> List[UncertainRecord]:
        """Deterministic ranking by median score (the degradation floor).

        Collapses each record's score distribution to its median
        (``ppf(0.5)``; the point value for deterministic records) and
        sorts descending with the record-id tie-breaker. A quantile
        that fails with :class:`EvaluationError` — or comes back
        non-finite — falls back to the interval midpoint with a logged
        warning, so the floor stays available for any record that
        passed model validation; genuinely unexpected errors propagate
        instead of being silently swallowed.
        """

        def median(rec: UncertainRecord) -> float:
            if rec.is_deterministic:
                return rec.lower
            try:
                value = float(rec.score.ppf(0.5))
            except EvaluationError as exc:
                logger.warning(
                    "median of record %r failed (%s: %s); using the "
                    "interval midpoint",
                    rec.record_id,
                    type(exc).__name__,
                    exc,
                )
                return 0.5 * (rec.lower + rec.upper)
            if not math.isfinite(value):
                return 0.5 * (rec.lower + rec.upper)
            return value

        return sorted(
            subset, key=lambda rec: (-median(rec), rec.record_id)
        )

    def _run_stages(
        self,
        stages: Sequence[Tuple[str, Callable[[], List]]],
        budget: Optional[Budget],
        events: List[DegradationEvent],
        timings: Optional[Dict[str, float]] = None,
    ) -> Tuple[str, List]:
        """Drive the degradation ladder over ``stages`` in order.

        Each stage is a ``(name, thunk)`` pair; the first thunk that
        returns supplies the answers. A stage that raises
        :class:`EvaluationError` (or declines via ``_StageSkipped``) is
        recorded as a :class:`DegradationEvent` and the ladder falls
        through to the next rung — unless it is the *only* stage
        (an explicitly requested method), in which case the error
        propagates unchanged. Expensive stages are skipped outright
        when the budget is already expired; the baseline rung is free
        and always allowed to run. Each attempted stage runs under a
        child span named after it, so traces show degraded attempts
        alongside the rung that finally answered. ``timings``, when
        given, collects per-attempt wall seconds (degraded attempts
        included) — the planner's cost-model feedback loop.
        """

        def attempt(name: str, thunk: Callable[[], List]) -> List:
            with span(name) as stage_span:
                started = time.perf_counter()
                try:
                    answers = thunk()
                except EvaluationError:
                    if timings is not None:
                        timings[name] = time.perf_counter() - started
                    if stage_span is not None:
                        stage_span.set(outcome="degraded")
                    raise
                if timings is not None:
                    timings[name] = time.perf_counter() - started
                if stage_span is not None:
                    stage_span.set(outcome="ok")
                return answers

        total = len(stages)
        last_error: Optional[EvaluationError] = None
        for index, (name, thunk) in enumerate(stages):
            if (
                budget is not None
                and name != "baseline"
                and budget.expired()
            ):
                reason = budget.exhausted_reason() or "deadline"
                events.append(DegradationEvent(name, "skipped", reason))
                last_error = EvaluationError(
                    f"budget exhausted before the {name} stage ({reason})"
                )
                continue
            try:
                answers = attempt(name, thunk)
            except _StageSkipped as skip:
                events.append(DegradationEvent(name, "skipped", str(skip)))
                last_error = skip
                continue
            except EvaluationError as exc:
                if total == 1:
                    raise
                events.append(
                    DegradationEvent(
                        name, "failed", f"{type(exc).__name__}: {exc}"
                    )
                )
                last_error = exc
                continue
            if index > 0:
                events.append(
                    DegradationEvent(
                        name, "fallback", "earlier stages degraded"
                    )
                )
            return name, answers
        if last_error is not None:
            raise last_error
        raise EvaluationError("no evaluation stage available")

    def _exact_eligible(
        self,
        records: Sequence[UncertainRecord],
        fp: str,
        k: Optional[int] = None,
    ) -> bool:
        """The one rule for whether ``auto`` tries exact evaluation.

        The densities must be piecewise polynomial and the work bounded:
        for a TOP-k query of depth ``k`` the (cached) k-prefix space must
        fit ``prefix_enumeration_limit``; for the per-rank families
        (``k=None``) the record count must fit ``exact_record_limit``.
        """
        if not supports_exact(records):
            return False
        if k is None:
            return len(records) <= self.exact_record_limit
        space = self._prefix_space(fp, records, k)
        return space is not None and space <= self.prefix_enumeration_limit

    def _auto_ladder(
        self,
        kind: str,
        pruned: Sequence[UncertainRecord],
        fp: str,
        depth: int,
    ) -> List[str]:
        """Stage names of the ``auto`` ladder for one query of ``kind``."""
        exact = self._exact_eligible(
            pruned, fp, depth if kind in _TOPK else None
        )
        return [name for name in _LADDERS[kind] if exact or name != "exact"]

    def _run_ladder(
        self,
        ctx: _EvalContext,
        kind: str,
        label: str,
        runners: Dict[str, Callable[[], List]],
        fp: str,
        pruned: Sequence[UncertainRecord],
        depth: int,
        requested: int,
    ) -> List:
        """Run the stages ``ctx.method`` selects from ``runners``.

        ``auto`` runs the kind's ladder as the planner trims it; any
        other method names exactly one runner.
        """
        if ctx.method == "auto":
            ladder = self._auto_ladder(kind, pruned, fp, depth)
            names = self._apply_plan(
                ctx, kind, ladder, fp, pruned, depth, requested
            )
        elif ctx.method in runners:
            names = [ctx.method]
        else:
            raise QueryError(f"unknown method {ctx.method!r} for {label}")
        ctx.used, answers = self._run_stages(
            [(name, runners[name]) for name in names],
            ctx.budget,
            ctx.events,
            timings=ctx.stage_seconds,
        )
        return answers

    # ------------------------------------------------------------------
    # cost-model planning
    # ------------------------------------------------------------------

    def _overlap_density(
        self, fp: str, subset: Sequence[UncertainRecord]
    ) -> float:
        """Cached interval-overlap density for a pruned subset."""
        return self.cache.artifact(
            "overlap", fp, lambda: overlap_density(subset)
        )

    def _plan_features(
        self,
        kind: str,
        fp: str,
        pruned: Sequence[UncertainRecord],
        depth: int,
        requested: int,
        sampler_seed: int,
    ) -> PlanFeatures:
        """The deterministic feature vector the planner consults.

        Pure function of (records, spec, cache state): size and overlap
        density of the pruned subset, requested depth and samples,
        rank-count cache coverage for the query's own sampling stream,
        and — for the prefix/set families — the (capped) enumeration
        space and MCMC parameters.
        """
        n = len(pruned)
        covered = 0
        prefix_space: Optional[int] = None
        if kind == "utop_rank":
            limit = max(1, min(depth, n))
            covered = self.cache.rank_count_coverage(
                fp,
                self._backend_key(sampler_seed),
                requested,
                limit,
            )
        else:
            prefix_space = self._prefix_space(fp, pruned, depth)
        return PlanFeatures(
            kind=kind,
            n=n,
            depth=depth,
            requested_samples=requested,
            covered_samples=covered,
            overlap_density=self._overlap_density(fp, pruned),
            exact_supported=supports_exact(pruned),
            prefix_space=prefix_space,
            mcmc_chains=self.mcmc_chains if kind != "utop_rank" else 0,
            mcmc_steps=self.mcmc_steps if kind != "utop_rank" else 0,
        )

    def _apply_plan(
        self,
        ctx: _EvalContext,
        kind: str,
        ladder: List[str],
        fp: str,
        pruned: Sequence[UncertainRecord],
        depth: int,
        requested: int,
    ) -> List[str]:
        """Consult the planner for an ``auto`` ladder; prune if budgeted.

        With the planner disabled the ladder is returned untouched.
        Otherwise the plan is recorded on the context for post-run
        feedback; without a live budget that is all that happens —
        execution is byte-identical to planner-off. Under a live
        budget, stages the plan marked ``skipped`` are removed before
        :meth:`_run_stages` ever starts them, each recorded as a
        ``planner:``-reasoned skip event, and a covered-block sample
        reduction (if any) is staged via ``ctx.plan_samples``.
        """
        if self.planner is None:
            return ladder
        model = self.cache.cost_model(fp)
        features = self._plan_features(
            kind, fp, pruned, depth, requested, ctx.sampler_seed
        )
        plan = self.planner.plan(model, features, ladder, ctx.budget)
        ctx.plan = plan
        ctx.plan_model = model
        if not plan.budgeted:
            return ladder
        ctx.plan_samples = plan.planned_samples
        kept: List[str] = []
        for name in ladder:
            entry = plan.stage_named(name)
            if entry is not None and entry.decision == "skipped":
                ctx.events.append(
                    DegradationEvent(
                        name, "skipped", f"planner: {entry.reason}"
                    )
                )
                continue
            kept.append(name)
        return kept

    # ------------------------------------------------------------------
    # the query dispatcher
    # ------------------------------------------------------------------

    #: kind -> bound evaluator method name (one entry per QUERY_KINDS).
    _EVAL: Dict[str, str] = {
        "utop_rank": "_eval_utop_rank",
        "utop_prefix": "_eval_topk",
        "utop_set": "_eval_topk",
        "rank_aggregation": "_eval_rank_aggregation",
        "threshold_topk": "_eval_threshold_topk",
    }

    def query(self, spec: Query) -> QueryResult:
        """Evaluate one frozen :class:`Query` spec.

        The single dispatch point every query family funnels through:
        it refreshes a subscribed table, resolves the per-query seed
        and budget, opens the root trace span (honoring the engine's
        ``trace`` default and the spec's override), installs this
        engine's metrics registry for every emission point below, runs
        the evaluator for ``spec.kind``, and folds the bookkeeping —
        elapsed time, cache delta, degradation events, diagnostics,
        the span tree — into one keyword-constructed
        :class:`QueryResult`.
        """
        evaluator_name = self._EVAL.get(spec.kind)
        if evaluator_name is None:
            raise QueryError(f"unknown query kind {spec.kind!r}")
        self._refresh_table()
        start = time.perf_counter()
        stats_before = self.cache.stats()
        sampler_seed, mcmc_seed = self._stream_seeds(spec.seed)
        ctx = _EvalContext(
            budget=self.budget if spec.budget is None else spec.budget,
            method=self._guard_copula(spec.method),
            sampler_seed=sampler_seed,
            mcmc_seed=mcmc_seed,
            backend=self._effective_backend(spec.backend),
        )
        enabled = self.trace if spec.trace is None else spec.trace
        root: Optional[Span] = (
            Span(
                "query",
                kind=spec.kind,
                method=ctx.method,
                database_size=len(self.records),
            )
            if enabled
            else None
        )
        evaluate = getattr(self, evaluator_name)
        try:
            with use_registry(self._metrics):
                with activate(root):
                    answers = evaluate(spec, ctx)
        except Exception as exc:
            if root is not None:
                root.end()
            self._metrics.inc("query_errors_total", query=spec.kind)
            logger.debug(
                "query %s failed (%s: %s)",
                spec.kind,
                type(exc).__name__,
                exc,
            )
            raise
        if root is not None:
            root.set(method_used=ctx.used, pruned_size=ctx.pruned_size)
            root.end()
        elapsed = time.perf_counter() - start
        self._finish_plan(spec, ctx)
        self._metrics.inc("queries_total", query=spec.kind, method=ctx.used)
        self._metrics.observe(
            "query_duration_seconds",
            elapsed,
            query=spec.kind,
            method=ctx.used,
        )
        for event in ctx.events:
            self._metrics.inc(
                "degradation_events_total",
                stage=event.stage,
                action=event.action,
            )
        return QueryResult(
            answers=answers,
            method=ctx.used,
            elapsed=elapsed,
            database_size=len(self.records),
            pruned_size=ctx.pruned_size,
            error_bound=ctx.error_bound,
            diagnostics=ctx.diagnostics,
            partial=ctx.partial,
            truncated=ctx.truncated,
            confidence_half_width=ctx.half_width,
            degradation=ctx.events,
            cache=self.cache.stats().delta(stats_before).to_dict(),
            trace=root,
        )

    def _finish_plan(self, spec: Query, ctx: _EvalContext) -> None:
        """Close the planning loop for one query (no-op when unplanned).

        Feeds measured stage timings back into the fingerprint's cost
        model, emits the ``planner_*`` counters, and attaches the
        schedule-invariant plan block to the result diagnostics. Runs
        after the evaluator so it survives evaluators that replace
        ``ctx.diagnostics`` wholesale (the MCMC paths do).
        """
        plan = ctx.plan
        if plan is None or self.planner is None or ctx.plan_model is None:
            return
        mispredicted = self.planner.feedback(
            ctx.plan_model, plan, ctx.stage_seconds, ctx.used
        )
        self._metrics.inc(
            "planner_plans_total",
            query=spec.kind,
            budgeted=str(plan.budgeted).lower(),
        )
        for entry in plan.stages:
            if entry.decision == "skipped":
                self._metrics.inc(
                    "planner_stage_skips_total", stage=entry.stage
                )
        if mispredicted:
            self._metrics.inc(
                "planner_mispredictions_total", query=spec.kind
            )
        if plan.planned_samples is not None:
            self._metrics.inc(
                "planner_sample_reductions_total", query=spec.kind
            )
        ctx.diagnostics["plan"] = plan.diagnostics_dict()

    # ------------------------------------------------------------------
    # RECORD-RANK queries (Def. 4)
    # ------------------------------------------------------------------

    def utop_rank(
        self,
        i: int,
        j: int,
        l: int = 1,
        method: str = "auto",
        samples: Optional[int] = None,
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> QueryResult:
        """Evaluate l-UTop-Rank(i, j).

        ``method`` is ``"auto"``, ``"exact"``, ``"montecarlo"``, or
        ``"baseline"`` (the median-score collapse). Under ``"auto"``
        with a resource ``budget``, evaluation degrades along
        exact → Monte-Carlo → baseline instead of raising; the result
        records the ladder steps taken, carries ``partial=True`` for
        clipped Monte-Carlo estimates, and reports a Wilson confidence
        half-width for the top answer of a partial estimate. ``seed``
        overrides the engine's sampling streams for this query only;
        ``trace`` overrides the engine's tracing default.
        """
        return self.query(
            Query(
                kind="utop_rank",
                i=i,
                j=j,
                l=l,
                method=method,
                samples=samples,
                budget=budget,
                seed=seed,
                trace=trace,
                backend=backend,
            )
        )

    def _eval_utop_rank(
        self, spec: Query, ctx: _EvalContext
    ) -> List[RecordAnswer]:
        i, j, l = spec.i, spec.j, spec.l
        budget = ctx.budget
        with span("prune", level=j):
            pruned, fp = self._pruned_entry(j)
        ctx.pruned_size = len(pruned)
        requested = spec.samples or self.samples

        def run_exact() -> List[RecordAnswer]:
            evaluator = self._exact(fp, pruned)
            with span("dp", records=len(pruned), max_rank=j):
                matrix = evaluator.rank_probability_matrix(
                    max_rank=j, budget=budget
                )
            with span("aggregate"):
                probs = matrix[:, i - 1 : j].sum(axis=1)
                order = sorted(
                    range(len(pruned)),
                    key=lambda t: (-probs[t], pruned[t].record_id),
                )
                return [
                    RecordAnswer(pruned[t].record_id, float(probs[t]))
                    for t in order[:l]
                ]

        def run_montecarlo() -> List[RecordAnswer]:
            # A budgeted plan may serve straight from a covered
            # rank-count block at its (smaller) sample count instead of
            # drawing a fresh top-up; the result is flagged partial
            # below, exactly like a budget-clipped run of that count.
            effective = requested
            if (
                ctx.plan_samples is not None
                and ctx.plan_samples < requested
            ):
                effective = ctx.plan_samples
            # The cache — not the shards — takes the sample grant for
            # whatever cached blocks cannot cover, so the number of
            # fresh samples drawn is a pure function of budget state
            # and cache contents, never of shard scheduling (the
            # determinism-under-budget contract).
            sc = self._rank_counts(
                fp,
                pruned,
                effective,
                max_rank=j,
                budget=budget,
                sampler_seed=ctx.sampler_seed,
                backend=ctx.backend,
            )
            if sc.done == 0:
                raise _StageSkipped(
                    "sample budget exhausted "
                    f"({sc.reason or 'samples'})"
                )
            with span("aggregate"):
                matrix = sc.counts / sc.done
                pairs = select_top_rank_candidates(pruned, matrix, i, j, l)
            if sc.partial:
                ctx.mark_partial(
                    "montecarlo",
                    sc.reason or f"sample cap granted {sc.done}/{effective}",
                )
                if pairs:
                    ctx.half_width = wilson_half_width(pairs[0][1], sc.done)
            elif effective < requested:
                ctx.mark_partial(
                    "montecarlo",
                    f"planner served covered block {sc.done}/{requested}",
                )
                if pairs:
                    ctx.half_width = wilson_half_width(pairs[0][1], sc.done)
            return [
                RecordAnswer(rec.record_id, prob) for rec, prob in pairs
            ]

        def run_baseline() -> List[RecordAnswer]:
            order = self._median_ranking(pruned)
            probs = {
                rec.record_id: 1.0 if i <= rank <= j else 0.0
                for rank, rec in enumerate(order, start=1)
            }
            ranked = sorted(
                pruned,
                key=lambda rec: (-probs[rec.record_id], rec.record_id),
            )
            return [
                RecordAnswer(rec.record_id, probs[rec.record_id])
                for rec in ranked[:l]
            ]

        return self._run_ladder(
            ctx,
            "utop_rank",
            "UTop-Rank",
            {
                "exact": run_exact,
                "montecarlo": run_montecarlo,
                "baseline": run_baseline,
            },
            fp,
            pruned,
            j,
            requested,
        )

    def rank_distribution(
        self,
        record_id: str,
        max_rank: Optional[int] = None,
        method: str = "auto",
        samples: Optional[int] = None,
    ) -> np.ndarray:
        """Full rank distribution ``eta_r(t)`` of one record.

        Returns a vector of length ``max_rank`` (default: the database
        size) whose ``r``-th entry is the probability that the record
        occupies rank ``r + 1`` across linear extensions. Exact when the
        densities allow it and the database is small; Monte-Carlo
        otherwise.
        """
        self._refresh_table()
        if all(rec.record_id != record_id for rec in self.records):
            raise QueryError(f"record {record_id!r} is not in this database")
        method = self._guard_copula(method)
        if method == "auto":
            use_exact = self._exact_eligible(self.records, self._db_fp)
            method = "exact" if use_exact else "montecarlo"
        if method == "exact":
            return self._exact(self._db_fp, self.records).rank_probabilities(
                record_id, max_rank=max_rank
            )
        if method != "montecarlo":
            raise QueryError(f"unknown method {method!r}")
        with use_registry(self._metrics):
            sc = self._rank_counts(
                self._db_fp,
                self.records,
                samples or self.samples,
                max_rank=max_rank,
            )
        matrix = sc.counts / sc.done
        index = next(
            i
            for i, rec in enumerate(self.records)
            if rec.record_id == record_id
        )
        return matrix[index]

    # ------------------------------------------------------------------
    # related-work semantics expressed in the paper's model
    # ------------------------------------------------------------------

    def global_topk(
        self,
        k: int,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Global-Top-k semantics under score uncertainty.

        The analog of Zhang & Chomicki's Global-Top-k [16] in the
        paper's model: the ``k`` records with the highest probability of
        ranking in the top ``k`` — exactly ``k``-UTop-Rank(1, k).
        """
        if k < 1:
            raise QueryError("k must be positive")
        return self.utop_rank(
            1, k, l=k, method=method, budget=budget, seed=seed, trace=trace
        )

    def threshold_topk(
        self,
        k: int,
        threshold: float,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> QueryResult:
        """PT-k semantics under score uncertainty (Hua et al. [17]).

        All records whose probability of ranking in the top ``k``
        reaches ``threshold``; the answer size is data-dependent
        (possibly empty, possibly larger than ``k``).
        """
        return self.query(
            Query(
                kind="threshold_topk",
                k=k,
                threshold=threshold,
                method=method,
                budget=budget,
                seed=seed,
                trace=trace,
                backend=backend,
            )
        )

    def _eval_threshold_topk(
        self, spec: Query, ctx: _EvalContext
    ) -> List[RecordAnswer]:
        inner = Query(
            kind="utop_rank",
            i=1,
            j=spec.k,
            l=len(self.records),
            method=spec.method,
            samples=spec.samples,
        )
        answers = self._eval_utop_rank(inner, ctx)
        return [
            answer
            for answer in answers
            if answer.probability >= spec.threshold
        ]

    # ------------------------------------------------------------------
    # TOP-k queries (Defs. 5 and 6)
    # ------------------------------------------------------------------

    def _prefix_space(
        self, fp: str, subset: Sequence[UncertainRecord], k: int
    ) -> Optional[int]:
        """Cached ``count_prefixes`` over the (cached) partial order.

        ``None`` means the space exceeds the counting cap — cached too,
        so an uncountably large order is not re-walked on every query.
        """

        def build() -> Optional[int]:
            try:
                return count_prefixes(
                    self._ppo(fp, subset), k, max_states=200_000
                )
            except EvaluationError:
                return None

        return self.cache.artifact("prefix-space", (fp, k), build)

    def _score_topk(
        self,
        shape: _TopK,
        fp: str,
        subset: Sequence[UncertainRecord],
        k: int,
        budget: Optional[Budget] = None,
    ) -> Tuple[List[Tuple[Any, float]], bool, Optional[str]]:
        """Enumerate k-prefixes into answer keys and score them exactly.

        Returns ``(scored, clipped, exhausted)``: the keys best-first
        with their probabilities, whether the enumeration cap stopped
        the walk (a better key may lie beyond it), and the budget's
        exhaustion reason when ``budget`` stopped it instead. With
        ``budget=None`` the result is independent of ``l`` and of any
        query state, so callers cache it; a budgeted walk is charged
        one enumeration per prefix and must never be cached. Each key is
        scored on first sight, after its grant, so a deadline stops the
        costly scoring as well as the walk.
        """
        score = getattr(self._exact(fp, subset), shape.exact_score)
        ppo = self._ppo(fp, subset)
        scores: Dict[Any, float] = {}
        clipped = False
        exhausted: Optional[str] = None
        with span("enumerate", k=k, budgeted=budget is not None) as enum_span:
            for prefix in enumerate_prefixes(ppo, k):
                if len(scores) >= self.prefix_enumeration_limit:
                    clipped = True
                    break
                if budget is not None and not budget.consume_enumeration():
                    exhausted = budget.exhausted_reason() or "enumeration"
                    break
                key = shape.key(rec.record_id for rec in prefix)
                if key not in scores:
                    scores[key] = score(key)
            if enum_span is not None:
                enum_span.set(enumerated=len(scores), clipped=clipped)
        scored = sorted(
            scores.items(), key=lambda kv: (-kv[1], shape.tie_break(kv[0]))
        )
        return scored, clipped, exhausted

    def utop_prefix(
        self,
        k: int,
        l: int = 1,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> QueryResult:
        """Evaluate l-UTop-Prefix(k).

        ``method``: ``"auto"``, ``"exact"`` (enumerate + integrate),
        ``"mcmc"`` (multi-chain simulation), ``"montecarlo"``
        (empirical frequencies over sampled rankings), or ``"baseline"``
        (median-score collapse). Under ``"auto"`` the ladder is
        exact → MCMC → Monte-Carlo → baseline; a clipped enumeration
        marks the result ``truncated=True``, and budget-stopped stages
        return best-so-far answers with ``partial=True``.
        """
        return self.query(
            Query(
                kind="utop_prefix",
                k=k,
                l=l,
                method=method,
                budget=budget,
                seed=seed,
                trace=trace,
                backend=backend,
            )
        )

    def utop_set(
        self,
        k: int,
        l: int = 1,
        method: str = "auto",
        budget: Optional[Budget] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> QueryResult:
        """Evaluate l-UTop-Set(k); methods and ladder as in :meth:`utop_prefix`."""
        return self.query(
            Query(
                kind="utop_set",
                k=k,
                l=l,
                method=method,
                budget=budget,
                seed=seed,
                trace=trace,
                backend=backend,
            )
        )

    def _eval_topk(self, spec: Query, ctx: _EvalContext) -> List:
        """The one evaluator for UTop-Prefix and UTop-Set."""
        shape = _TOPK[spec.kind]
        k, l = spec.k, spec.l
        budget = ctx.budget
        with span("prune", level=k):
            pruned, fp = self._pruned_entry(k)
        ctx.pruned_size = len(pruned)
        k_eff = min(k, len(pruned))
        base_samples = spec.samples or self.samples

        def answers(scored) -> List:
            return [shape.answer(shape.key(key), p) for key, p in scored[:l]]

        def run_exact() -> List:
            if budget is None:
                scored, clipped, exhausted = self.cache.artifact(  # reprolint: disable=CACHE002 -- shape is folded into the artifact kind (exact-<target>), and (kind, key) is the cache identity
                    f"exact-{shape.target}",
                    (fp, k_eff, self.prefix_enumeration_limit),
                    lambda: self._score_topk(shape, fp, pruned, k_eff),
                )
            else:
                scored, clipped, exhausted = self._score_topk(
                    shape, fp, pruned, k_eff, budget
                )
            if clipped:
                # Another key exists beyond the cap: the answer space
                # was clipped, and the best key may be outside the
                # enumerated region.
                ctx.truncated = True
                ctx.events.append(
                    DegradationEvent(
                        "exact",
                        "clipped",
                        f"enumeration cap "
                        f"{self.prefix_enumeration_limit} reached",
                    )
                )
            if exhausted is not None:
                ctx.truncated = True
                ctx.mark_partial("exact", exhausted)
            if budget is not None and not scored:
                raise _StageSkipped(
                    f"budget exhausted before any {shape.noun} was "
                    "enumerated"
                )
            return answers(scored)

        def run_mcmc() -> List:
            matrix_samples = max(2000, base_samples // 5)
            rank_matrix: Optional[np.ndarray] = None
            sc = self._rank_counts(
                fp,
                pruned,
                matrix_samples,
                max_rank=k_eff,
                budget=budget,
                sampler_seed=ctx.sampler_seed,
                backend=ctx.backend,
            )
            if sc.done > 0:
                rank_matrix = sc.counts / sc.done

            def simulate():
                with span(
                    "walk", chains=self.mcmc_chains, target=shape.target
                ):
                    sim = TopKSimulation(
                        pruned,
                        k_eff,
                        target=shape.target,
                        n_chains=self.mcmc_chains,
                        seed=self._mcmc_call_seed(
                            shape.target, k_eff, l, ctx.mcmc_seed
                        ),
                        workers=self.workers,
                        plan=self._plan_for(fp, pruned),
                        pairwise_cache=self._pairwise_cache(),
                        backend=ctx.backend,
                    )
                    return sim.run(
                        max_steps=self.mcmc_steps,
                        psrf_threshold=self.psrf_threshold,
                        top_l=l,
                        rank_matrix=rank_matrix,
                        budget=budget,
                    )

            if budget is None:
                result = self.cache.artifact(
                    "mcmc",
                    (
                        fp,
                        self._backend_key(ctx.sampler_seed),
                        shape.target,
                        k_eff,
                        l,
                        matrix_samples,
                        self.mcmc_chains,
                        self.mcmc_steps,
                        self.psrf_threshold,
                        ctx.mcmc_seed,
                    ),
                    simulate,
                )
            else:
                # A budgeted walk reflects *this* query's budget state;
                # neither read nor write the cache for it.
                result = simulate()
            if result.partial:
                ctx.mark_partial("mcmc", result.stop_reason or "deadline")
            ctx.error_bound = result.error_estimate
            ctx.diagnostics = {
                "converged": result.converged,
                "total_steps": result.total_steps,
                "acceptance_rate": result.acceptance_rate,
                "states_visited": result.states_visited,
                "psrf": result.trace.psrf[-1] if result.trace.psrf else None,
            }
            return answers(result.answers)

        def run_montecarlo() -> List:
            sampler = self._sampler(pruned, fp, ctx.sampler_seed, ctx.backend)
            empirical = getattr(sampler, shape.empirical)
            requested = base_samples
            denom = requested
            with span("sample", requested=requested):
                if budget is not None:
                    grant = budget.take_samples(requested)
                    if grant == 0:
                        raise _StageSkipped(
                            "sample budget exhausted "
                            f"({budget.exhausted_reason() or 'samples'})"
                        )
                    if grant < requested:
                        ctx.mark_partial(
                            "montecarlo",
                            f"sample cap granted {grant}/{requested}",
                        )
                    denom = grant
                    freq = empirical(k_eff, denom, seed=0)
                else:
                    freq = self.cache.artifact(  # reprolint: disable=CACHE002 -- shape is folded into the artifact kind (empirical-<target>), and (kind, key) is the cache identity
                        f"empirical-{shape.target}",
                        (fp, self._backend_key(ctx.sampler_seed), k_eff, denom),
                        lambda: empirical(k_eff, denom, seed=0),
                    )
            with span("aggregate"):
                ranked = sorted(
                    freq.items(),
                    key=lambda kv: (-kv[1], shape.tie_break(kv[0])),
                )
            if ctx.partial and ranked:
                ctx.half_width = wilson_half_width(ranked[0][1], denom)
            return answers(ranked)

        def run_baseline() -> List:
            order = self._median_ranking(pruned)
            # Probability 1.0 under the median-collapsed (deterministic)
            # database — the method label marks the fidelity loss.
            key = shape.key(rec.record_id for rec in order[:k_eff])
            return [shape.answer(key, 1.0)]

        return self._run_ladder(
            ctx,
            spec.kind,
            shape.label,
            {
                "exact": run_exact,
                "mcmc": run_mcmc,
                "montecarlo": run_montecarlo,
                "baseline": run_baseline,
            },
            fp,
            pruned,
            k_eff,
            base_samples,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release pools and shared-memory segments this engine created.

        Tears down every owned :class:`ParallelSampler` — their thread
        and process pools and exported plan segments. Idempotent, and
        not terminal: samplers re-create resources lazily, so an engine
        can keep answering queries after ``close()`` (it just starts
        cold). Samplers obtained from a shared computation cache may be
        serving other engines; closing them here is safe for the same
        reason.
        """
        for sampler in self._owned_samplers:
            sampler.close()

    def __enter__(self) -> "RankingEngine":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def explain(
        self, query: str, k: int, deadline_ms: Optional[float] = None
    ) -> dict:
        """Explain the evaluation plan for a query without running it.

        Parameters
        ----------
        query:
            ``"utop_rank"``, ``"utop_prefix"``, or ``"utop_set"`` (for
            UTop-Rank, ``k`` is the upper rank ``j``).
        k:
            The query's dominance level.
        deadline_ms:
            Optional deadline the planner should plan against, in
            milliseconds — the same value the serving layer passes per
            request. Affects only the ``plan`` block: with a deadline
            the block shows which stages the planner would skip.

        Returns
        -------
        dict
            Pruning outcome, whether the densities allow exact
            evaluation, the (capped) size of the enumeration space,
            the method the ``"auto"`` policy would select, an
            ``observability`` block (tracing default plus a metrics
            snapshot), and — when the planner is enabled — a ``plan``
            block with the cost model's predicted seconds per ladder
            stage next to the observed actuals it has fitted so far.
        """
        if query not in _LADDERS:
            raise QueryError(f"unknown query kind {query!r}")
        if k < 1:
            raise QueryError("k must be positive")
        self._refresh_table()
        pruned, fp = self._pruned_entry(k)
        k_eff = min(k, len(pruned))
        plan = {
            "query": query,
            "k": k,
            "database_size": len(self.records),
            "pruned_size": len(pruned),
            "pruning_enabled": self.prune,
            "exact_densities": supports_exact(pruned),
            "workers": self.workers,
            "backend": self.backend,
            "effective_backend": self._effective_backend(None),
            "fingerprint": fp,
            "cache": self.cache.stats().to_dict(),
            "observability": {
                "trace_enabled": self.trace,
                "metrics": self._metrics.snapshot(),
            },
        }
        if query in _TOPK:
            space = self._prefix_space(fp, pruned, k_eff)
            plan["prefix_space"] = space
            plan["enumeration_limit"] = self.prefix_enumeration_limit
            plan["truncated"] = (
                space is None or space > self.prefix_enumeration_limit
            )
        ladder = self._auto_ladder(query, pruned, fp, k_eff)
        plan["method"] = ladder[0]
        if query == "utop_rank":
            plan["samples"] = self.samples
        elif plan["method"] == "mcmc":
            plan["mcmc_chains"] = self.mcmc_chains
            plan["mcmc_steps"] = self.mcmc_steps
        plan["plan"] = self._explain_plan(
            query, fp, pruned, k_eff, ladder, deadline_ms
        )
        return plan

    def _explain_plan(
        self,
        kind: str,
        fp: str,
        pruned: Sequence[UncertainRecord],
        depth: int,
        ladder: List[str],
        deadline_ms: Optional[float],
    ) -> Optional[dict]:
        """The ``plan`` block of :meth:`explain` (None: planner off).

        Builds the same plan :meth:`query` would for the ``auto``
        ``ladder`` — same features, same fitted model — and pairs each
        stage's predicted seconds with the observed per-stage actuals
        the model has accumulated for this fingerprint.
        """
        if self.planner is None:
            return None
        model = self.cache.cost_model(fp)
        features = self._plan_features(
            kind, fp, pruned, depth, self.samples, self._sampler_seed
        )
        budget = (
            Budget.for_deadline(deadline_ms / 1000.0)
            if deadline_ms is not None
            else None
        )
        computed = self.planner.plan(model, features, ladder, budget)
        stages = []
        for entry in computed.stages:
            observed = model.observed_stats(stage_key(kind, entry.stage))
            payload = entry.to_dict()
            payload["observed"] = observed
            stages.append(payload)
        return {
            "chosen": computed.chosen,
            "budgeted": computed.budgeted,
            "deadline_ms": deadline_ms,
            "planned_samples": computed.planned_samples,
            "features": features.to_dict(),
            "stages": stages,
        }

    # ------------------------------------------------------------------
    # RANK-AGGREGATION queries (Def. 7)
    # ------------------------------------------------------------------

    def rank_aggregation(
        self,
        method: str = "auto",
        samples: Optional[int] = None,
        seed: Optional[int] = None,
        trace: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> QueryResult:
        """Evaluate Rank-Agg under the footrule distance (Theorem 2).

        Never pruned: the consensus ranking needs every rank's
        probabilities. ``method``: ``"auto"``, ``"exact"``, or
        ``"montecarlo"`` (selects how the ``eta`` matrix is obtained).
        """
        return self.query(
            Query(
                kind="rank_aggregation",
                method=method,
                samples=samples,
                seed=seed,
                trace=trace,
                backend=backend,
            )
        )

    def _eval_rank_aggregation(
        self, spec: Query, ctx: _EvalContext
    ) -> List[RankAggAnswer]:
        records = self.records
        fp = self._db_fp
        ctx.pruned_size = len(records)
        method = ctx.method
        if method == "auto":
            use_exact = self._exact_eligible(records, fp)
            method = "exact" if use_exact else "montecarlo"
        requested = spec.samples or self.samples

        def aggregate() -> Tuple[Tuple[str, ...], float]:
            if method == "exact":
                # The exact evaluator shares the per-database pairwise
                # memo through its probability_greater entry point; the
                # eta matrix itself is memoized inside the evaluator.
                with span("dp", records=len(records)):
                    matrix = self._exact(
                        fp, records
                    ).rank_probability_matrix()
                tolerance = 1e-9
            else:
                sc = self._rank_counts(
                    fp,
                    records,
                    requested,
                    sampler_seed=ctx.sampler_seed,
                    backend=ctx.backend,
                )
                matrix = sc.counts / sc.done
                # Sampling noise perturbs footrule costs by roughly
                # n / sqrt(samples); ties inside that band canonicalize
                # to the expected-rank order so the Monte-Carlo
                # consensus agrees with the exact one on tied optima.
                tolerance = len(records) / math.sqrt(max(sc.done, 1))
            with span("aggregate"):
                ranking, cost = optimal_rank_aggregation(
                    matrix, records, tie_tolerance=tolerance
                )
            return tuple(rec.record_id for rec in ranking), cost

        if method == "exact":
            key: Tuple = (fp, "exact")
        elif method == "montecarlo":
            key = (fp, self._backend_key(ctx.sampler_seed), requested)
        else:
            raise QueryError(f"unknown method {method!r} for Rank-Agg")
        ranking_ids, cost = self.cache.artifact("rank-agg", key, aggregate)
        ctx.used = method
        return [
            RankAggAnswer(ranking=ranking_ids, expected_distance=cost)
        ]
