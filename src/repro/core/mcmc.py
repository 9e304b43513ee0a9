"""Markov-chain Monte-Carlo evaluation of TOP-k queries (paper §VI-D).

The answer spaces of UTop-Prefix and UTop-Set are exponential in the
database size, so the paper simulates the top-k prefix/set distribution
with a Metropolis–Hastings random walk over linear extensions:

- **States** are linear extensions; the target density ``pi(omega)`` is
  the probability of the state's top-k prefix (or set).
- **Proposal**: pick ``z <= k`` random ranks; move each picked record
  upward (if below the top-k region) or downward (if inside it) by
  successive record swaps, where a swap of adjacent records commits with
  the pairwise probability of the *new* orientation (Eq. 1) and the walk
  of one record stops at its first uncommitted swap. Because a swap that
  would violate dominance has commit probability zero, proposals always
  remain valid linear extensions.
- **Multiple chains** from independently sampled starting extensions are
  run until the Gelman–Rubin statistic signals mixing; the ``l`` most
  probable states visited across chains approximate the query answer
  (paper §VI-D, "Computing Query Answers").
- **Caching** (paper §VI-D, "Caching"): pairwise probabilities and state
  probabilities are memoized across steps and across chains.

The module also provides the paper's probability upper bounds used to
report an approximation-error estimate for the best state found.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from . import metrics
from .budget import Budget
from .diagnostics import ConvergenceTrace, gelman_rubin
from .distributions import SamplingPlan, SharedPlanHandle, build_sampling_plan
from .errors import ConvergenceError, EvaluationError, QueryError
from .exact import ExactEvaluator, supports_exact
from .montecarlo import MonteCarloEvaluator
from .pairwise import PairwiseCache, probability_greater
from .metrics import MetricsRegistry, active_registry, use_registry
from .parallel import resolve_workers
from .records import UncertainRecord
from .trace import Span, activate, current_span

logger = logging.getLogger(__name__)

#: Start method for the process backend. ``fork`` (Linux) inherits the
#: parent's modules and the shared-segment registry, making worker
#: start-up cheap; elsewhere fall back to ``spawn``, where workers
#: re-import and attach segments by name.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

__all__ = [
    "ProposalResult",
    "MetropolisHastingsChain",
    "TopKSimulation",
    "MCMCResult",
    "prefix_probability_upper_bound",
    "set_probability_upper_bound",
]


def _state_seed(ids: Sequence[str]) -> int:
    """Stable per-state seed for the Monte-Carlo oracle.

    Derived from the record ids with a cryptographic hash so it is
    reproducible across processes (Python's ``hash()`` is salted per
    interpreter) and independent of which chain — or which worker
    thread — asks first.
    """
    digest = hashlib.blake2b(
        "\x1f".join(ids).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _state_oracle(
    records: Sequence[UncertainRecord],
    target: str,
    kind: str,
    seed: Optional[int],
    pi_samples: int,
) -> Callable[[Hashable], float]:
    """The built-in state-probability oracle for one simulation.

    Thread chains (:meth:`TopKSimulation._build_oracle`) and process
    chains (worker processes rebuilding the oracle from its shipped
    descriptor) both call this, so the two cannot drift apart. The
    exact oracle is deterministic by construction. The Monte-Carlo
    oracle seeds from ``seed`` and then estimates every state under its
    own id-derived seed stream, so it is a pure function of the state
    key: chains can query it concurrently, in any order or process,
    without changing any estimate.
    """
    if kind == "exact":
        evaluator = ExactEvaluator(records)
        if target == "prefix":
            return lambda key: evaluator.prefix_probability(list(key))
        return lambda key: evaluator.top_set_probability(list(key))
    sampler = MonteCarloEvaluator(records, seed=seed)

    # Sequential importance sampling (prefixes) and the CDF-product
    # estimator (sets) are unbiased and strictly positive for feasible
    # states, unlike plain indicator frequencies, so the walk never sees
    # spurious zeros.
    if target == "prefix":

        def prefix_oracle(key: Hashable) -> float:
            ids = list(key)
            return sampler.prefix_probability_sis(
                ids, pi_samples, seed=_state_seed(ids)
            )

        return prefix_oracle

    def set_oracle(key: Hashable) -> float:
        # Sort the frozenset's ids: iteration order is salted by
        # PYTHONHASHSEED, and both the seed and the sub-plan sample
        # order must not depend on it.
        ids = sorted(key)
        return sampler.top_set_probability_cdf(
            ids, pi_samples, seed=_state_seed(ids)
        )

    return set_oracle


def _oracle_with_retry(
    oracle: Callable[[Hashable], float],
    key: Hashable,
    retries: int,
    backoff: float,
) -> float:
    """One oracle evaluation with bounded retry-with-backoff.

    Shared by the in-process simulation (:meth:`TopKSimulation._call_oracle`)
    and worker processes, so the retry/backoff/metrics behaviour is
    identical on every execution backend. The oracle is a pure function
    of ``key``, so a successful retry reproduces the clean value.
    """
    attempts = retries + 1
    for attempt in range(1, attempts + 1):
        try:
            return oracle(key)
        except QueryError:
            # Invalid state keys fail identically forever.
            raise
        except Exception as exc:
            if attempt >= attempts:
                raise ConvergenceError(
                    f"state-probability oracle failed {attempts} "
                    f"time(s) for state {key!r}: {exc}"
                ) from exc
            logger.warning(
                "oracle failed for state %r (%s: %s); retry %d/%d",
                key,
                type(exc).__name__,
                exc,
                attempt,
                retries,
            )
            metrics.inc("mcmc_oracle_retries_total")
            if backoff > 0.0:
                time.sleep(backoff * (2.0 ** (attempt - 1)))
    raise ConvergenceError(  # pragma: no cover - loop always returns/raises
        f"oracle produced no value for state {key!r}"
    )


def prefix_probability_upper_bound(rank_matrix: np.ndarray, k: int) -> float:
    """Upper bound on any top-k *prefix* probability (paper §VI-D).

    The prefix event requires record occurrences at ranks ``1..k``
    simultaneously, so its probability cannot exceed
    ``min_{i<=k} max_t eta_i(t)``.
    """
    if k < 1 or k > rank_matrix.shape[1]:
        raise QueryError(f"k={k} outside the rank matrix width")
    return float(rank_matrix[:, :k].max(axis=0).min())


def set_probability_upper_bound(rank_matrix: np.ndarray, k: int) -> float:
    """Upper bound on any top-k *set* probability (paper §VI-D).

    A top-k set needs ``k`` records simultaneously inside ranks
    ``1..k``, so its probability cannot exceed the k-th largest
    ``eta_{1..k}(t)`` value.
    """
    if k < 1 or k > rank_matrix.shape[1]:
        raise QueryError(f"k={k} outside the rank matrix width")
    mass = np.sort(rank_matrix[:, :k].sum(axis=1))[::-1]
    return float(min(mass[k - 1], 1.0))


@dataclass
class ProposalResult:
    """One proposal draw: candidate state and proposal densities."""

    state: Tuple[int, ...]
    forward: float
    reverse: float
    changed: bool


class MetropolisHastingsChain:  # reprolint: disable-scope=CON001 -- thread-confined: each chain worker owns exactly one instance; state never crosses threads until the serial merge in run_chains
    """A single M-H chain over linear extensions.

    Parameters
    ----------
    records:
        Database order used to interpret state indices.
    k:
        Size of the top-k region driving the target density.
    target:
        ``"prefix"`` or ``"set"``; selects what ``pi`` measures.
    state_probability:
        Callable mapping a state key (tuple of record ids for prefixes,
        frozenset for sets) to its probability.
    pairwise:
        Callable ``(record_a, record_b) -> Pr(a > b)`` used by the
        proposal; inject a cached version to enable §VI-D caching.
    rng:
        Chain-private random generator.
    initial:
        Starting state as a tuple of record indices (a valid extension).
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        k: int,
        target: str,
        state_probability: Callable[[Hashable], float],
        pairwise: Callable[[UncertainRecord, UncertainRecord], float],
        rng: np.random.Generator,
        initial: Tuple[int, ...],
    ) -> None:
        self.records = records
        self.k = k
        self.target = target
        self._pi_of_key = state_probability
        self._pairwise = pairwise
        self.rng = rng
        self.state = tuple(initial)
        self.pi = self._pi(self.state)
        self.trace: List[float] = [self.pi]
        self.visited: Dict[Hashable, float] = {self._key(self.state): self.pi}
        #: How many steps the chain spent at each state key. Per the
        #: paper (§III), at stationarity the relative visit frequency
        #: estimates pi(x) — an alternative estimator to the exact
        #: per-state probabilities in ``visited``.
        self.visit_counts: Dict[Hashable, int] = {self._key(self.state): 1}
        self.accepted = 0
        self.steps = 0

    # -- cross-process state round-trip --------------------------------

    def export_state(self) -> Dict[str, Hashable]:
        """The chain's mutable walk state as one picklable payload.

        Everything a worker process needs to continue the walk — and
        everything the parent needs back afterwards: the current state
        and its ``pi``, the trace, the visited/visit-count maps, the
        acceptance tally, and the chain's generator (NumPy generators
        pickle with their exact bit-generator state, so the continued
        walk consumes the same stream the in-process walk would).
        """
        return {
            "state": self.state,
            "pi": self.pi,
            "trace": self.trace,
            "visited": self.visited,
            "visit_counts": self.visit_counts,
            "accepted": self.accepted,
            "steps": self.steps,
            "rng": self.rng,
        }

    def import_state(self, data: Dict[str, Hashable]) -> None:
        """Adopt walk state previously captured by :meth:`export_state`."""
        self.state = tuple(data["state"])
        self.pi = float(data["pi"])
        self.trace = list(data["trace"])
        self.visited = dict(data["visited"])
        self.visit_counts = dict(data["visit_counts"])
        self.accepted = int(data["accepted"])
        self.steps = int(data["steps"])
        self.rng = data["rng"]

    @classmethod
    def from_state(
        cls,
        records: Sequence[UncertainRecord],
        k: int,
        target: str,
        state_probability: Callable[[Hashable], float],
        pairwise: Callable[[UncertainRecord, UncertainRecord], float],
        data: Dict[str, Hashable],
    ) -> "MetropolisHastingsChain":
        """Rebuild a chain around exported state without re-running the
        initial oracle call (``__init__`` would recompute ``pi``)."""
        chain = cls.__new__(cls)
        chain.records = records
        chain.k = k
        chain.target = target
        chain._pi_of_key = state_probability
        chain._pairwise = pairwise
        chain.import_state(data)
        return chain

    def _key(self, state: Tuple[int, ...]) -> Hashable:
        ids = tuple(self.records[i].record_id for i in state[: self.k])
        return ids if self.target == "prefix" else frozenset(ids)

    def _pi(self, state: Tuple[int, ...]) -> float:
        return self._pi_of_key(self._key(state))

    # ------------------------------------------------------------------
    # proposal (paper §VI-D, "Sampling Space")
    # ------------------------------------------------------------------

    def propose(self) -> ProposalResult:
        """Draw a candidate state with the paper's shuffling proposal."""
        state = list(self.state)
        n = len(state)
        z = int(self.rng.integers(1, self.k + 1))
        forward = 1.0
        reverse = 1.0
        changed = False
        for _ in range(z):
            r = int(self.rng.integers(0, n))
            direction = 1 if r < self.k else -1
            pos = r
            while True:  # reprolint: disable=ROB001,ROB002 -- bounded: the walk exits at the array ends or at the first uncommitted swap
                m = pos + direction
                if m < 0 or m >= n:
                    break
                mover = self.records[state[pos]]
                neighbour = self.records[state[m]]
                if direction == 1:
                    #

                    # Moving downward: after the swap the neighbour sits
                    # above the mover, which happens with Pr(neighbour >
                    # mover).
                    commit = self._pairwise(neighbour, mover)
                else:
                    # Moving upward: the mover overtakes the neighbour.
                    commit = self._pairwise(mover, neighbour)
                if self.rng.random() >= commit:
                    break  # first uncommitted swap stops this record
                state[pos], state[m] = state[m], state[pos]
                forward *= commit
                # Undoing this swap restores the original orientation,
                # which the reverse move commits with the complement.
                reverse *= 1.0 - commit
                changed = True
                pos = m
        return ProposalResult(tuple(state), forward, reverse, changed)

    def step(self) -> bool:
        """Advance one M-H step; returns whether the move was accepted."""
        proposal = self.propose()
        self.steps += 1
        if not proposal.changed:
            self.trace.append(self.pi)
            key = self._key(self.state)
            self.visit_counts[key] = self.visit_counts.get(key, 0) + 1
            return False
        pi_new = self._pi(proposal.state)
        key_new = self._key(proposal.state)
        best = self.visited.get(key_new)
        if best is None or pi_new > best:
            self.visited[key_new] = pi_new
        if self.pi <= 0.0:
            alpha = 1.0
        else:
            alpha = min(
                (pi_new * proposal.reverse) / (self.pi * proposal.forward),
                1.0,
            )
        if self.rng.random() < alpha:
            self.state = proposal.state
            self.pi = pi_new
            self.accepted += 1
            self.trace.append(self.pi)
            self.visit_counts[key_new] = (
                self.visit_counts.get(key_new, 0) + 1
            )
            return True
        self.trace.append(self.pi)
        key = self._key(self.state)
        self.visit_counts[key] = self.visit_counts.get(key, 0) + 1
        return False

    def run(self, steps: int) -> None:
        """Advance the chain ``steps`` times."""
        for _ in range(steps):
            self.step()


@dataclass
class MCMCResult:
    """Outcome of a multi-chain top-k simulation.

    Attributes
    ----------
    answers:
        The ``l`` most probable states discovered, as ``(key,
        probability)`` pairs; keys are record-id tuples for prefix
        targets and frozensets for set targets.
    trace:
        Gelman–Rubin observations per epoch.
    converged:
        Whether the PSRF threshold was reached before the step budget.
    total_steps / acceptance_rate / elapsed:
        Aggregate simulation statistics.
    upper_bound:
        The paper's probability upper bound for any state, when the
        caller supplied a rank-probability matrix; ``None`` otherwise.
    partial:
        ``True`` when a resource budget stopped the walk before its
        step budget or convergence; the answers are best-so-far (chains
        record their initial states at construction, so the answer list
        is never empty).
    stop_reason:
        Why the budget stopped the walk (``"cancelled"``/``"deadline"``)
        or ``None`` for a clean run.
    """

    answers: List[Tuple[Hashable, float]]
    trace: ConvergenceTrace
    converged: bool
    total_steps: int
    acceptance_rate: float
    elapsed: float
    upper_bound: Optional[float] = None
    partial: bool = False
    stop_reason: Optional[str] = None
    states_visited: int = 0
    #: Total probability of the distinct states visited. Prefix (and
    #: set) events are mutually exclusive, so this is the share of the
    #: whole answer space the walk has covered — 1.0 means the chains
    #: have seen every state that matters.
    probability_mass: float = 0.0
    #: Relative visit frequency per state across all chains — the
    #: paper's §III estimator of pi(x); converges to the normalized
    #: state probabilities at stationarity.
    visit_frequencies: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def error_estimate(self) -> Optional[float]:
        """Paper's approximation-error estimate: bound minus best found."""
        if self.upper_bound is None or not self.answers:
            return None
        return max(self.upper_bound - self.answers[0][1], 0.0)


class TopKSimulation:
    """Multi-chain Metropolis–Hastings driver for TOP-k queries.

    Parameters
    ----------
    records:
        The (pruned) database.
    k:
        Answer length.
    target:
        ``"prefix"`` for UTop-Prefix, ``"set"`` for UTop-Set.
    n_chains:
        Number of independent chains (paper recommends dispersed starts;
        Fig. 14 sweeps 20-80).
    rng:
        Seed generator; chains receive independent child generators.
    seed:
        Seed used to build the generator when ``rng`` is not given;
        defaults to ``0`` so simulations are reproducible by default.
    state_probability:
        Optional override for the state-probability oracle.
    oracle:
        ``"auto"`` (exact when densities allow it and the database is
        small enough that per-state integrals stay cheap, Monte-Carlo
        otherwise), ``"exact"``, or ``"montecarlo"``. Ignored when
        ``state_probability`` is given.
    pi_samples:
        Sample count for the Monte-Carlo oracle.
    exact_oracle_limit:
        Largest database size for which ``oracle="auto"`` picks exact.
    use_pairwise_cache:
        Toggle for the §VI-D pairwise-integral cache (the caching
        ablation benchmark switches this off).
    workers:
        Thread count (or ``"auto"``/``None``) for running chains in
        parallel within each epoch. Chains are independent walks and
        the state/pairwise oracles are deterministic per key, so the
        simulation result is identical for every worker count.
    oracle_retries:
        How many times a failed state-probability oracle call is
        retried (with exponential backoff) before the failure surfaces
        as :class:`~repro.core.errors.ConvergenceError`. The oracle is
        a pure function of the state key, so a retry after a transient
        fault reproduces the exact value the clean call would have
        returned.
    retry_backoff:
        Base sleep in seconds before the ``i``-th oracle retry
        (``retry_backoff * 2**i``); set to 0 in tests.
    plan:
        Optional precompiled sampling plan for the same records (used
        only to draw initial chain states); lets the computation cache
        share one compiled plan across simulations.
    pairwise_cache:
        Optional externally owned Eq. 1 memo. When given (and
        ``use_pairwise_cache`` is on) the simulation reads and feeds
        this shared cache instead of a private one, so pairwise
        integrals are shared with the exact and rank-aggregation
        paths.
    backend:
        ``"thread"`` (default), ``"process"``, or ``"auto"``. With
        ``"process"``, each epoch ships chain walk states to a pool of
        worker processes that rebuild the state-probability oracle from
        a shared-memory descriptor and continue the walks there. Chain
        generators round-trip with their exact bit-generator state and
        the oracles are pure functions of the state key, so results are
        bit-identical to the thread backend. Requires a built-in oracle
        (a custom ``state_probability`` closure cannot be shipped to
        another process); ``"auto"`` falls back to threads in that case
        or on single-core hosts.
    """

    def __init__(
        self,
        records: Sequence[UncertainRecord],
        k: int,
        target: str = "prefix",
        n_chains: int = 10,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        state_probability: Optional[Callable[[Hashable], float]] = None,
        oracle: str = "auto",
        pi_samples: int = 5000,
        use_pairwise_cache: bool = True,
        exact_oracle_limit: int = 60,
        workers: Union[int, str, None] = None,
        oracle_retries: int = 2,
        retry_backoff: float = 0.05,
        plan: Optional[SamplingPlan] = None,
        pairwise_cache: Optional[PairwiseCache] = None,
        backend: str = "thread",
    ) -> None:
        if target not in ("prefix", "set"):
            raise QueryError(f"unknown simulation target {target!r}")
        if backend not in ("thread", "process", "auto"):
            raise QueryError(f"unknown execution backend {backend!r}")
        if k < 1 or k > len(records):
            raise QueryError(f"invalid k={k} for database of {len(records)}")
        if n_chains < 2:
            raise QueryError("need at least two chains for convergence checks")
        self.records = list(records)
        self.k = k
        self.target = target
        self.n_chains = n_chains
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.workers = resolve_workers(workers, tasks=n_chains)
        self._by_id = {rec.record_id: rec for rec in self.records}
        if plan is not None:
            # A shared precompiled plan (typically the engine cache's
            # compile_plan result). It only seeds initial chain states,
            # so tie-perturbed shared plans are fine — if anything they
            # respect the tie semantics better than a bare rebuild.
            self._plan: SamplingPlan = plan
        else:
            self._plan = build_sampling_plan(
                [rec.score for rec in self.records]
            )
        if oracle_retries < 0:
            raise QueryError("oracle_retries must be non-negative")
        self.oracle_retries = oracle_retries
        self.retry_backoff = retry_backoff
        self._state_cache: Dict[Hashable, float] = {}
        # The state-probability memo is shared across chain worker
        # threads (paper §VI-D "Caching"), so reads/writes take a lock.
        self._state_lock = threading.Lock()
        # Oracle descriptor for the process backend: worker processes
        # rebuild the oracle from (kind, seed, pi_samples) rather than
        # receiving the closure, which cannot be pickled. ``_build_oracle``
        # overwrites kind/seed when it constructs a built-in oracle.
        self._oracle_kind = "custom"
        self._oracle_seed: Optional[int] = None
        self._pi_samples = pi_samples
        self._oracle = state_probability or self._build_oracle(
            oracle, pi_samples, exact_oracle_limit
        )
        if backend == "process" and self._oracle_kind == "custom":
            raise QueryError(
                "backend='process' cannot ship a custom state_probability "
                "callable to worker processes; use backend='thread'"
            )
        if backend == "auto":
            backend = (
                "process"
                if self._oracle_kind != "custom"
                and self.workers > 1
                and (os.cpu_count() or 1) > 1
                else "thread"
            )
        self.backend = backend
        if use_pairwise_cache:
            # An injected cache (the engine's per-database Eq. 1 memo)
            # lets MCMC proposals reuse integrals computed by the exact
            # and rank-aggregation paths, and vice versa.
            if pairwise_cache is None:
                pairwise_cache = PairwiseCache()
            self._pairwise_cache: Optional[PairwiseCache] = pairwise_cache
            self._pairwise = self._pairwise_cache.probability
        else:
            self._pairwise_cache = None
            self._pairwise = probability_greater

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------

    def _build_oracle(
        self, oracle: str, pi_samples: int, exact_limit: int
    ) -> Callable[[Hashable], float]:
        if oracle == "auto":
            use_exact = (
                supports_exact(self.records)
                and len(self.records) <= exact_limit
            )
            oracle = "exact" if use_exact else "montecarlo"
        if oracle not in ("exact", "montecarlo"):
            raise QueryError(f"unknown state-probability oracle {oracle!r}")
        self._oracle_kind = oracle
        if oracle == "montecarlo":
            self._oracle_seed = int(self.rng.integers(2**63))
        return _state_oracle(
            self.records, self.target, oracle, self._oracle_seed, pi_samples
        )

    def _call_oracle(self, key: Hashable) -> float:
        """One oracle evaluation with bounded retry-with-backoff.

        A transient oracle failure (flaky sampling backend, injected
        fault) is retried up to ``oracle_retries`` times; because the
        oracle is a pure function of ``key`` — Monte-Carlo oracles seed
        from a hash of the state's record ids — a successful retry
        yields exactly the value the clean call would have. Persistent
        failure surfaces as :class:`ConvergenceError` with the original
        exception chained.
        """
        return _oracle_with_retry(
            self._oracle, key, self.oracle_retries, self.retry_backoff
        )

    def _cached_pi(self, key: Hashable) -> float:
        with self._state_lock:
            value = self._state_cache.get(key)
        if value is None:
            # Oracle calls run outside the lock (they can be expensive);
            # the oracle is deterministic per key, so two chains racing
            # on the same state store the same value.
            value = self._call_oracle(key)
            with self._state_lock:
                value = self._state_cache.setdefault(key, value)
        return value

    def _initial_state(self, rng: np.random.Generator) -> Tuple[int, ...]:
        """Sample a starting extension by drawing and ranking scores."""
        scores = self._plan.sample(rng, 1)[0]
        order = sorted(
            range(len(self.records)),
            key=lambda i: (-scores[i], self.records[i].record_id),
        )
        return tuple(order)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def _run_epochs(
        self,
        chains: List[MetropolisHastingsChain],
        pool: Optional[ThreadPoolExecutor],
        trace: ConvergenceTrace,
        start: float,
        max_steps: int,
        epoch: int,
        psrf_threshold: float,
        min_epochs: int,
        budget: Optional[Budget] = None,
        advance: Optional[Callable[[int, int], None]] = None,
        advance_all: Optional[Callable[[int], None]] = None,
    ) -> Tuple[bool, int, Optional[str]]:
        """Advance all chains epoch by epoch until mixing or the budget.

        With a thread pool, each chain advances on its own worker; a
        chain only touches its private generator and the shared
        memoization caches, whose entries are pure functions of their
        keys, so any interleaving produces the same chains. When
        ``advance_all`` is given (the process backend) it advances the
        whole ensemble one epoch itself and ``pool``/``advance`` are
        ignored.

        A resource ``budget`` is consulted at epoch boundaries: when it
        expires, the walk stops where it stands and the caller reports
        a best-so-far partial result (the third return element carries
        the stop reason).
        """
        converged = False
        done = 0
        stop_reason: Optional[str] = None
        while done < max_steps:
            if budget is not None and budget.expired():
                stop_reason = budget.exhausted_reason()
                break
            todo = min(epoch, max_steps - done)
            if advance is None:
                step = lambda index, steps: chains[index].run(steps)
            else:
                step = advance
            if advance_all is not None:
                advance_all(todo)
            elif pool is not None:
                list(
                    pool.map(
                        lambda index: step(index, todo),
                        range(len(chains)),
                    )
                )
            else:
                for index in range(len(chains)):
                    step(index, todo)
            done += todo
            metrics.inc("mcmc_steps_total", float(todo * len(chains)))
            try:
                # Summarize states by log-probability: pi is heavy-tailed
                # across the walk, and the PSRF of the raw values would
                # be dominated by rare high-probability excursions.
                summaries = [
                    np.log(np.maximum(np.asarray(c.trace), 1e-300))
                    for c in chains
                ]
                psrf = gelman_rubin(summaries)
            except EvaluationError as exc:
                # Chains too short for a PSRF yet (tiny epoch budgets);
                # keep running and try again next epoch.
                logger.warning(
                    "Gelman-Rubin unavailable at step %d: %s", done, exc
                )
                psrf = float("inf")
            trace.steps.append(done)
            trace.psrf.append(psrf)
            trace.elapsed.append(time.perf_counter() - start)
            if len(trace.steps) >= min_epochs and psrf <= psrf_threshold:
                converged = True
                break
        return converged, done, stop_reason

    def run(
        self,
        max_steps: int = 5000,
        epoch: int = 50,
        psrf_threshold: float = 1.05,
        top_l: int = 1,
        rank_matrix: Optional[np.ndarray] = None,
        min_epochs: int = 2,
        budget: Optional[Budget] = None,
        require_convergence: bool = False,
    ) -> MCMCResult:
        """Run all chains until mixing or the per-chain step budget.

        Parameters
        ----------
        max_steps:
            Per-chain step budget.
        epoch:
            Steps between Gelman–Rubin evaluations.
        psrf_threshold:
            PSRF value that declares convergence (1.0 is perfect mixing).
        top_l:
            Number of best states to report.
        rank_matrix:
            Optional ``eta`` matrix enabling the probability upper bound
            / error estimate of §VI-D.
        min_epochs:
            Minimum epochs before convergence may be declared.
        budget:
            Optional resource :class:`~repro.core.budget.Budget`
            checked at epoch boundaries; on expiry the best states
            found so far are returned with ``partial=True``.
        require_convergence:
            When ``True``, a walk that finishes its step budget without
            reaching ``psrf_threshold`` raises
            :class:`~repro.core.errors.ConvergenceError` instead of
            returning an unconverged result. (A budget-stopped walk
            still returns partial answers — running out of resources is
            a degradation, not a failure.)
        """
        start = time.perf_counter()
        # One root per run() call (consumed from self.rng, so repeated
        # runs explore fresh trajectories); each chain gets two spawned
        # child streams — walk randomness and starting state — that are
        # independent of every other chain by SeedSequence construction.
        root = np.random.SeedSequence(int(self.rng.integers(2**63)))
        streams = root.spawn(2 * self.n_chains)
        chains = [
            MetropolisHastingsChain(
                self.records,
                self.k,
                self.target,
                self._cached_pi,
                self._pairwise,
                np.random.default_rng(streams[2 * c]),
                self._initial_state(np.random.default_rng(streams[2 * c + 1])),
            )
            for c in range(self.n_chains)
        ]
        use_processes = self.backend == "process" and self.workers > 1
        pool = (
            ThreadPoolExecutor(max_workers=self.workers)
            if self.workers > 1 and not use_processes
            else None
        )
        # Chains may advance on worker threads, which start with a
        # fresh context: capture the active span and metrics registry
        # here and re-install both around every chain advancement, so
        # per-chain spans attach to the query's trace and oracle-retry
        # counters hit the query's registry.
        parent = current_span()
        registry = active_registry()
        chain_spans: Optional[List[Span]] = (
            None
            if parent is None
            else [
                parent.child("chain", chain=c)
                for c in range(self.n_chains)
            ]
        )

        def advance(index: int, steps: int) -> None:
            with use_registry(registry):
                if chain_spans is None:
                    chains[index].run(steps)
                else:
                    with activate(chain_spans[index]):
                        chains[index].run(steps)

        # Process backend: the compiled plan's arrays plus a picklable
        # oracle descriptor go into one shared-memory segment; each
        # epoch round-trips every chain's walk state to a worker that
        # continues the walk against its own rebuilt (deterministic)
        # oracle. The PSRF check, budget, spans, and merge stay here.
        process_pool: Optional[ProcessPoolExecutor] = None
        segment: Optional[SharedPlanHandle] = None
        advance_all: Optional[Callable[[int], None]] = None
        if use_processes:
            segment = self._plan.export_shared(
                extra={
                    "records": self.records,
                    "mcmc": {
                        "k": self.k,
                        "target": self.target,
                        "oracle_kind": self._oracle_kind,
                        "oracle_seed": self._oracle_seed,
                        "pi_samples": self._pi_samples,
                        "use_pairwise_cache": self._pairwise_cache
                        is not None,
                        "oracle_retries": self.oracle_retries,
                        "retry_backoff": self.retry_backoff,
                    },
                }
            )
            process_pool = ProcessPoolExecutor(
                max_workers=min(self.workers, self.n_chains),
                mp_context=multiprocessing.get_context(_START_METHOD),
            )

            def advance_all(todo: int) -> None:
                nonlocal process_pool
                payloads = [
                    {
                        "segment": segment.name,
                        "state": chain.export_state(),
                        "steps": todo,
                    }
                    for chain in chains
                ]
                results = None
                for attempt in (0, 1):
                    try:
                        results = list(
                            process_pool.map(_advance_chain, payloads)
                        )
                        break
                    except BrokenProcessPool as exc:
                        # A worker died mid-epoch. The pre-epoch chain
                        # states are still in ``payloads``, so a retry
                        # on a fresh pool replays the epoch and lands
                        # on bit-identical chains.
                        process_pool.shutdown(
                            wait=False, cancel_futures=True
                        )
                        process_pool = ProcessPoolExecutor(
                            max_workers=min(self.workers, self.n_chains),
                            mp_context=multiprocessing.get_context(
                                _START_METHOD
                            ),
                        )
                        if attempt:
                            raise EvaluationError(
                                "MCMC epoch failed twice: worker "
                                "processes crashed"
                            ) from exc
                        logger.warning(
                            "worker process crashed mid-epoch; retrying "
                            "the epoch with identical chain states"
                        )
                        registry.inc("mcmc_epoch_retries_total")
                for chain, (state, counter_rows, pairwise_rows) in zip(
                    chains, results
                ):
                    chain.import_state(state)
                    registry.absorb_counters(counter_rows)
                    if self._pairwise_cache is not None:
                        self._pairwise_cache.merge(pairwise_rows)

        trace = ConvergenceTrace(steps=[], psrf=[], elapsed=[])
        converged = False
        done = 0
        stop_reason: Optional[str] = None
        try:
            converged, done, stop_reason = self._run_epochs(
                chains, pool, trace, start, max_steps, epoch,
                psrf_threshold, min_epochs, budget=budget,
                advance=advance, advance_all=advance_all,
            )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
            if process_pool is not None:
                process_pool.shutdown(wait=True)
            if segment is not None:
                segment.unlink()
            if chain_spans is not None:
                for chain_span, chain in zip(chain_spans, chains):
                    chain_span.set(
                        steps=done, states_visited=len(chain.visited)
                    )
                    chain_span.end()
        if require_convergence and not converged and stop_reason is None:
            last_psrf = trace.psrf[-1] if trace.psrf else float("inf")
            raise ConvergenceError(
                f"MCMC failed to converge: PSRF {last_psrf:.4f} > "
                f"{psrf_threshold} after {done} steps per chain "
                f"({self.n_chains} chains)"
            )

        merged: Dict[Hashable, float] = {}
        visit_totals: Dict[Hashable, int] = {}
        for chain in chains:
            for key, value in chain.visited.items():
                existing = merged.get(key)
                if existing is None or value > existing:
                    merged[key] = value
            for key, count in chain.visit_counts.items():
                visit_totals[key] = visit_totals.get(key, 0) + count
        total_visits = sum(visit_totals.values())
        visit_frequencies = {
            key: count / total_visits for key, count in visit_totals.items()
        } if total_visits else {}
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], str(kv[0])))
        bound = None
        if rank_matrix is not None:
            bound = (
                prefix_probability_upper_bound(rank_matrix, self.k)
                if self.target == "prefix"
                else set_probability_upper_bound(rank_matrix, self.k)
            )
        total_steps = sum(c.steps for c in chains)
        accepted = sum(c.accepted for c in chains)
        return MCMCResult(
            answers=ranked[:top_l],
            trace=trace,
            converged=converged,
            total_steps=total_steps,
            acceptance_rate=accepted / total_steps if total_steps else 0.0,
            elapsed=time.perf_counter() - start,
            upper_bound=bound,
            partial=stop_reason is not None,
            stop_reason=stop_reason,
            states_visited=len(merged),
            probability_mass=min(sum(merged.values()), 1.0),
            visit_frequencies=visit_frequencies,
        )

    @property
    def pairwise_cache_stats(self) -> Optional[Tuple[int, int]]:
        """(hits, misses) of the pairwise cache, if caching is enabled."""
        if self._pairwise_cache is None:
            return None
        return (self._pairwise_cache.hits, self._pairwise_cache.misses)


# ----------------------------------------------------------------------
# process-backend worker side
# ----------------------------------------------------------------------

class _WorkerChainContext:
    """Per-process attachment to one simulation's shared segment.

    Built once per (worker process, segment) and cached in
    :data:`_CHAIN_CONTEXTS`: the records, rebuilt oracle, pairwise
    memo, and state-probability cache all persist across the epochs a
    worker serves, so the §VI-D caches warm up in the workers exactly
    as they do in the parent's threads.
    """

    __slots__ = (
        "records",
        "k",
        "target",
        "pairwise",
        "_pairwise_memo",
        "_pairwise_shipped",
        "_oracle",
        "_retries",
        "_backoff",
        "_cache",
    )

    def __init__(self, name: str) -> None:
        plan = SamplingPlan.attach_shared(SharedPlanHandle(name))
        extra = plan.shared_extra
        self.records = extra["records"]
        cfg = extra["mcmc"]
        self.k = int(cfg["k"])
        self.target = str(cfg["target"])
        self._retries = int(cfg["oracle_retries"])
        self._backoff = float(cfg["retry_backoff"])
        if cfg["use_pairwise_cache"]:
            self._pairwise_memo: Optional[PairwiseCache] = PairwiseCache()
            self.pairwise = self._pairwise_memo.probability
        else:
            self._pairwise_memo = None
            self.pairwise = probability_greater
        self._pairwise_shipped = 0
        self._oracle = _state_oracle(
            self.records,
            self.target,
            cfg["oracle_kind"],
            cfg["oracle_seed"],
            cfg["pi_samples"],
        )
        self._cache: Dict[Hashable, float] = {}

    def cached_pi(self, key: Hashable) -> float:
        """Memoized oracle lookup (single-threaded inside a worker)."""
        value = self._cache.get(key)
        if value is None:
            value = _oracle_with_retry(
                self._oracle, key, self._retries, self._backoff
            )
            self._cache[key] = value
        return value

    def drain_pairwise(
        self,
    ) -> List[Tuple[Tuple[str, str], float]]:
        """Pairwise integrals computed since the last drain.

        Shipped home so the parent's shared §VI-D memo warms up exactly
        as it would have had the proposals run on parent threads. After
        a worker crash the replacement worker re-ships from scratch;
        the parent's merge is idempotent, so that only costs bytes.
        """
        if self._pairwise_memo is None:
            return []
        fresh = self._pairwise_memo.snapshot(self._pairwise_shipped)
        self._pairwise_shipped += len(fresh)  # reprolint: disable=CON001 -- worker-process-side counter: each pool worker is single-threaded, so its context is never shared
        return fresh


#: Worker-global context cache, keyed by segment name. Worker processes
#: are single-threaded (one task at a time), so plain dict access is
#: safe; entries live until the worker exits with the pool.
_CHAIN_CONTEXTS: Dict[str, _WorkerChainContext] = {}


def _worker_chain_context(name: str) -> _WorkerChainContext:
    context = _CHAIN_CONTEXTS.get(name)
    if context is None:
        context = _WorkerChainContext(name)
        _CHAIN_CONTEXTS[name] = context  # reprolint: disable=CON001 -- populated only inside single-threaded pool workers, never in the parent
    return context


def _advance_chain(
    payload: Dict[str, Any],
) -> Tuple[
    Dict[str, Hashable],
    List[Tuple[str, Dict[str, str], float]],
    List[Tuple[Tuple[str, str], float]],
]:
    """Process-pool task: continue one chain's walk for one epoch.

    Rebuilds a chain shell around the shipped walk state, advances it
    under a private metrics registry, and returns the new state, the
    counter rows for the parent to absorb, and the pairwise integrals
    computed since the worker's last report (for the parent's shared
    memo).
    """
    context = _worker_chain_context(payload["segment"])
    chain = MetropolisHastingsChain.from_state(
        context.records,
        context.k,
        context.target,
        context.cached_pi,
        context.pairwise,
        payload["state"],
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        chain.run(payload["steps"])
    return (
        chain.export_state(),
        registry.counter_items(),
        context.drain_pairwise(),
    )
