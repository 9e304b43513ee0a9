"""Cooperative resource budgets for query evaluation.

The paper's evaluation algorithms trade accuracy for time (exact
enumeration vs. Monte-Carlo vs. MCMC, Figures 9-13), but a production
engine must also bound *resources*: wall-clock time, total samples
drawn, and enumeration work. This module provides the primitives the
engine and estimators cooperate through:

- :class:`CancellationToken` — a thread-safe flag a caller flips to
  abort work early; estimators poll it at chunk boundaries.
- :class:`Budget` — a wall-clock deadline plus sample and enumeration
  caps. Estimators never *race* on the sample cap: the engine grants
  samples up front with :meth:`Budget.take_samples` (an atomic
  reservation), so the number of samples actually drawn is a pure
  function of the budget state at call time — never of thread
  scheduling. Deadlines and cancellation are checked best-effort at
  chunk/epoch boundaries and are inherently scheduling-dependent;
  callers that need bit-identical reruns should rely on the sample and
  enumeration caps (see docs/DEVELOPMENT.md, "Robustness
  architecture").
- :class:`SampleCounts` — a best-so-far partial estimator result: the
  rank-count matrix accumulated before the budget ran out, how many
  samples backed it, and why accumulation stopped.

Budgets are *cooperative*: nothing is interrupted pre-emptively, so a
single long-running NumPy kernel call can overshoot a deadline by one
chunk. That is by design — chunk sizes in the estimators are bounded,
and pre-emption would sacrifice determinism.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import metrics
from .trace import accumulate

__all__ = [
    "Budget",
    "CancellationToken",
    "SampleCounts",
]


class CancellationToken:
    """A thread-safe cooperative cancellation flag.

    The owner calls :meth:`cancel`; workers poll :attr:`cancelled` at
    chunk boundaries and wind down returning their best-so-far result.
    Tokens are one-shot: once cancelled they stay cancelled.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "active"
        return f"CancellationToken({state})"


class Budget:
    """A cooperative resource budget for one query (or query batch).

    Parameters
    ----------
    deadline:
        Wall-clock seconds from construction after which :meth:`expired`
        reports ``True``. ``None`` means no time limit.
    max_samples:
        Total Monte-Carlo samples this budget may grant across all
        :meth:`take_samples` calls. ``None`` means unlimited.
    max_enumeration:
        Total enumeration states (tree nodes, prefixes) this budget may
        grant across all :meth:`consume_enumeration` calls. ``None``
        means unlimited.
    token:
        Optional external :class:`CancellationToken`; a fresh private
        token is created when omitted.
    clock:
        Monotonic-clock callable, injectable for deterministic tests.

    All mutating methods are thread-safe. Sample grants are *atomic
    reservations*: concurrent shards never consume from the cap
    directly, so the granted total is scheduling-independent.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_samples: Optional[int] = None,
        max_enumeration: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be non-negative, got {deadline!r}")
        if max_samples is not None and max_samples < 0:
            raise ValueError(
                f"max_samples must be non-negative, got {max_samples!r}"
            )
        if max_enumeration is not None and max_enumeration < 0:
            raise ValueError(
                f"max_enumeration must be non-negative, got {max_enumeration!r}"
            )
        self.deadline = deadline
        self.max_samples = max_samples
        self.max_enumeration = max_enumeration
        self.token = token if token is not None else CancellationToken()
        self._clock = clock
        self._start = clock()
        self._lock = threading.Lock()
        self._samples_used = 0
        self._enumeration_used = 0

    @classmethod
    def for_deadline(
        cls,
        seconds_remaining: float,
        max_samples: Optional[int] = None,
        max_enumeration: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Budget":
        """A budget for a request that must answer within a deadline.

        Unlike the constructor, a negative ``seconds_remaining`` is not
        an error: the request arrived with its deadline already expired
        (slow network, long admission queue), so the budget is *born
        expired* — :meth:`expired` is immediately ``True``, every stage
        that needs time is skipped, and the degradation ladder collapses
        straight to the always-allowed baseline rung. The serving layer
        maps every request through this so an exhausted deadline yields
        a flagged partial answer, never an HTTP 504. Emits
        ``budget_admission_expired_total`` when the clamp fires.
        """
        remaining = float(seconds_remaining)
        if remaining <= 0.0:
            metrics.inc("budget_admission_expired_total")
            remaining = 0.0
        return cls(
            deadline=remaining,
            max_samples=max_samples,
            max_enumeration=max_enumeration,
            token=token,
            clock=clock,
        )

    # -- time ----------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self._start

    def time_remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline)."""
        if self.deadline is None:
            return None
        return self.deadline - self.elapsed()

    def expired(self) -> bool:
        """Whether work should stop *now* (cancelled or past deadline).

        Sample/enumeration exhaustion is *not* reported here — those
        caps are consumed through explicit grants and only stop the
        stages that need them.
        """
        if self.token.cancelled:
            return True
        remaining = self.time_remaining()
        return remaining is not None and remaining <= 0

    def exhausted_reason(self) -> Optional[str]:
        """Short label for why the budget is blocking, or ``None``.

        One of ``"cancelled"``, ``"deadline"``, ``"samples"``,
        ``"enumeration"`` — checked in that order.
        """
        if self.token.cancelled:
            return "cancelled"
        remaining = self.time_remaining()
        if remaining is not None and remaining <= 0:
            return "deadline"
        with self._lock:
            if (
                self.max_samples is not None
                and self._samples_used >= self.max_samples
            ):
                return "samples"
            if (
                self.max_enumeration is not None
                and self._enumeration_used >= self.max_enumeration
            ):
                return "enumeration"
        return None

    # -- samples -------------------------------------------------------

    @property
    def samples_used(self) -> int:
        """Samples granted so far."""
        with self._lock:
            return self._samples_used

    def samples_remaining(self) -> Optional[int]:
        """Samples still grantable (``None`` when uncapped)."""
        if self.max_samples is None:
            return None
        with self._lock:
            return max(0, self.max_samples - self._samples_used)

    def take_samples(self, requested: int) -> int:
        """Atomically reserve up to ``requested`` samples.

        Returns the granted count in ``[0, requested]`` — the full
        request when the cap allows it, the remainder when the cap is
        nearly drained, and ``0`` when it is empty, cancelled, or past
        deadline. The caller draws exactly the granted number.
        """
        if requested < 0:
            raise ValueError(f"requested must be non-negative, got {requested!r}")
        if self.expired():
            metrics.inc("budget_denials_total", 1.0, resource="samples")
            accumulate("budget_samples_denied", requested)
            return 0
        with self._lock:
            if self.max_samples is None:
                grant = requested
            else:
                grant = min(requested, max(0, self.max_samples - self._samples_used))
            self._samples_used += grant
        if grant > 0:
            metrics.inc(
                "budget_sample_grants_total", float(grant), resource="samples"
            )
            accumulate("budget_samples_granted", grant)
        if grant < requested:
            metrics.inc("budget_denials_total", 1.0, resource="samples")
        return grant

    # -- enumeration ---------------------------------------------------

    @property
    def enumeration_used(self) -> int:
        """Enumeration states granted so far."""
        with self._lock:
            return self._enumeration_used

    def enumeration_remaining(self) -> Optional[int]:
        """Enumeration states still grantable (``None`` when uncapped)."""
        if self.max_enumeration is None:
            return None
        with self._lock:
            return max(0, self.max_enumeration - self._enumeration_used)

    def consume_enumeration(self, count: int = 1) -> bool:
        """Consume ``count`` enumeration states; ``False`` when exhausted.

        Unlike :meth:`take_samples` this is all-or-nothing: enumeration
        loops advance one state at a time, so a partial grant has no
        meaning. A ``False`` return means the loop should stop and
        return its best-so-far answer with ``partial=True``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count!r}")
        if self.expired():
            metrics.inc("budget_denials_total", 1.0, resource="enumeration")
            accumulate("budget_enumeration_denied")
            return False
        with self._lock:
            if (
                self.max_enumeration is not None
                and self._enumeration_used + count > self.max_enumeration
            ):
                granted = False
            else:
                self._enumeration_used += count
                granted = True
        if granted:
            accumulate("budget_enumeration_granted", count)
        else:
            metrics.inc("budget_denials_total", 1.0, resource="enumeration")
            accumulate("budget_enumeration_denied")
        return granted

    def __repr__(self) -> str:
        return (
            f"Budget(deadline={self.deadline!r}, "
            f"max_samples={self.max_samples!r}, "
            f"max_enumeration={self.max_enumeration!r}, "
            f"samples_used={self.samples_used}, "
            f"enumeration_used={self.enumeration_used})"
        )


@dataclass
class SampleCounts:
    """Best-so-far rank counts from a (possibly budget-clipped) run.

    Attributes
    ----------
    counts:
        ``(n, max_rank)`` integer matrix: ``counts[t, r]`` = number of
        completed samples in which record ``t`` landed at rank ``r``.
    done:
        Samples actually accumulated into ``counts``.
    requested:
        Samples the caller asked for; ``done < requested`` iff the run
        was clipped.
    reason:
        Why accumulation stopped early (``"cancelled"``, ``"deadline"``,
        ``"samples"``) or ``None`` for a complete run.
    """

    counts: np.ndarray
    done: int
    requested: int
    reason: Optional[str] = None

    @property
    def partial(self) -> bool:
        """Whether the run stopped before drawing every requested sample."""
        return self.done < self.requested

    def merge(self, other: "SampleCounts") -> "SampleCounts":
        """Combine shard results (counts and tallies add; reasons join)."""
        reason = self.reason if self.reason is not None else other.reason
        return SampleCounts(
            counts=self.counts + other.counts,
            done=self.done + other.done,
            requested=self.requested + other.requested,
            reason=reason,
        )
