"""Typed query and answer objects for the ranking query families.

The paper defines three query classes (§II-B):

- RECORD-RANK queries — :class:`UTopRankQuery` (Def. 4);
- TOP-k queries — :class:`UTopPrefixQuery` (Def. 5) and
  :class:`UTopSetQuery` (Def. 6), including their ``l``-answer variants;
- RANK-AGGREGATION queries — :class:`RankAggQuery` (Def. 7).

Answers carry their probability (or expected distance) plus evaluation
metadata: which method produced them, how long evaluation took, how much
of the database survived k-dominance pruning, and — for MCMC answers —
the paper's probability-upper-bound error estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, FrozenSet, List, Optional, Tuple

from .errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .budget import Budget
    from .trace import Span

__all__ = [
    "Query",
    "UTopRankQuery",
    "UTopPrefixQuery",
    "UTopSetQuery",
    "RankAggQuery",
    "RecordAnswer",
    "PrefixAnswer",
    "SetAnswer",
    "RankAggAnswer",
    "DegradationEvent",
    "QueryResult",
]

#: Query kinds the engine's ``query()`` dispatcher accepts.
QUERY_KINDS = (
    "utop_rank",
    "utop_prefix",
    "utop_set",
    "rank_aggregation",
    "threshold_topk",
)


@dataclass(frozen=True)
class Query:
    """One fully specified ranking query, ready for ``RankingEngine.query``.

    The unified spec behind every query family: the thin wrapper methods
    (``utop_rank`` and friends) only build one of these, so tracing,
    metrics, cache-delta, and degradation bookkeeping live in exactly
    one dispatcher.

    Attributes
    ----------
    kind:
        One of :data:`QUERY_KINDS`.
    i / j:
        Rank bounds for ``"utop_rank"`` (unused elsewhere).
    k:
        Dominance level for ``"utop_prefix"`` / ``"utop_set"`` /
        ``"threshold_topk"``.
    l:
        Number of answers requested (best-first).
    threshold:
        Probability cut-off for ``"threshold_topk"``.
    method:
        Evaluation method (``"auto"``, ``"exact"``, ``"montecarlo"``,
        ``"mcmc"``, ``"baseline"`` — availability depends on the kind).
    samples:
        Monte-Carlo sample override (``None``: the engine default).
    budget:
        Per-query resource budget (``None``: the engine default).
    seed:
        Per-query stream seed. ``None`` (the default) uses the engine's
        stable per-constructor streams; an integer derives dedicated
        sampling/MCMC streams from it, so two engines built with
        *different* constructor seeds still agree on a query carrying
        the same ``seed``.
    trace:
        Per-query tracing override: ``None`` follows the engine's
        ``trace=`` knob; ``True``/``False`` force it for this query.
    backend:
        Per-query execution-backend override (``"thread"``,
        ``"process"``, or ``"auto"``); ``None`` follows the engine's
        ``backend=`` knob. Results are bit-identical across backends —
        the knob only changes where the sampling work runs.
    """

    kind: str
    i: Optional[int] = None
    j: Optional[int] = None
    k: Optional[int] = None
    l: int = 1
    threshold: Optional[float] = None
    method: str = "auto"
    samples: Optional[int] = None
    budget: Optional["Budget"] = None
    seed: Optional[int] = None
    trace: Optional[bool] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise QueryError(f"unknown query kind {self.kind!r}")
        if self.backend is not None and self.backend not in (
            "thread",
            "process",
            "auto",
        ):
            raise QueryError(f"unknown execution backend {self.backend!r}")
        if self.l < 1:
            raise QueryError("l must be positive")
        if self.kind == "utop_rank":
            if self.i is None or self.j is None:
                raise QueryError("utop_rank requires rank bounds i and j")
            if self.i < 1 or self.j < self.i:
                raise QueryError(
                    f"invalid rank range [{self.i}, {self.j}]"
                )
        elif self.kind in ("utop_prefix", "utop_set", "threshold_topk"):
            if self.k is None or self.k < 1:
                raise QueryError("k must be positive")
            if self.kind == "threshold_topk":
                if self.threshold is None or not 0.0 < self.threshold <= 1.0:
                    raise QueryError("threshold must be in (0, 1]")
        if self.samples is not None and self.samples < 1:
            raise QueryError("samples must be positive")


@dataclass(frozen=True)
class DegradationEvent:
    """One rung of the degradation ladder the engine stepped down.

    Recorded on :attr:`QueryResult.degradation` whenever ``method="auto"``
    abandons or clips an evaluation stage under a resource budget or a
    fault, so callers can see exactly what was sacrificed for the answer
    they got.

    Attributes
    ----------
    stage:
        The evaluation stage involved (``"exact"``, ``"montecarlo"``,
        ``"mcmc"``, ``"baseline"``).
    action:
        What happened: ``"skipped"`` (never started), ``"failed"``
        (raised and was abandoned), ``"clipped"`` (returned a partial
        best-so-far result), or ``"fallback"`` (a lower-fidelity stage
        supplied the answer).
    reason:
        Human-readable cause (budget exhaustion label, exception text).
    """

    stage: str
    action: str
    reason: str


@dataclass(frozen=True)
class UTopRankQuery:
    """UTop-Rank(i, j): most probable record(s) at a rank in ``[i, j]``."""

    i: int
    j: int
    l: int = 1

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < self.i:
            raise QueryError(f"invalid rank range [{self.i}, {self.j}]")
        if self.l < 1:
            raise QueryError("l must be positive")


@dataclass(frozen=True)
class UTopPrefixQuery:
    """UTop-Prefix(k): most probable k-length linear-extension prefix(es)."""

    k: int
    l: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError("k must be positive")
        if self.l < 1:
            raise QueryError("l must be positive")


@dataclass(frozen=True)
class UTopSetQuery:
    """UTop-Set(k): most probable top-k record set(s)."""

    k: int
    l: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError("k must be positive")
        if self.l < 1:
            raise QueryError("l must be positive")


@dataclass(frozen=True)
class RankAggQuery:
    """Rank-Agg: footrule-optimal consensus over linear extensions."""

    distance: str = "footrule"

    def __post_init__(self) -> None:
        if self.distance != "footrule":
            raise QueryError(
                "only the footrule distance admits the polynomial "
                f"aggregation algorithm (got {self.distance!r})"
            )


@dataclass(frozen=True)
class RecordAnswer:
    """One UTop-Rank answer: a record and its rank-range probability."""

    record_id: str
    probability: float


@dataclass(frozen=True)
class PrefixAnswer:
    """One UTop-Prefix answer: an ordered prefix and its probability."""

    prefix: Tuple[str, ...]
    probability: float


@dataclass(frozen=True)
class SetAnswer:
    """One UTop-Set answer: an unordered top-k set and its probability."""

    members: FrozenSet[str]
    probability: float


@dataclass(frozen=True)
class RankAggAnswer:
    """A Rank-Agg answer: the consensus ranking and its expected distance."""

    ranking: Tuple[str, ...]
    expected_distance: float


#: QueryResult fields in (legacy) positional order; the first five are
#: required, the rest default.
_RESULT_FIELDS = (
    "answers",
    "method",
    "elapsed",
    "database_size",
    "pruned_size",
    "error_bound",
    "diagnostics",
    "partial",
    "truncated",
    "confidence_half_width",
    "degradation",
    "cache",
    "trace",
)

_RESULT_REQUIRED = _RESULT_FIELDS[:5]

#: Scalar defaults; ``diagnostics`` / ``degradation`` get fresh
#: containers per instance instead.
_RESULT_DEFAULTS: dict = {
    "error_bound": None,
    "partial": False,
    "truncated": False,
    "confidence_half_width": None,
    "cache": None,
    "trace": None,
}


#: Result fields that legitimately vary run to run.
_VOLATILE_FIELDS = ("elapsed", "cache", "trace")

#: Diagnostics keys (substring match) that carry timings, not answers.
_TIMING_TOKENS = ("elapsed", "seconds", "wall", "cpu", "time")


def _strip_timings(value: Any) -> Any:
    """Recursively drop timing-named keys from diagnostics payloads."""
    if isinstance(value, dict):
        return {
            key: _strip_timings(item)
            for key, item in value.items()
            if not any(token in str(key).lower() for token in _TIMING_TOKENS)
        }
    if isinstance(value, list):
        return [_strip_timings(item) for item in value]
    return value


def _json_default(value: Any) -> Any:
    """Fallback encoder for numpy scalars and other odd leaves."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


@dataclass(init=False)
class QueryResult:
    """Evaluation outcome: answers plus execution metadata.

    Construct by keyword only; positional construction raises
    :class:`TypeError` (it was deprecated through one release cycle)
    because the boolean/optional tail of the field list makes
    positional call sites unreadable.

    Attributes
    ----------
    answers:
        Ranked best-first; element type depends on the query family.
    method:
        ``"exact"``, ``"montecarlo"``, ``"mcmc"``, or ``"baseline"``.
    elapsed:
        Wall-clock evaluation time in seconds.
    database_size / pruned_size:
        Record counts before and after k-dominance pruning.
    error_bound:
        For approximate TOP-k answers: the §VI-D upper-bound gap, when
        available.
    diagnostics:
        Free-form extras (e.g. MCMC convergence traces).
    partial:
        ``True`` when a resource budget clipped evaluation and the
        answers are best-so-far rather than fully evaluated.
    truncated:
        ``True`` when an enumeration cap clipped the UTop-Prefix /
        UTop-Set candidate space, so a better answer may exist outside
        the enumerated region.
    confidence_half_width:
        For partial Monte-Carlo answers: the Wilson-score 95% half-width
        of the top answer's probability given the samples completed.
    degradation:
        Structured :class:`DegradationEvent` log of every ladder step
        taken under ``method="auto"`` (empty for clean evaluations).
    cache:
        Computation-cache increments attributed to this query (hits,
        misses, top-up extensions), when the engine ran with a cache.
    trace:
        Root :class:`~repro.core.trace.Span` of the query, when the
        engine ran with tracing enabled (``None`` otherwise). Export
        with ``trace.to_dict()`` or :meth:`to_dict`.
    """

    answers: List
    method: str
    elapsed: float
    database_size: int
    pruned_size: int
    error_bound: Optional[float]
    diagnostics: dict
    partial: bool
    truncated: bool
    confidence_half_width: Optional[float]
    degradation: List[DegradationEvent]
    cache: Optional[dict]
    trace: Optional["Span"]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if args:
            raise TypeError(
                "QueryResult takes no positional arguments; pass "
                "every field by keyword"
            )
        unknown = sorted(set(kwargs) - set(_RESULT_FIELDS))
        if unknown:
            raise TypeError(
                f"QueryResult got unexpected arguments: {unknown}"
            )
        missing = [name for name in _RESULT_REQUIRED if name not in kwargs]
        if missing:
            raise TypeError(
                f"QueryResult missing required arguments: {missing}"
            )
        for name in _RESULT_FIELDS:
            if name in kwargs:
                value = kwargs[name]
            elif name == "diagnostics":
                value = {}
            elif name == "degradation":
                value = []
            else:
                value = _RESULT_DEFAULTS[name]
            setattr(self, name, value)

    @property
    def top(self) -> Any:
        """The single best answer (or ``None`` when empty).

        The concrete type follows the query family:
        :class:`RecordAnswer`, :class:`PrefixAnswer`, :class:`SetAnswer`,
        or :class:`RankAggAnswer`.
        """
        return self.answers[0] if self.answers else None

    def to_dict(self) -> dict:
        """JSON-serializable rendition of the result.

        Answer objects become plain dicts (frozensets become sorted
        lists) so the result can be returned from a web service or
        logged verbatim.
        """

        def encode(answer):
            if isinstance(answer, RecordAnswer):
                return {
                    "record_id": answer.record_id,
                    "probability": answer.probability,
                }
            if isinstance(answer, PrefixAnswer):
                return {
                    "prefix": list(answer.prefix),
                    "probability": answer.probability,
                }
            if isinstance(answer, SetAnswer):
                return {
                    "members": sorted(answer.members),
                    "probability": answer.probability,
                }
            if isinstance(answer, RankAggAnswer):
                return {
                    "ranking": list(answer.ranking),
                    "expected_distance": answer.expected_distance,
                }
            return answer  # pragma: no cover - future answer kinds

        return {
            "answers": [encode(a) for a in self.answers],
            "method": self.method,
            "elapsed": self.elapsed,
            "database_size": self.database_size,
            "pruned_size": self.pruned_size,
            "error_bound": self.error_bound,
            "diagnostics": dict(self.diagnostics),
            "partial": self.partial,
            "truncated": self.truncated,
            "confidence_half_width": self.confidence_half_width,
            "degradation": [
                {"stage": e.stage, "action": e.action, "reason": e.reason}
                for e in self.degradation
            ],
            "cache": None if self.cache is None else dict(self.cache),
            "trace": None if self.trace is None else self.trace.to_dict(),
        }

    def canonical(self) -> dict:
        """The answer alone: what byte-identical results must share.

        :meth:`to_dict` without the fields that vary run to run
        (``elapsed``, ``cache``, ``trace``), without the planner's
        ``diagnostics.plan`` block — it exists only when planning is
        on and is advisory metadata, not part of the answer — and with
        timing-named diagnostics keys stripped at any depth. Everything
        else, float bit patterns included, is part of the contract that
        equal specs and seeds give equal answers.
        """
        data = self.to_dict()
        for key in _VOLATILE_FIELDS:
            del data[key]
        diagnostics = data["diagnostics"]
        diagnostics.pop("plan", None)
        data["diagnostics"] = _strip_timings(diagnostics)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` rendition serialized to a JSON string.

        Numpy scalars (which reach diagnostics and probabilities from
        the estimators) are coerced to floats; anything else
        unserializable falls back to ``str``.
        """
        return json.dumps(
            self.to_dict(), indent=indent, default=_json_default
        )
