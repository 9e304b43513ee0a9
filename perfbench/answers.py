"""Reference answers and the answer check.

``refs.json`` (next to this file) holds, for every database of the
``exact-topk`` pools and every dataset of the ``mc-scan`` suites, a
reference entry per query, written once by ``build_refs.py`` from the
unmodified program. An entry's ``check`` says how an answer is judged:

- ``exact``: the same record ids in the same order, and every
  probability within 1e-9 of the reference.
- ``oracle`` (the MCMC UTop-Prefix): the walk reports the most probable
  prefix it visited, with that prefix's probability from the exact
  state oracle. The reported prefix must be one of the ``candidates``,
  the most probable prefixes by exact evaluation, and its probability
  must match the candidate's within 1e-9. Which of them a walk finds
  depends on its random stream, so the ids are not pinned.
- ``top`` (a Monte-Carlo 1-UTop answer): ``candidates`` are the
  reference run's leading answers at the same sample count, most
  probable first. Each sampled probability gets a tolerance of ``Z``
  times the combined Wilson 95% half-width of the two estimates (the
  reference's and the new one), so a fresh random stream passes. The
  new answer's probability must be consistent with the reference
  estimate of the same ids, and those ids must not be clearly less
  probable than the reference's best: where the reference's top answer
  leads its runner-up by less than the tolerance, either may be
  returned. Ids missing from the candidates have a reference estimate
  of at most ``floor`` (the last candidate's, or 0 when the reference
  listed every answer it saw).
- ``threshold``: ``candidates`` are every record whose reference
  probability reached ``floor`` (well under the threshold). Each
  returned record's probability must be consistent with its reference
  estimate, and every record whose reference probability clears the
  threshold by more than the tolerance must be returned.
- ``distance`` (the Monte-Carlo Rank-Agg): the ranking must order the
  same records, and its expected footrule distance must be within
  ``tolerance`` of the reference: ``Z`` times the combined ``n /
  sqrt(samples)`` (the engine's own tie tolerance for sampled costs) of
  the two estimates. Near-tied rankings are equally good answers, so
  the order is not pinned.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.core.numeric import wilson_half_width
from repro.core.queries import (
    PrefixAnswer,
    RankAggAnswer,
    RecordAnswer,
    SetAnswer,
)

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

#: Absolute tolerance on exact probabilities.
EXACT_TOLERANCE = 1e-9

#: Widening of a combined 95% half-width: about four standard errors,
#: room for the upward bias of the most probable of many near-tied
#: answers, so a correct program with another random stream passes.
Z = 2.0

#: Leading answers kept per sampled reference.
CANDIDATES = 20


def load_refs() -> Dict[str, Any]:
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def canonical(result: Any) -> Dict[str, Any]:
    """``{"method", "answers": [[ids, value], ...]}`` of a QueryResult."""
    answers: List[List[Any]] = []
    for answer in result.answers:
        if isinstance(answer, RecordAnswer):
            answers.append([[answer.record_id], answer.probability])
        elif isinstance(answer, PrefixAnswer):
            answers.append([list(answer.prefix), answer.probability])
        elif isinstance(answer, SetAnswer):
            answers.append([sorted(answer.members), answer.probability])
        elif isinstance(answer, RankAggAnswer):
            answers.append([list(answer.ranking), answer.expected_distance])
        else:
            raise TypeError(f"unknown answer type {type(answer).__name__}")
    return {"method": result.method, "answers": answers}


# ----------------------------------------------------------------------
# reference entries (written by build_refs.py)
# ----------------------------------------------------------------------


def exact_entry(answer: Dict[str, Any]) -> Dict[str, Any]:
    return dict(answer, check="exact")


def oracle_entry(method: str, candidates: Dict[str, Any]) -> Dict[str, Any]:
    """``candidates``: the canonical exact l-UTop answer."""
    return {
        "check": "oracle",
        "method": method,
        "candidates": candidates["answers"],
    }


def _floor(candidates: List[List[Any]]) -> float:
    """Upper bound on the reference estimate of an unlisted answer."""
    if len(candidates) < CANDIDATES:
        return 0.0
    return candidates[-1][1]


def top_entry(candidates: Dict[str, Any], samples: int) -> Dict[str, Any]:
    """``candidates``: the reference l-UTop answer at ``l=CANDIDATES``."""
    return {
        "check": "top",
        "method": candidates["method"],
        "samples": samples,
        "candidates": candidates["answers"],
        "floor": _floor(candidates["answers"]),
    }


def threshold_entry(
    candidates: Dict[str, Any], samples: int, threshold: float, floor: float
) -> Dict[str, Any]:
    """``candidates``: the reference answer at threshold ``floor``."""
    return {
        "check": "threshold",
        "method": candidates["method"],
        "samples": samples,
        "threshold": threshold,
        "candidates": candidates["answers"],
        "floor": floor,
    }


def distance_entry(
    answer: Dict[str, Any], samples: int, records: int
) -> Dict[str, Any]:
    ranking, distance = answer["answers"][0]
    return {
        "check": "distance",
        "method": answer["method"],
        "ranking": ranking,
        "distance": distance,
        "tolerance": Z * math.sqrt(2.0) * records / math.sqrt(samples),
    }


# ----------------------------------------------------------------------
# the check
# ----------------------------------------------------------------------


def _tolerance(p: float, q: float, samples: int) -> float:
    """``Z`` times the combined half-width of two estimates."""
    return Z * math.hypot(
        wilson_half_width(p, samples), wilson_half_width(q, samples)
    )


def _estimate(ref: Dict[str, Any], ids: List[str]) -> Tuple[float, float]:
    """The reference's estimate of ``ids`` as a ``(low, high)`` range."""
    for ref_ids, value in ref["candidates"]:
        if list(ref_ids) == list(ids):
            return value, value
    return 0.0, ref["floor"]


def _consistent(
    ids: List[str], value: float, ref: Dict[str, Any]
) -> Optional[str]:
    low, high = _estimate(ref, ids)
    tol = _tolerance(high, value, ref["samples"])
    if not low - tol <= value <= high + tol:
        return (
            f"{ids} at {value!r}; the reference estimates it in "
            f"[{low!r}, {high!r}] (tolerance {tol:g})"
        )
    return None


def _check_exact(got, ref) -> Optional[str]:
    if len(got["answers"]) != len(ref["answers"]):
        return f"{len(got['answers'])} answers != {len(ref['answers'])}"
    for (ids, value), (ref_ids, ref_value) in zip(
        got["answers"], ref["answers"]
    ):
        if list(ids) != list(ref_ids):
            return f"ids {ids} != {ref_ids}"
        if not abs(value - ref_value) <= EXACT_TOLERANCE:
            return f"value {value!r} != {ref_value!r}"
    return None


def _check_oracle(got, ref) -> Optional[str]:
    if len(got["answers"]) != 1:
        return f"{len(got['answers'])} answers != 1"
    ids, value = got["answers"][0]
    for ref_ids, ref_value in ref["candidates"]:
        if list(ids) == list(ref_ids):
            if abs(value - ref_value) <= EXACT_TOLERANCE:
                return None
            return f"{ids} at {value!r}, exactly {ref_value!r}"
    return f"{ids} is not among the {len(ref['candidates'])} most probable"


def _check_top(got, ref) -> Optional[str]:
    if len(got["answers"]) != 1:
        return f"{len(got['answers'])} answers != 1"
    ids, value = got["answers"][0]
    problem = _consistent(ids, value, ref)
    if problem:
        return problem
    best_ids, best = ref["candidates"][0]
    _, high = _estimate(ref, ids)
    lead = _tolerance(best, high, ref["samples"])
    if high < best - lead:
        return (
            f"{ids} (reference {high!r}) is clearly less probable than "
            f"{best_ids} ({best!r}, tolerance {lead:g})"
        )
    return None


def _check_threshold(got, ref) -> Optional[str]:
    returned = set()
    for ids, value in got["answers"]:
        if value < ref["threshold"]:
            return f"{ids} at {value!r} is below the threshold"
        problem = _consistent(ids, value, ref)
        if problem:
            return problem
        returned.add(tuple(ids))
    for ids, value in ref["candidates"]:
        tol = _tolerance(value, ref["threshold"], ref["samples"])
        if value - tol >= ref["threshold"] and tuple(ids) not in returned:
            return f"{ids} (reference {value!r}) is missing"
    return None


def _check_distance(got, ref) -> Optional[str]:
    if len(got["answers"]) != 1:
        return f"{len(got['answers'])} answers != 1"
    ranking, distance = got["answers"][0]
    if sorted(ranking) != sorted(ref["ranking"]):
        return "the ranking does not order the database's records"
    if not abs(distance - ref["distance"]) <= ref["tolerance"]:
        return (
            f"distance {distance!r} differs from {ref['distance']!r} by "
            f"more than {ref['tolerance']:g}"
        )
    return None


_CHECKS = {
    "exact": _check_exact,
    "oracle": _check_oracle,
    "top": _check_top,
    "threshold": _check_threshold,
    "distance": _check_distance,
}


def mismatch(got: Dict[str, Any], ref: Dict[str, Any]) -> Optional[str]:
    """Why ``got`` fails the reference, or ``None`` when it passes."""
    if got["method"] != ref["method"]:
        return f"method {got['method']!r} != {ref['method']!r}"
    return _CHECKS[ref["check"]](got, ref)
