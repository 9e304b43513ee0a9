"""Miniature self-test of the benchmark.

Runs each workload at tiny size (one database of the first input set,
or one ``serve-mixed`` round), untraced and traced, and checks that
every metric ``BENCHMARK.json`` names is reported with its unit; that
a seed generates byte-identical inputs; and that the answer check
rejects perturbed answers but passes sampled answers drawn with another
engine seed. Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from answers import canonical, load_refs, mismatch  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


class _OneExact(workloads.ExactTopK):
    """``exact-topk`` over the first database of the chosen pool."""

    def generate(self, seed):
        return super().generate(seed)[:1]


class _OneDataset(workloads.MCScan):
    """``mc-scan`` over its cheapest dataset (Syn-e prunes to ~10)."""

    def generate(self, seed):
        return [
            unit
            for unit in super().generate(seed)
            if unit.key.endswith("Syn-e-0.5")
        ]


def _tiny(name):
    refs = load_refs()
    if name == "exact-topk":
        return _OneExact(refs)
    if name == "mc-scan":
        return _OneDataset(refs)
    return workloads.ServeMixed()


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    _, result, _ = run.measure(name, _tiny(name), 7, 0.001, trace)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == layers.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_generates_byte_identical_inputs(name):
    workload = run.make_workload(name)
    first = workload.serialize(workload.generate(11))
    assert first == workload.serialize(workload.generate(11))
    assert first != workload.serialize(workload.generate(12))


def _unit(workload, suffix=""):
    """The first unit of seed 0's input set whose key ends in ``suffix``."""
    return next(
        unit for unit in workload.generate(0) if unit.key.endswith(suffix)
    )


def _answers(workload, unit):
    """Each query's canonical answer on one unit, and its reference."""
    engine = workload.engine(unit.records)
    got = {
        name: (canonical(query(engine)), workload.refs["answers"][unit.key][name])
        for name, query, _ in workload.queries
    }
    engine.close()
    return got


@pytest.fixture(scope="module")
def live_answers():
    """Live answers of one exact-topk database and the Cars dataset."""
    refs = load_refs()
    exact = workloads.ExactTopK(refs)
    mc = workloads.MCScan(refs)
    return dict(
        _answers(exact, _unit(exact)), **_answers(mc, _unit(mc, "/Cars"))
    )


def _bumped(got, by):
    bumped = copy.deepcopy(got)
    bumped["answers"][0][1] += by
    return bumped


def _renamed(got):
    renamed = copy.deepcopy(got)
    renamed["answers"][0][0][0] = "not-a-record"
    return renamed


def test_answer_check_accepts_the_program(live_answers):
    for name, (got, ref) in live_answers.items():
        assert mismatch(got, ref) is None, name
        assert mismatch(dict(got, method="baseline"), ref) is not None


def test_answer_check_rejects_perturbed_exact_answers(live_answers):
    for name in ("utop_prefix_3_auto", "utop_prefix_4_mcmc"):
        got, ref = live_answers[name]
        assert mismatch(_bumped(got, 5e-10), ref) is None
        assert mismatch(_bumped(got, 2e-9), ref) is not None
        assert mismatch(_renamed(got), ref) is not None


def test_answer_check_rejects_perturbed_sampled_answers(live_answers):
    got, ref = live_answers["rank_agg"]
    assert mismatch(_bumped(got, ref["tolerance"] / 2), ref) is None
    assert mismatch(_bumped(got, 2 * ref["tolerance"]), ref) is not None
    assert mismatch(_renamed(got), ref) is not None

    # Cars' UTop-Set(5) leads its runner-up by far more than the margin.
    got, ref = live_answers["utop_set_5"]
    assert mismatch(_bumped(got, 0.002), ref) is None
    assert mismatch(_bumped(got, 0.05), ref) is not None
    assert mismatch(_renamed(got), ref) is not None

    got, ref = live_answers["threshold_10_0.3"]
    dropped = dict(got, answers=got["answers"][1:])
    assert mismatch(dropped, ref) is not None
    assert mismatch(_bumped(got, -0.05), ref) is not None


def test_answer_check_passes_another_random_stream(monkeypatch):
    """Sampled answers from another engine seed still pass."""
    monkeypatch.setattr(workloads, "ENGINE_SEED", 12345)
    refs = load_refs()
    for workload, suffix in (
        (workloads.ExactTopK(refs), ""),
        (workloads.MCScan(refs), "/Cars"),
    ):
        unit = _unit(workload, suffix)
        engine = workload.engine(unit.records)
        ops = workload.run_unit(unit, engine)
        engine.close()
        assert [op.error for op in ops if not op.ok] == []


def test_blind_trace_fails_loudly():
    """A layer the workload should call but did not is reported."""
    from tracer import Tracer

    tracer = Tracer()
    assert "piecewise.mul" in layers.unexercised(tracer, "exact-topk")
    assert "serve.coalesce" not in layers.unexercised(tracer, "mc-scan")
