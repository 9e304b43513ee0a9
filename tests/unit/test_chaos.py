"""Tests for the deterministic fault-injection harness (`-m chaos`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import certain, uniform
from repro.core.chaos import (
    FaultInjector,
    FaultSchedule,
    FaultyDistribution,
    FaultyOracle,
    crashing_factory,
)
from repro.core.distributions import UniformScore
from repro.core.errors import EvaluationError, InjectedFault
from repro.core.montecarlo import MonteCarloEvaluator
from repro.core.parallel import ParallelSampler

pytestmark = pytest.mark.chaos


@pytest.fixture
def db():
    return [
        certain("t1", 6.0),
        uniform("t2", 4.0, 8.0),
        uniform("t3", 3.0, 5.0),
        certain("t4", 1.0),
    ]


class TestFaultSchedule:
    def test_explicit_call_indices(self):
        schedule = FaultSchedule(calls={0, 2})
        assert [schedule.fire() for _ in range(4)] == [
            True,
            False,
            True,
            False,
        ]
        assert schedule.calls_seen == 4
        assert schedule.faults_fired == 2

    def test_every_nth_call(self):
        schedule = FaultSchedule(every=3)
        fired = [schedule.fire() for _ in range(6)]
        assert fired == [False, False, True, False, False, True]

    def test_rate_is_seed_deterministic(self):
        a = FaultSchedule(rate=0.5, seed=42)
        b = FaultSchedule(rate=0.5, seed=42)
        pattern_a = [a.fire() for _ in range(50)]
        pattern_b = [b.fire() for _ in range(50)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_limit_caps_fault_count(self):
        schedule = FaultSchedule(every=1, limit=2)
        fired = [schedule.fire() for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            FaultSchedule(every=0)
        with pytest.raises(ValueError):
            FaultSchedule(rate=1.5)


class TestFaultyDistribution:
    def test_raise_mode_raises_injected_fault(self):
        dist = FaultyDistribution(
            UniformScore(0.0, 1.0), FaultSchedule(calls={0}), mode="raise"
        )
        rng = np.random.default_rng(0)
        with pytest.raises(InjectedFault):
            dist.sample(rng, 4)
        # The schedule only fired once; the next call is clean.
        out = np.asarray(dist.sample(rng, 4))
        assert out.shape == (4,)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_nan_mode_corrupts_values(self):
        dist = FaultyDistribution(
            UniformScore(0.0, 1.0), FaultSchedule(every=1), mode="nan"
        )
        rng = np.random.default_rng(0)
        out = np.asarray(dist.sample(rng, 4))
        assert np.isnan(out).any()

    def test_inf_mode_scalar(self):
        dist = FaultyDistribution(
            UniformScore(0.0, 1.0), FaultSchedule(every=1), mode="inf"
        )
        rng = np.random.default_rng(0)
        assert np.isinf(dist.sample(rng))

    def test_untargeted_methods_pass_through(self):
        inner = UniformScore(0.0, 1.0)
        dist = FaultyDistribution(
            inner, FaultSchedule(every=1), mode="raise", methods=("cdf",)
        )
        rng = np.random.default_rng(0)
        # sample is not in `methods`, so it never faults.
        np.asarray(dist.sample(rng, 8))
        assert dist.mean() == inner.mean()
        assert dist.pdf(0.5) == inner.pdf(0.5)
        with pytest.raises(InjectedFault):
            dist.cdf(0.5)

    def test_validates_mode_and_methods(self):
        with pytest.raises(ValueError):
            FaultyDistribution(
                UniformScore(0.0, 1.0), FaultSchedule(), mode="explode"
            )
        with pytest.raises(ValueError):
            FaultyDistribution(
                UniformScore(0.0, 1.0), FaultSchedule(), methods=("pdf",)
            )


class TestFaultyOracle:
    def test_scheduled_calls_raise_then_recover(self):
        calls = []

        def oracle(state):
            calls.append(state)
            return 0.25

        flaky = FaultyOracle(oracle, FaultSchedule(calls={0}))
        with pytest.raises(InjectedFault):
            flaky(("a",))
        assert flaky(("a",)) == 0.25
        # The faulting call never reached the inner oracle.
        assert calls == [("a",)]


class TestInjector:
    def test_schedules_are_reproducible_per_seed(self):
        pattern = lambda inj: [
            inj.schedule(rate=0.3).fire() for _ in range(20)
        ]
        assert pattern(FaultInjector(seed=9)) == pattern(FaultInjector(seed=9))

    def test_wrap_records_targets_selected_ids(self, db):
        injector = FaultInjector(seed=1)
        wrapped = injector.wrap_records(
            db, injector.schedule(every=1), record_ids=["t2"]
        )
        assert isinstance(wrapped[1].score, FaultyDistribution)
        assert not isinstance(wrapped[0].score, FaultyDistribution)
        assert [rec.record_id for rec in wrapped] == [
            rec.record_id for rec in db
        ]
        assert ("distribution", "raise") in injector.log


class TestFaultsThroughEstimators:
    def test_nan_scores_are_detected_not_propagated(self, db):
        injector = FaultInjector(seed=3)
        wrapped = injector.wrap_records(
            db, injector.schedule(calls={0}), mode="nan", record_ids=["t2"]
        )
        evaluator = MonteCarloEvaluator(wrapped, seed=7)
        with pytest.raises(EvaluationError, match="non-finite"):
            evaluator.rank_counts(50, seed=1)

    def test_shard_crash_retry_is_bit_identical(self, db):
        clean = ParallelSampler(db, seed=5, workers=2)
        expected = clean.rank_counts(400, seed=2).counts

        injector = FaultInjector(seed=3)
        schedule = injector.schedule(calls={0}, limit=1)
        crashing = ParallelSampler(
            db,
            seed=5,
            workers=2,
            factory=crashing_factory(
                lambda s: MonteCarloEvaluator(db, seed=s), schedule
            ),
        )
        observed = crashing.rank_counts(400, seed=2).counts
        assert schedule.faults_fired == 1
        np.testing.assert_array_equal(observed, expected)

    def test_double_crash_surfaces_evaluation_error(self, db):
        injector = FaultInjector(seed=3)
        schedule = injector.schedule(every=1)  # every call faults
        crashing = ParallelSampler(
            db,
            seed=5,
            workers=2,
            factory=crashing_factory(
                lambda s: MonteCarloEvaluator(db, seed=s), schedule
            ),
        )
        with pytest.raises(EvaluationError, match="failed twice"):
            crashing.rank_counts(400, seed=2)
