"""Unit tests for cooperative budgets and budget-aware estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import certain, uniform
from repro.core.budget import Budget, CancellationToken, SampleCounts
from repro.core.errors import EvaluationError
from repro.core.metrics import MetricsRegistry, use_registry
from repro.core.linext import (
    build_tree,
    enumerate_extensions,
    enumerate_prefixes,
)
from repro.core.exact import ExactEvaluator
from repro.core.montecarlo import MonteCarloEvaluator
from repro.core.numeric import wilson_half_width
from repro.core.parallel import ParallelSampler
from repro.core.ppo import ProbabilisticPartialOrder


class FakeClock:
    """A manually advanced monotonic clock for deterministic deadlines."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCancellationToken:
    def test_starts_active(self):
        token = CancellationToken()
        assert not token.cancelled

    def test_cancel_is_sticky_and_idempotent(self):
        token = CancellationToken()
        token.cancel()
        token.cancel()
        assert token.cancelled
        assert "cancelled" in repr(token)


class TestBudget:
    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)
        with pytest.raises(ValueError):
            Budget(max_samples=-1)
        with pytest.raises(ValueError):
            Budget(max_enumeration=-1)

    def test_unlimited_budget_never_blocks(self):
        budget = Budget()
        assert not budget.expired()
        assert budget.exhausted_reason() is None
        assert budget.take_samples(1_000_000) == 1_000_000
        assert budget.consume_enumeration(1_000_000)
        assert budget.time_remaining() is None
        assert budget.samples_remaining() is None
        assert budget.enumeration_remaining() is None

    def test_deadline_expiry_with_injected_clock(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock)
        assert not budget.expired()
        assert budget.time_remaining() == pytest.approx(5.0)
        clock.now += 10.0
        assert budget.expired()
        assert budget.exhausted_reason() == "deadline"
        assert budget.take_samples(100) == 0
        assert not budget.consume_enumeration()

    def test_cancellation_wins_over_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline=0.0, clock=clock)
        clock.now += 1.0
        budget.token.cancel()
        assert budget.exhausted_reason() == "cancelled"

    def test_sample_grants_are_atomic_and_clipped(self):
        budget = Budget(max_samples=100)
        assert budget.take_samples(60) == 60
        assert budget.take_samples(60) == 40
        assert budget.take_samples(60) == 0
        assert budget.samples_used == 100
        assert budget.samples_remaining() == 0
        assert budget.exhausted_reason() == "samples"
        # Sample exhaustion is not time expiry.
        assert not budget.expired()

    def test_take_samples_rejects_negative(self):
        with pytest.raises(ValueError):
            Budget().take_samples(-1)

    def test_enumeration_is_all_or_nothing(self):
        budget = Budget(max_enumeration=3)
        assert budget.consume_enumeration(2)
        assert not budget.consume_enumeration(2)
        assert budget.consume_enumeration(1)
        assert not budget.consume_enumeration()
        assert budget.enumeration_used == 3
        assert budget.exhausted_reason() == "enumeration"

    def test_repr_mentions_usage(self):
        budget = Budget(max_samples=10)
        budget.take_samples(4)
        assert "samples_used=4" in repr(budget)


class TestDeadlineEdgeCases:
    """The serving layer's deadline corners: admission-expired budgets,
    sub-millisecond remainders, and the denial counters `/metrics`
    surfaces."""

    def test_already_expired_at_admission(self):
        # deadline=0 is the serving layer's mapping for a request whose
        # SLO was spent before execution started: born expired, every
        # grant denied, enumeration refused.
        budget = Budget(deadline=0.0)
        assert budget.expired()
        assert budget.exhausted_reason() == "deadline"
        assert budget.take_samples(10) == 0
        assert not budget.consume_enumeration(1)

    def test_for_deadline_clamps_negative_remaining(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            budget = Budget.for_deadline(-3.5)
        assert budget.deadline == 0.0
        assert budget.expired()
        assert (
            registry.counter_total("budget_admission_expired_total") == 1.0
        )

    def test_for_deadline_passes_positive_remaining_through(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            budget = Budget.for_deadline(2.0, max_samples=7)
        assert budget.deadline == 2.0
        assert budget.max_samples == 7
        assert not budget.expired()
        assert (
            registry.counter_total("budget_admission_expired_total") == 0.0
        )

    def test_sub_millisecond_remaining_grants_then_denies(self):
        clock = FakeClock()
        budget = Budget(deadline=0.0005, clock=clock)
        assert not budget.expired()
        assert 0.0 < budget.time_remaining() <= 0.0005
        assert budget.take_samples(10) == 10
        clock.now += 0.0006
        assert budget.expired()
        assert budget.take_samples(10) == 0

    def test_denial_counters_reach_the_registry(self):
        # The counters the serve smoke asserts through GET /metrics.
        registry = MetricsRegistry()
        with use_registry(registry):
            expired = Budget(deadline=0.0)
            assert expired.take_samples(5) == 0
            capped = Budget(max_samples=3)
            assert capped.take_samples(5) == 3
        denials = registry.counter_value(
            "budget_denials_total", resource="samples"
        )
        assert denials >= 1.0
        grants = registry.counter_value(
            "budget_sample_grants_total", resource="samples"
        )
        assert grants == 3.0


class TestSampleCounts:
    def test_partial_flag(self):
        counts = SampleCounts(np.zeros((2, 2)), done=5, requested=10)
        assert counts.partial
        full = SampleCounts(np.zeros((2, 2)), done=10, requested=10)
        assert not full.partial

    def test_merge_adds_and_keeps_first_reason(self):
        a = SampleCounts(np.ones((2, 2)), done=3, requested=5, reason=None)
        b = SampleCounts(np.ones((2, 2)), done=2, requested=5, reason="deadline")
        merged = a.merge(b)
        assert merged.done == 5
        assert merged.requested == 10
        assert merged.reason == "deadline"
        np.testing.assert_array_equal(merged.counts, np.full((2, 2), 2.0))


class TestWilsonHalfWidth:
    def test_zero_samples_is_infinite(self):
        assert wilson_half_width(0.5, 0) == float("inf")

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            wilson_half_width(0.5, -1)

    def test_shrinks_with_sample_count(self):
        wide = wilson_half_width(0.5, 10)
        narrow = wilson_half_width(0.5, 10_000)
        assert 0.0 < narrow < wide < 1.0


@pytest.fixture
def small_db():
    return [
        certain("t1", 6.0),
        uniform("t2", 4.0, 8.0),
        uniform("t3", 3.0, 5.0),
        certain("t4", 1.0),
    ]


class TestEvaluatorBudget:
    def test_unbudgeted_rank_counts_match_matrix(self, small_db):
        evaluator = MonteCarloEvaluator(small_db, seed=11)
        counts = evaluator.rank_counts(200, seed=3)
        matrix = evaluator.rank_count_matrix(200, seed=3)
        assert counts.done == 200
        assert counts.requested == 200
        assert not counts.partial
        np.testing.assert_array_equal(counts.counts, matrix)

    def test_expired_budget_returns_empty_partial(self, small_db):
        clock = FakeClock()
        budget = Budget(deadline=0.0, clock=clock)
        clock.now += 1.0
        evaluator = MonteCarloEvaluator(small_db, seed=11)
        counts = evaluator.rank_counts(200, seed=3, budget=budget)
        assert counts.done == 0
        assert counts.partial
        assert counts.reason == "deadline"

    def test_parallel_rank_counts_worker_invariant(self, small_db):
        serial = ParallelSampler(small_db, seed=5, workers=1)
        threaded = ParallelSampler(small_db, seed=5, workers=4)
        a = serial.rank_counts(500, seed=2)
        b = threaded.rank_counts(500, seed=2)
        assert a.done == b.done == 500
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_parallel_rank_counts_match_legacy_matrix(self, small_db):
        # The merge of shard counts equals the sum of each shard
        # evaluator's unbudgeted count matrix over its share.
        sampler = ParallelSampler(small_db, seed=5, workers=2)
        counts = sampler.rank_counts(500, seed=2)
        matrix = sum(
            evaluator.rank_count_matrix(size, seed=2)
            for evaluator, size in zip(
                sampler._evaluators, sampler.shard_sizes(500)
            )
        )
        np.testing.assert_array_equal(counts.counts, matrix)


class TestExactBudget:
    def test_unlimited_budget_matches_unbudgeted(self, small_db):
        evaluator = ExactEvaluator(small_db)
        plain = evaluator.rank_probability_matrix()
        budgeted = evaluator.rank_probability_matrix(budget=Budget())
        np.testing.assert_array_equal(budgeted, plain)

    def test_expiry_raises_rather_than_returning_partial(self, small_db):
        clock = FakeClock()
        budget = Budget(deadline=0.0, clock=clock)
        clock.now += 1.0
        evaluator = ExactEvaluator(small_db)
        with pytest.raises(EvaluationError, match="exact rank rows"):
            evaluator.rank_probability_matrix(budget=budget)

    def test_mid_computation_expiry_names_progress(self, small_db):
        clock = FakeClock()
        budget = Budget(deadline=1.5, clock=clock)
        evaluator = ExactEvaluator(small_db)

        original = evaluator.rank_probabilities

        def advancing(rec, max_rank=None):
            clock.now += 1.0  # each row costs one fake second
            return original(rec, max_rank=max_rank)

        evaluator.rank_probabilities = advancing
        with pytest.raises(EvaluationError, match="2 of 4 exact rank rows"):
            evaluator.rank_probability_matrix(budget=budget)


class TestEnumerationBudget:
    def test_enumerate_extensions_stops_at_cap(self, small_db):
        ppo = ProbabilisticPartialOrder(small_db)
        full = list(enumerate_extensions(ppo))
        assert len(full) > 2
        budget = Budget(max_enumeration=2)
        clipped = list(enumerate_extensions(ppo, budget=budget))
        assert len(clipped) == 2
        assert clipped == full[:2]
        assert budget.exhausted_reason() == "enumeration"

    def test_enumerate_prefixes_stops_at_cap(self, small_db):
        ppo = ProbabilisticPartialOrder(small_db)
        full = list(enumerate_prefixes(ppo, 2))
        budget = Budget(max_enumeration=1)
        clipped = list(enumerate_prefixes(ppo, 2, budget=budget))
        assert len(clipped) == 1
        assert clipped == full[:1]

    def test_build_tree_raises_on_exhaustion(self, small_db):
        ppo = ProbabilisticPartialOrder(small_db)
        budget = Budget(max_enumeration=1)
        with pytest.raises(EvaluationError, match="enumeration budget"):
            build_tree(ppo, budget=budget)
