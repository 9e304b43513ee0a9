"""Unit tests for deterministic sharded sampling (`ParallelSampler`).

The load-bearing property is worker-count invariance: for a fixed
(seed, shards) pair every merged result must be bit-identical whether
the shards run on one thread or eight. Accuracy itself is inherited
from `MonteCarloEvaluator` and covered by its own tests; here we pin
the sharding, merging, and knob-validation layer.
"""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.core.exact import ExactEvaluator
from repro.core.montecarlo import select_top_rank_candidates
from repro.core.parallel import DEFAULT_SHARDS, ParallelSampler, resolve_workers
from repro.core.records import certain, uniform


@pytest.fixture
def db(paper_db):
    return paper_db


def samplers(db, worker_counts=(1, 2, 5), **kwargs):
    return [ParallelSampler(db, seed=42, workers=w, **kwargs) for w in worker_counts]


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_auto_is_positive_and_capped(self):
        assert 1 <= resolve_workers("auto") <= 8

    def test_explicit_integer(self):
        assert resolve_workers(3) == 3

    def test_tasks_cap(self):
        assert resolve_workers(16, tasks=4) == 4

    def test_unknown_string_rejected(self):
        with pytest.raises(QueryError, match="unknown workers"):
            resolve_workers("turbo")

    def test_nonpositive_rejected(self):
        with pytest.raises(QueryError, match="positive"):
            resolve_workers(0)


class TestShardSizes:
    def test_even_split(self, db):
        sampler = ParallelSampler(db, workers=1)
        assert sampler.shard_sizes(800) == [100] * DEFAULT_SHARDS

    def test_remainder_goes_to_leading_shards(self, db):
        sampler = ParallelSampler(db, workers=1, shards=3)
        assert sampler.shard_sizes(11) == [4, 4, 3]

    def test_budget_below_shard_count(self, db):
        sampler = ParallelSampler(db, workers=1, shards=8)
        sizes = sampler.shard_sizes(3)
        assert sum(sizes) == 3 and sizes[3:] == [0] * 5

    def test_zero_budget_rejected(self, db):
        sampler = ParallelSampler(db, workers=1)
        with pytest.raises(QueryError, match="at least one sample"):
            sampler.shard_sizes(0)

    def test_invalid_shards_rejected(self, db):
        with pytest.raises(QueryError, match="shards"):
            ParallelSampler(db, shards=0)


class TestWorkerCountInvariance:
    """Identical results for any worker count, given fixed shards."""

    def test_sample_scores(self, db):
        drawn = [s.sample_scores(1_000, seed=7) for s in samplers(db)]
        assert np.array_equal(drawn[0], drawn[1])
        assert np.array_equal(drawn[0], drawn[2])

    def test_rank_count_matrix(self, db):
        counts = [s.rank_counts(2_000, seed=3).counts for s in samplers(db)]
        assert np.array_equal(counts[0], counts[1])
        assert np.array_equal(counts[0], counts[2])
        assert counts[0].sum() == pytest.approx(2_000 * len(db))

    def test_empirical_distributions(self, db):
        tables = [s.empirical_top_prefixes(2, 2_000, seed=1) for s in samplers(db)]
        assert tables[0] == tables[1] == tables[2]
        sets = [s.empirical_top_sets(2, 2_000, seed=1) for s in samplers(db)]
        assert sets[0] == sets[1] == sets[2]

    def test_per_call_seed_isolation(self, db):
        sampler = ParallelSampler(db, seed=42, workers=2)
        first = sampler.sample_scores(500, seed=9)
        sampler.rank_counts(1_000, seed=2)  # interleaved other call
        again = sampler.sample_scores(500, seed=9)
        assert np.array_equal(first, again)
        different = sampler.sample_scores(500, seed=10)
        assert not np.array_equal(first, different)


class TestAccuracy:
    """Merged estimates converge to the exact answers."""

    def test_rank_probability_matrix(self, db):
        sampler = ParallelSampler(db, seed=0, workers=2)
        estimate = sampler.rank_counts(60_000).counts / 60_000
        exact = ExactEvaluator(db).rank_probability_matrix()
        assert np.allclose(estimate, exact, atol=0.02)

    def test_prefix_probability(self, db):
        sampler = ParallelSampler(db, seed=0, workers=2)
        # Paper's worked example: P(t5, t1, t2 prefix) = 7/16.
        value = sampler.empirical_top_prefixes(3, 60_000)[("t5", "t1", "t2")]
        assert value == pytest.approx(0.4375, abs=0.02)

    def test_top_rank_candidates_match_serial_selection(self, db):
        sampler = ParallelSampler(db, seed=0, workers=3)
        matrix = sampler.rank_counts(40_000, max_rank=2).counts / 40_000
        ranked = select_top_rank_candidates(db, matrix, 1, 2, 3)
        assert ranked[0][0].record_id == "t5"
        assert ranked[0][1] == pytest.approx(1.0, abs=0.02)
        probs = [p for _rec, p in ranked]
        assert probs == sorted(probs, reverse=True)


class TestFactoryHook:
    def test_factory_receives_distinct_child_seeds(self):
        db = [uniform("a", 0.0, 1.0), certain("b", 0.5)]
        seeds = []

        def spy(seed):
            seeds.append(seed)
            from repro.core.montecarlo import MonteCarloEvaluator

            return MonteCarloEvaluator(db, seed=seed)

        ParallelSampler(db, seed=7, workers=1, factory=spy)
        assert len(seeds) == DEFAULT_SHARDS
        assert len(set(seeds)) == DEFAULT_SHARDS

    def test_child_seeds_stable_across_constructions(self):
        db = [uniform("a", 0.0, 1.0)]
        captured = []

        def spy(seed):
            captured.append(seed)
            from repro.core.montecarlo import MonteCarloEvaluator

            return MonteCarloEvaluator(db, seed=seed)

        ParallelSampler(db, seed=7, workers=1, factory=spy)
        first = list(captured)
        captured.clear()
        ParallelSampler(db, seed=7, workers=4, factory=spy)
        assert captured == first


class TestLifecycle:
    def test_close_shuts_pool_and_sampler_stays_usable(self, db):
        sampler = ParallelSampler(db, seed=42, workers=2)
        before = sampler.rank_counts(500, seed=9).counts
        sampler.close()
        # Closed is not terminal: the pool is re-created lazily.
        again = sampler.rank_counts(500, seed=9).counts
        assert np.array_equal(before, again)
        sampler.close()
        sampler.close()  # idempotent
