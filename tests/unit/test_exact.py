"""Unit tests for the exact piecewise-polynomial probability engine."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.distributions import TruncatedGaussianScore
from repro.core.errors import EvaluationError, QueryError
from repro.core.exact import ExactEvaluator, supports_exact
from repro.core.linext import enumerate_extensions, enumerate_prefixes
from repro.core.pairwise import probability_greater
from repro.core.ppo import ProbabilisticPartialOrder
from repro.core.records import UncertainRecord, certain, uniform

from conftest import random_interval_db


class TestSupportsExact:
    def test_uniforms_and_points_supported(self, paper_db):
        assert supports_exact(paper_db)

    def test_gaussian_not_supported(self):
        rec = UncertainRecord("g", TruncatedGaussianScore(0, 1, -1, 1))
        assert not supports_exact([rec])
        with pytest.raises(EvaluationError):
            ExactEvaluator([rec])

    def test_approximated_gaussian_supported(self):
        smooth = TruncatedGaussianScore(0, 1, -1, 1)
        rec = UncertainRecord("g", smooth.piecewise_approximation(64))
        assert supports_exact([rec])
        ExactEvaluator([rec, certain("c", 0.5)])


class TestExtensionProbability:
    def test_paper_example_probabilities(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}

        def prob(*ids):
            return evaluator.extension_probability([by_id[i] for i in ids])

        # Exact values; the paper's Fig. 4 shows Monte-Carlo estimates
        # 0.418 / 0.02 / 0.063 / 0.24 / 0.01 of these.
        assert prob("t5", "t1", "t2", "t3", "t4", "t6") == pytest.approx(
            0.41666667, abs=1e-6
        )
        assert prob("t5", "t1", "t2", "t4", "t3", "t6") == pytest.approx(
            0.02083333, abs=1e-6
        )
        assert prob("t5", "t1", "t3", "t2", "t4", "t6") == pytest.approx(
            0.0625, abs=1e-6
        )
        assert prob("t5", "t2", "t1", "t3", "t4", "t6") == pytest.approx(
            0.23958333, abs=1e-6
        )
        assert prob("t2", "t5", "t1", "t4", "t3", "t6") == pytest.approx(
            0.01041667, abs=1e-6
        )

    def test_probabilities_sum_to_one(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        total = sum(
            evaluator.extension_probability(ext)
            for ext in enumerate_extensions(ppo)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_intro_example(self, intro_db):
        evaluator = ExactEvaluator(intro_db)
        by_id = {r.record_id: r for r in intro_db}

        def prob(*ids):
            return evaluator.extension_probability([by_id[i] for i in ids])

        # The paper rounds these to 0.25/0.2/0.05; exact values below.
        assert prob("a1", "a2", "a3") == pytest.approx(0.24166667, abs=1e-6)
        assert prob("a1", "a3", "a2") == pytest.approx(0.20416667, abs=1e-6)
        assert prob("a2", "a1", "a3") == pytest.approx(0.05416667, abs=1e-6)
        assert prob("a2", "a3", "a1") == pytest.approx(0.20416667, abs=1e-6)
        assert prob("a3", "a1", "a2") == pytest.approx(0.05416667, abs=1e-6)
        assert prob("a3", "a2", "a1") == pytest.approx(0.24166667, abs=1e-6)

    def test_invalid_extension_raises(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        with pytest.raises(QueryError):
            evaluator.extension_probability(paper_db[:3])
        with pytest.raises(QueryError):
            evaluator.extension_probability(paper_db[:1] * 6)

    def test_impossible_ordering_has_zero_probability(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        order = [by_id[i] for i in ("t6", "t5", "t1", "t2", "t3", "t4")]
        assert evaluator.extension_probability(order) == pytest.approx(0.0)


class TestPrefixProbability:
    def test_paper_prefix(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        prefix = [by_id["t5"], by_id["t1"], by_id["t2"]]
        assert evaluator.prefix_probability(prefix) == pytest.approx(0.4375)

    def test_prefix_equals_sum_of_extensions(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        for prefix in enumerate_prefixes(ppo, 3):
            prefix_ids = tuple(r.record_id for r in prefix)
            total = sum(
                evaluator.extension_probability(ext)
                for ext in enumerate_extensions(ppo)
                if tuple(r.record_id for r in ext[:3]) == prefix_ids
            )
            assert evaluator.prefix_probability(prefix) == pytest.approx(
                total, abs=1e-9
            )

    def test_empty_prefix_is_certain(self, paper_db):
        assert ExactEvaluator(paper_db).prefix_probability([]) == 1.0

    def test_full_length_prefix_equals_extension(self, intro_db):
        evaluator = ExactEvaluator(intro_db)
        for perm in itertools.permutations(intro_db):
            assert evaluator.prefix_probability(perm) == pytest.approx(
                evaluator.extension_probability(perm), abs=1e-9
            )

    def test_duplicate_in_prefix_rejected(self, paper_db):
        with pytest.raises(QueryError):
            ExactEvaluator(paper_db).prefix_probability(
                [paper_db[0], paper_db[0]]
            )


class TestTopSetProbability:
    def test_paper_set(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        members = [by_id["t1"], by_id["t2"], by_id["t5"]]
        assert evaluator.top_set_probability(members) == pytest.approx(0.9375)

    def test_set_equals_sum_over_prefix_orderings(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        members = [by_id["t1"], by_id["t2"], by_id["t5"]]
        total = sum(
            evaluator.prefix_probability(perm)
            for perm in itertools.permutations(members)
        )
        assert evaluator.top_set_probability(members) == pytest.approx(
            total, abs=1e-9
        )

    def test_set_probabilities_sum_to_one(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        sets = {
            frozenset(r.record_id for r in p)
            for p in enumerate_prefixes(ppo, 3)
        }
        total = sum(evaluator.top_set_probability(s) for s in sets)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_whole_database_is_certain_top_set(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        assert evaluator.top_set_probability(paper_db) == pytest.approx(1.0)

    def test_answer_bytes_independent_of_string_hash_seed(self):
        # A frozenset iterates in string-hash order; scoring its members
        # in that order moved this answer's last bit between hash seeds.
        script = (
            "from repro.core.engine import RankingEngine\n"
            "from repro.serve.lifecycle import synthetic_records\n"
            "engine = RankingEngine(synthetic_records(60, seed=4))\n"
            "for a in engine.utop_set(3, method='exact').answers:\n"
            "    print(sorted(a.members), repr(a.probability))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                stdout=subprocess.PIPE,
            )
            for seed in ("0", "3")
        ]
        outputs = [run.communicate(timeout=120)[0] for run in runs]
        assert all(run.returncode == 0 for run in runs)
        assert outputs[0] and outputs[0] == outputs[1]


class TestRankProbabilities:
    def test_rows_sum_to_one(self, paper_db):
        matrix = ExactEvaluator(paper_db).rank_probability_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_columns_sum_to_one(self, paper_db):
        matrix = ExactEvaluator(paper_db).rank_probability_matrix()
        assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_paper_rank_range(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        assert evaluator.rank_range_probability("t5", 1, 2) == pytest.approx(
            1.0
        )

    def test_rank_probs_match_extension_aggregation(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        extensions = list(enumerate_extensions(ppo))
        probs = [evaluator.extension_probability(e) for e in extensions]
        for rec in paper_db:
            for rank in range(1, 7):
                aggregated = sum(
                    p
                    for ext, p in zip(extensions, probs)
                    if ext[rank - 1].record_id == rec.record_id
                )
                assert evaluator.rank_probabilities(rec)[
                    rank - 1
                ] == pytest.approx(aggregated, abs=1e-9)

    def test_max_rank_truncation(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        full = evaluator.rank_probabilities("t2")
        truncated = evaluator.rank_probabilities("t2", max_rank=3)
        assert np.allclose(full[:3], truncated)

    def test_invalid_rank_range(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        with pytest.raises(QueryError):
            evaluator.rank_range_probability("t1", 0, 2)
        with pytest.raises(QueryError):
            evaluator.rank_range_probability("t1", 3, 2)

    def test_unknown_record_rejected(self, paper_db):
        with pytest.raises(QueryError):
            ExactEvaluator(paper_db).rank_probabilities("zz")


class TestDeterministicTies:
    def test_tied_points_ordered_by_tau(self):
        records = [certain("a", 5.0), certain("b", 5.0), certain("c", 1.0)]
        evaluator = ExactEvaluator(records)
        assert evaluator.extension_probability(records) == pytest.approx(
            1.0, abs=1e-6
        )
        swapped = [records[1], records[0], records[2]]
        assert evaluator.extension_probability(swapped) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_tied_points_with_overlapping_interval(self):
        records = [certain("a", 5.0), certain("b", 5.0), uniform("u", 4.0, 6.0)]
        evaluator = ExactEvaluator(records)
        ppo = ProbabilisticPartialOrder(records)
        total = sum(
            evaluator.extension_probability(ext)
            for ext in enumerate_extensions(ppo)
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestPairwiseConsistency:
    def test_matches_pairwise_module(self):
        records = random_interval_db(np.random.default_rng(9), 12)
        evaluator = ExactEvaluator(records)
        for a, b in itertools.combinations(records, 2):
            assert evaluator.probability_greater(a, b) == pytest.approx(
                probability_greater(a, b), abs=1e-9
            )
