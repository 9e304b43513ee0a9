"""Unit tests for the RankingEngine facade."""

import pytest

from repro.core.engine import RankingEngine
from repro.core.errors import QueryError
from repro.core.records import certain, uniform


@pytest.fixture
def engine(paper_db):
    return RankingEngine(paper_db, seed=99)


class TestUTopRank:
    def test_exact_path_matches_paper(self, engine):
        result = engine.utop_rank(1, 2, l=3)
        assert result.method == "exact"
        assert result.top.record_id == "t5"
        assert result.top.probability == pytest.approx(1.0)

    def test_montecarlo_path_agrees(self, engine):
        exact = engine.utop_rank(1, 2, l=6, method="exact")
        mc = engine.utop_rank(1, 2, l=6, method="montecarlo", samples=40_000)
        exact_by_id = {a.record_id: a.probability for a in exact.answers}
        for answer in mc.answers:
            assert answer.probability == pytest.approx(
                exact_by_id[answer.record_id], abs=0.02
            )

    def test_pruning_reported(self, engine):
        result = engine.utop_rank(1, 2)
        assert result.database_size == 6
        assert result.pruned_size == 3  # t3, t4, t6 are 2-dominated

    def test_pruning_disabled(self, paper_db):
        engine = RankingEngine(paper_db, seed=1, prune=False)
        result = engine.utop_rank(1, 2)
        assert result.pruned_size == 6
        assert result.top.record_id == "t5"

    def test_invalid_arguments(self, engine):
        with pytest.raises(QueryError):
            engine.utop_rank(0, 1)
        with pytest.raises(QueryError):
            engine.utop_rank(2, 1)
        with pytest.raises(QueryError):
            engine.utop_rank(1, 2, l=0)
        with pytest.raises(QueryError):
            engine.utop_rank(1, 2, method="bogus")


class TestUTopPrefix:
    def test_exact_path_matches_paper(self, engine):
        result = engine.utop_prefix(3, l=3)
        assert result.method == "exact"
        assert result.top.prefix == ("t5", "t1", "t2")
        assert result.top.probability == pytest.approx(0.4375)

    def test_mcmc_path_agrees(self, engine):
        result = engine.utop_prefix(3, l=1, method="mcmc")
        assert result.method == "mcmc"
        assert result.top.prefix == ("t5", "t1", "t2")
        assert result.top.probability == pytest.approx(0.4375, abs=1e-9)
        assert result.error_bound is not None
        assert "acceptance_rate" in result.diagnostics

    def test_montecarlo_path_agrees(self, engine):
        result = engine.utop_prefix(3, l=1, method="montecarlo")
        assert result.top.prefix == ("t5", "t1", "t2")
        assert result.top.probability == pytest.approx(0.4375, abs=0.03)

    def test_invalid_arguments(self, engine):
        with pytest.raises(QueryError):
            engine.utop_prefix(0)
        with pytest.raises(QueryError):
            engine.utop_prefix(3, l=0)
        with pytest.raises(QueryError):
            engine.utop_prefix(3, method="bogus")


class TestUTopSet:
    def test_exact_path_matches_paper(self, engine):
        result = engine.utop_set(3, l=2)
        assert result.method == "exact"
        assert result.top.members == frozenset({"t1", "t2", "t5"})
        assert result.top.probability == pytest.approx(0.9375)

    def test_mcmc_path_agrees(self, engine):
        result = engine.utop_set(3, l=1, method="mcmc")
        assert result.top.members == frozenset({"t1", "t2", "t5"})
        assert result.top.probability == pytest.approx(0.9375, abs=1e-9)

    def test_montecarlo_path_agrees(self, engine):
        result = engine.utop_set(3, l=1, method="montecarlo")
        assert result.top.members == frozenset({"t1", "t2", "t5"})
        assert result.top.probability == pytest.approx(0.9375, abs=0.03)


@pytest.mark.parametrize(
    "query, label", [("utop_prefix", "UTop-Prefix"), ("utop_set", "UTop-Set")]
)
class TestTopKKinds:
    """Both TOP-k kinds share one evaluator, so they report alike."""

    def test_mcmc_diagnostics_keys(self, engine, query, label):
        result = getattr(engine, query)(3, method="mcmc")
        assert set(result.diagnostics) == {
            "converged",
            "total_steps",
            "acceptance_rate",
            "states_visited",
            "psrf",
        }
        assert result.diagnostics["psrf"] is not None

    def test_unknown_method_names_the_family(self, engine, query, label):
        with pytest.raises(QueryError, match=f"for {label}$"):
            getattr(engine, query)(3, method="bogus")


class TestRankAggregation:
    def test_exact_consensus(self, engine):
        result = engine.rank_aggregation()
        assert result.method == "exact"
        ranking = result.top.ranking
        # t5 and t1 occupy the first two places; t6 is always last.
        assert ranking[0] == "t5"
        assert ranking[-1] == "t6"

    def test_montecarlo_consensus_agrees(self, engine):
        exact = engine.rank_aggregation(method="exact").top
        mc = engine.rank_aggregation(
            method="montecarlo", samples=60_000
        ).top
        assert mc.ranking == exact.ranking

    def test_never_pruned(self, engine):
        result = engine.rank_aggregation()
        assert result.pruned_size == result.database_size


class TestMethodSelection:
    def test_large_antichain_falls_back_to_mcmc(self):
        records = [uniform(f"r{i:03d}", 0.0, 10.0) for i in range(30)]
        engine = RankingEngine(
            records, seed=0, prefix_enumeration_limit=100, mcmc_steps=200
        )
        result = engine.utop_prefix(5)
        assert result.method == "mcmc"

    def test_exact_limit_controls_rank_queries(self, paper_db):
        engine = RankingEngine(paper_db, seed=0, exact_record_limit=2)
        result = engine.utop_rank(1, 2)
        assert result.method == "montecarlo"

    def test_empty_database_rejected(self):
        with pytest.raises(QueryError):
            RankingEngine([])

    def test_k_larger_than_database(self, paper_db):
        engine = RankingEngine(paper_db, seed=0)
        result = engine.utop_prefix(50)
        assert len(result.top.prefix) == 6


class TestThresholdTopK:
    def test_threshold_filters_answers(self, engine):
        full = engine.utop_rank(1, 2, l=6)
        expected = {
            a.record_id for a in full.answers if a.probability >= 0.5
        }
        result = engine.threshold_topk(2, threshold=0.5)
        assert {a.record_id for a in result.answers} == expected
        assert "t5" in expected  # t5 is in the top 2 with certainty
        assert all(a.probability >= 0.5 for a in result.answers)

    def test_low_threshold_returns_everything_in_range(self, engine):
        result = engine.threshold_topk(2, threshold=1e-9)
        assert {a.record_id for a in result.answers} == {"t5", "t1", "t2"}

    def test_answer_size_is_data_dependent(self, engine):
        # Tightening the threshold can only shrink the answer set.
        sizes = [
            len(engine.threshold_topk(2, threshold=t).answers)
            for t in (1e-9, 0.5, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_invalid_k(self, engine):
        with pytest.raises(QueryError):
            engine.threshold_topk(0, threshold=0.5)
        with pytest.raises(QueryError):
            engine.threshold_topk(-3, threshold=0.5)

    def test_threshold_out_of_range(self, engine):
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=0.0)
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=1.5)
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=-0.1)

    def test_unknown_method(self, engine):
        with pytest.raises(QueryError):
            engine.threshold_topk(2, threshold=0.5, method="bogus")


class TestExplain:
    def test_plan_for_rank_query(self, engine):
        plan = engine.explain("utop_rank", 2)
        assert plan["query"] == "utop_rank"
        assert plan["database_size"] == 6
        assert plan["pruned_size"] == 3
        assert plan["exact_densities"] is True
        assert plan["method"] == "exact"

    def test_plan_for_prefix_query(self, engine):
        plan = engine.explain("utop_prefix", 3)
        assert plan["method"] in ("exact", "mcmc")
        assert plan["prefix_space"] is not None
        assert plan["prefix_space"] >= 1

    def test_plan_respects_exact_limit(self, paper_db):
        engine = RankingEngine(paper_db, seed=0, exact_record_limit=2)
        plan = engine.explain("utop_rank", 2)
        assert plan["method"] == "montecarlo"

    def test_unknown_query_kind(self, engine):
        with pytest.raises(QueryError):
            engine.explain("bogus", 2)
        with pytest.raises(QueryError):
            engine.explain("", 2)

    def test_invalid_k(self, engine):
        with pytest.raises(QueryError):
            engine.explain("utop_rank", 0)
        with pytest.raises(QueryError):
            engine.explain("utop_prefix", -1)

    def test_empty_record_set_rejected_at_construction(self):
        with pytest.raises(QueryError):
            RankingEngine([])


class TestReproducibility:
    def test_reproducible_by_default(self, paper_db):
        # No seed argument at all: two runs must still agree (seed
        # defaults to 0 rather than OS entropy).
        a = RankingEngine(paper_db).utop_rank(1, 3, l=4, method="montecarlo")
        b = RankingEngine(paper_db).utop_rank(1, 3, l=4, method="montecarlo")
        assert [
            (x.record_id, x.probability) for x in a.answers
        ] == [(x.record_id, x.probability) for x in b.answers]

    def test_same_seed_same_answers(self, paper_db):
        a = RankingEngine(paper_db, seed=42).utop_rank(
            1, 3, l=4, method="montecarlo"
        )
        b = RankingEngine(paper_db, seed=42).utop_rank(
            1, 3, l=4, method="montecarlo"
        )
        assert [
            (x.record_id, x.probability) for x in a.answers
        ] == [(x.record_id, x.probability) for x in b.answers]


class TestWorkersKnob:
    """`workers=` routes sampling through the sharded parallel backend
    without changing any answer."""

    @staticmethod
    def _rank_answers(engine):
        result = engine.utop_rank(1, 3, l=4, method="montecarlo")
        return [(a.record_id, a.probability) for a in result.answers]

    def test_worker_count_does_not_change_rank_answers(self, paper_db):
        one = RankingEngine(paper_db, seed=42, workers=1)
        four = RankingEngine(paper_db, seed=42, workers=4)
        assert self._rank_answers(one) == self._rank_answers(four)

    def test_worker_count_does_not_change_mcmc_answers(self, paper_db):
        one = RankingEngine(paper_db, seed=42, workers=1)
        four = RankingEngine(paper_db, seed=42, workers=4)
        a = one.utop_prefix(3, l=2, method="mcmc")
        b = four.utop_prefix(3, l=2, method="mcmc")
        assert [(x.prefix, x.probability) for x in a.answers] == [
            (x.prefix, x.probability) for x in b.answers
        ]

    def test_parallel_agrees_with_exact(self, paper_db):
        engine = RankingEngine(paper_db, seed=7, workers=2)
        exact = engine.utop_rank(1, 2, l=6, method="exact")
        mc = engine.utop_rank(1, 2, l=6, method="montecarlo", samples=40_000)
        exact_by_id = {a.record_id: a.probability for a in exact.answers}
        for answer in mc.answers:
            assert answer.probability == pytest.approx(
                exact_by_id[answer.record_id], abs=0.02
            )

    def test_workers_reported_in_plan(self, paper_db):
        engine = RankingEngine(paper_db, seed=0, workers=2)
        assert engine.explain("utop_rank", 2)["workers"] == 2
        assert RankingEngine(paper_db, seed=0).explain(
            "utop_rank", 2
        )["workers"] is None

    def test_invalid_workers_rejected(self, paper_db):
        with pytest.raises(QueryError):
            RankingEngine(paper_db, workers=0)
        with pytest.raises(QueryError):
            RankingEngine(paper_db, workers="warp")
