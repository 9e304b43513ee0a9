"""Tests for the runtime determinism sanitizer.

Covers the pure helpers (canonicalization, diffing, span attribution,
the jitter hook) with synthetic inputs, verifies divergences are
detected and attributed, and runs the tier-1 smoke: a 3-repeat
perturbed replay over a serial and a concurrent worker setting must
come back byte-identical.
"""

import pytest

from repro.core.queries import QueryResult, RecordAnswer
from repro.core.trace import Span, set_span_start_hook
from repro.lint.sanitize import main as sanitize_main
from repro.lint.sanitizer import (
    Divergence,
    SanitizerReport,
    SpanJitter,
    _compare,
    _deepest_span_divergence,
    _diff_path,
    _Execution,
    build_mutation_scenario,
    build_records,
    build_workload,
    encode_canonical,
    run_sanitizer,
)


def make_result(probability=0.5, elapsed=0.1):
    return QueryResult(
        answers=[RecordAnswer("t0", probability)],
        method="montecarlo",
        elapsed=elapsed,
        database_size=4,
        pruned_size=4,
    )


class TestHelpers:
    def test_build_records_is_deterministic(self):
        first = build_records(12)
        second = build_records(12)
        assert [repr(r) for r in first] == [repr(r) for r in second]
        assert len(first) == 12

    def test_build_records_rejects_tiny_databases(self):
        with pytest.raises(ValueError):
            build_records(2)

    def test_workload_covers_every_query_kind(self):
        kinds = {q.kind for q in build_workload()}
        assert kinds == {
            "utop_rank",
            "utop_prefix",
            "utop_set",
            "rank_aggregation",
            "threshold_topk",
        }

    def test_canonical_result_strips_volatile_fields(self):
        data = make_result().canonical()
        assert "elapsed" not in data
        assert "cache" not in data
        assert "trace" not in data
        # Identical answers with different timings must encode equal.
        assert encode_canonical(data) == encode_canonical(
            make_result(elapsed=9.9).canonical()
        )

    def test_canonical_result_strips_timing_diagnostics(self):
        result = make_result()
        result.diagnostics = {
            "steps": 10,
            "elapsed_seconds": 1.0,
            "nested": {"wall": 2.0, "converged": True},
            "plan": {"chosen": "exact"},
        }
        data = result.canonical()
        assert data["diagnostics"] == {
            "steps": 10,
            "nested": {"converged": True},
        }

    def test_diff_path_locates_first_difference(self):
        a = {"answers": [{"probability": 0.5}], "method": "montecarlo"}
        b = {"answers": [{"probability": 0.6}], "method": "montecarlo"}
        assert _diff_path(a, b) == "$.answers[0].probability"
        assert _diff_path(a, dict(a)) is None

    def test_deepest_span_divergence(self):
        base = {
            "name": "query",
            "children": [
                {"name": "prune", "children": []},
                {
                    "name": "sample",
                    "children": [{"name": "shard", "children": []}],
                },
            ],
        }
        other = {
            "name": "query",
            "children": [
                {"name": "prune", "children": []},
                {"name": "sample", "children": []},
            ],
        }
        assert (
            _deepest_span_divergence(base, other) == "query/sample"
        )
        assert _deepest_span_divergence(base, base) is None


class TestSpanJitter:
    def test_jitter_counts_span_starts(self):
        jitter = SpanJitter(seed=3, max_us=1)
        previous = set_span_start_hook(jitter)
        try:
            root = Span("root")
            root.child("inner").end()
            root.end()
        finally:
            set_span_start_hook(previous)
        assert jitter.calls == 2

    def test_zero_jitter_is_inert(self):
        jitter = SpanJitter(seed=3, max_us=0)
        jitter(object())
        assert jitter.calls == 0

    def test_hook_restored_after_sanitizer_run(self):
        sentinel = object()
        previous = set_span_start_hook(sentinel)
        try:
            run_sanitizer(
                repeats=1,
                records=4,
                samples=50,
                worker_grid=(1,),
                jitter_us=0,
                mcmc_steps=20,
                mcmc_chains=2,
            )
            assert set_span_start_hook(sentinel) is sentinel
        finally:
            set_span_start_hook(previous if previous is not sentinel else None)


class TestDivergenceDetection:
    def _execution(self, label, probability):
        data = make_result(probability).canonical()
        return _Execution(
            label=label,
            canonical=[data],
            encoded=[encode_canonical(data)],
            traces=[{"name": "query", "children": []}],
        )

    def test_compare_flags_and_attributes_divergence(self):
        report = SanitizerReport(repeats=1, worker_grid=(1,), queries=1)
        baseline = self._execution("baseline", 0.5)
        diverged = self._execution("repeat=1 workers=2 cold", 0.75)
        _compare(report, baseline, diverged, build_workload()[:1])
        assert not report.ok
        assert report.exit_code == 1
        divergence = report.divergences[0]
        assert divergence.json_path == "$.answers[0].probability"
        assert "repeat=1 workers=2" in divergence.describe()

    def test_compare_passes_identical_executions(self):
        report = SanitizerReport(repeats=1, worker_grid=(1,), queries=1)
        baseline = self._execution("baseline", 0.5)
        same = self._execution("repeat=1 workers=1 warm", 0.5)
        _compare(report, baseline, same, build_workload()[:1])
        assert report.ok and report.exit_code == 0

    def test_report_render_names_divergences(self):
        report = SanitizerReport(repeats=1, worker_grid=(1,), queries=1)
        report.divergences.append(
            Divergence(
                label="repeat=1 workers=4 warm",
                query_index=3,
                query_kind="utop_prefix",
                json_path="$.answers[0].probability",
                span_path="query/sample",
            )
        )
        text = report.render()
        assert "query/sample" in text
        assert "utop_prefix" in text
        assert report.to_dict()["ok"] is False


class TestSanitizerSmoke:
    def test_three_repeat_perturbed_replay_is_deterministic(self):
        report = run_sanitizer(
            repeats=3,
            records=8,
            samples=400,
            worker_grid=(1, 2),
            jitter_us=50,
            mcmc_steps=60,
            mcmc_chains=3,
        )
        assert report.ok, report.render()
        # baseline + 3 perturbed repeats, each over 2 worker settings
        assert report.runs == 8
        assert report.comparisons > 0
        assert report.jitter_calls > 0

    def test_cli_smoke_exits_zero(self, capsys):
        code = sanitize_main(
            [
                "--repeats",
                "1",
                "--workers",
                "1,2",
                "--records",
                "6",
                "--samples",
                "200",
                "--mcmc-steps",
                "30",
                "--chains",
                "2",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert '"ok": true' in out

    def test_cli_rejects_bad_worker_grid(self, capsys):
        with pytest.raises(SystemExit):
            sanitize_main(["--workers", "zero"])

    def test_cli_rejects_bad_mutate_grid(self, capsys):
        with pytest.raises(SystemExit):
            sanitize_main(["--mutate", "sometimes"])


class TestMutateAxis:
    def test_scenario_restores_canonical_content(self):
        from repro.core.cache import fingerprint_records

        table, scoring, restore = build_mutation_scenario(8)
        stale = fingerprint_records(table.to_records(scoring))
        canonical = fingerprint_records(build_records(8))
        assert stale != canonical
        restore()
        assert fingerprint_records(table.to_records(scoring)) == canonical

    def test_mutated_engine_is_byte_identical_to_baseline(self):
        report = run_sanitizer(
            repeats=1,
            records=8,
            samples=400,
            worker_grid=(1,),
            mutate_grid=("off", "on"),
            jitter_us=50,
            mcmc_steps=60,
            mcmc_chains=3,
        )
        assert report.ok, report.render()
        assert report.mutate_grid == ("off", "on")
        # baseline + 1 perturbed repeat, each over both mutate settings
        assert report.runs == 4
        assert report.to_dict()["mutate_grid"] == ["off", "on"]
