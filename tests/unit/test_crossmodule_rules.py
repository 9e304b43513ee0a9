"""Fixture tests for the cross-module (project-graph) rules.

Each rule gets at least one true-positive and one clean fixture
(acceptance criterion of the cross-module subsystem), plus cross-file
variants exercising the import/call graph and the suppression-pragma
semantics specific to whole-program rules: a pragma at the *sink*
silences the whole flow, and codes under ``require-justification``
only honour pragmas carrying a ``-- reason``.
"""

import textwrap
from dataclasses import replace

from repro.lint import DEFAULT_CONFIG, lint_paths, lint_source


def codes(result):
    return [finding.code for finding in result.findings]


def run(snippet, path="src/repro/core/fake.py", config=None):
    return lint_source(
        textwrap.dedent(snippet), path=path, config=config or DEFAULT_CONFIG
    )


def run_tree(tmp_path, files, config=None):
    """Lint a multi-file project laid out under ``tmp_path``."""
    root = tmp_path / "src" / "repro" / "core"
    root.mkdir(parents=True, exist_ok=True)
    for name, source in files.items():
        (root / name).write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path / "src"], config=config or DEFAULT_CONFIG)


class TestDET002:
    def test_fires_on_unseeded_rng_on_query_path(self):
        result = run(
            """
            import numpy as np

            class RankingEngine:
                def query(self, spec):
                    return self._sample()

                def _sample(self):
                    rng = np.random.default_rng()
                    return rng.random()
            """
        )
        assert "DET002" in codes(result)

    def test_fires_on_fixed_literal_seed(self):
        result = run(
            """
            import numpy as np

            class RankingEngine:
                def query(self, spec):
                    rng = np.random.default_rng(1234)
                    return rng.random()
            """
        )
        assert "DET002" in codes(result)

    def test_spawned_stream_passes(self):
        result = run(
            """
            import numpy as np

            class RankingEngine:
                def __init__(self, seed):
                    self._seed_seq = np.random.SeedSequence(seed)

                def query(self, spec):
                    child = self._seed_seq.spawn(1)[0]
                    rng = np.random.default_rng(child)
                    return rng.random()
            """
        )
        assert "DET002" not in codes(result)

    def test_off_query_path_is_silent(self):
        result = run(
            """
            import numpy as np

            def offline_probe():
                rng = np.random.default_rng(7)
                return rng.random()
            """
        )
        assert "DET002" not in codes(result)

    def test_cross_file_flow(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "engine.py": """
                    from .sampler import draw

                    class RankingEngine:
                        def query(self, spec):
                            return draw()
                """,
                "sampler.py": """
                    import numpy as np

                    def draw():
                        rng = np.random.default_rng(99)
                        return rng.random()
                """,
            },
        )
        found = [f for f in result.findings if f.code == "DET002"]
        assert found and all("sampler.py" in f.path for f in found)


class TestCON001:
    _SHARED_WRITE = """
        from concurrent.futures import ThreadPoolExecutor

        class RankingEngine:
            def __init__(self):
                self._memo = {{}}

            def query(self, spec):
                with ThreadPoolExecutor() as pool:
                    list(pool.map(self._piece, [1, 2]))
                return self._piece(0)

            def _piece(self, i):
                {write}
                return self._memo.get(i)
    """

    def test_fires_on_unguarded_shared_write(self):
        result = run(self._SHARED_WRITE.format(write="self._memo[i] = i"))
        assert "CON001" in codes(result)

    def test_lock_guarded_write_passes(self):
        result = run(
            """
            import threading
            from concurrent.futures import ThreadPoolExecutor

            class RankingEngine:
                def __init__(self):
                    self._memo = {}
                    self._lock = threading.Lock()

                def query(self, spec):
                    with ThreadPoolExecutor() as pool:
                        list(pool.map(self._piece, [1, 2]))
                    return self._piece(0)

                def _piece(self, i):
                    with self._lock:
                        self._memo[i] = i
                    return i
            """
        )
        assert "CON001" not in codes(result)

    def test_main_path_only_write_passes(self):
        result = run(
            """
            class RankingEngine:
                def __init__(self):
                    self._memo = {}

                def query(self, spec):
                    self._memo[spec] = 1.0
                    return self._memo[spec]
            """
        )
        assert "CON001" not in codes(result)

    def test_init_writes_exempt(self):
        result = run(
            """
            from concurrent.futures import ThreadPoolExecutor

            class RankingEngine:
                def __init__(self):
                    self._memo = {}
                    self._memo[0] = 1.0

                def query(self, spec):
                    with ThreadPoolExecutor() as pool:
                        list(pool.map(self._piece, [1]))

                def _piece(self, i):
                    return i
            """
        )
        assert "CON001" not in codes(result)


class TestROB002:
    def test_fires_on_generator_loop_without_budget(self):
        result = run(
            """
            def enumerate_states(spec):
                yield spec

            class RankingEngine:
                def query(self, spec):
                    total = 0.0
                    for state in enumerate_states(spec):
                        total += float(state)
                    return total
            """
        )
        assert "ROB002" in codes(result)

    def test_budget_check_in_loop_passes(self):
        result = run(
            """
            def enumerate_states(spec):
                yield spec

            class RankingEngine:
                def query(self, spec, budget):
                    total = 0.0
                    for state in enumerate_states(spec):
                        if budget.expired():
                            break
                        total += float(state)
                    return total
            """
        )
        assert "ROB002" not in codes(result)

    def test_budget_check_in_callee_passes(self):
        result = run(
            """
            def enumerate_states(spec):
                yield spec

            class RankingEngine:
                def query(self, spec, budget):
                    total = 0.0
                    for state in enumerate_states(spec):
                        total += self._score(state, budget)
                    return total

                def _score(self, state, budget):
                    budget.consume_enumeration()
                    return float(state)
            """
        )
        assert "ROB002" not in codes(result)

    def test_bounded_range_loop_passes(self):
        result = run(
            """
            class RankingEngine:
                def query(self, spec):
                    total = 0.0
                    for i in range(10):
                        total += float(i)
                    return total
            """
        )
        assert "ROB002" not in codes(result)


class TestCACHE002:
    def test_fires_on_free_input_missing_from_key(self):
        result = run(
            """
            def compile_plan(records):
                return records

            class RankingEngine:
                def __init__(self, cache):
                    self.cache = cache

                def query(self, spec):
                    subset = self._pick(spec)
                    return self.cache.artifact(
                        "plan", ("plan", 3), lambda: compile_plan(subset)
                    )

                def _pick(self, spec):
                    return [spec]
            """
        )
        assert "CACHE002" in codes(result)

    def test_key_covering_input_passes(self):
        result = run(
            """
            def compile_plan(records):
                return records

            def fingerprint(records):
                return tuple(records)

            class RankingEngine:
                def __init__(self, cache):
                    self.cache = cache

                def query(self, spec):
                    subset = self._pick(spec)
                    fp = fingerprint(subset)
                    return self.cache.artifact(
                        "plan", (fp,), lambda: compile_plan(subset)
                    )

                def _pick(self, spec):
                    return [spec]
            """
        )
        assert "CACHE002" not in codes(result)

    def test_self_state_builder_passes(self):
        result = run(
            """
            class RankingEngine:
                def __init__(self, cache):
                    self.cache = cache

                def query(self, spec):
                    return self.cache.artifact(
                        "plan", ("plan",), self._build
                    )

                def _build(self):
                    return 1.0
            """
        )
        assert "CACHE002" not in codes(result)

    def test_enclosing_scope_coverage(self):
        # The artifact call sits in a closure; the co-assignment that
        # covers the free input lives in the enclosing method.
        result = run(
            """
            def compile_plan(records):
                return records

            class RankingEngine:
                def __init__(self, cache):
                    self.cache = cache

                def query(self, spec):
                    subset, fp = self._pruned(spec)

                    def build():
                        return self.cache.artifact(
                            "plan", (fp,), lambda: compile_plan(subset)
                        )

                    return build()

                def _pruned(self, spec):
                    return [spec], hash(spec)
            """
        )
        assert "CACHE002" not in codes(result)

    def test_dynamic_kind_covers_its_names(self):
        # (kind, key) is the cache identity: ``scorer`` derives only
        # from names the f-string kind reads, so it is covered;
        # ``limit`` is in neither the kind nor the key and fires.
        source = """
            class RankingEngine:
                def __init__(self, cache):
                    self.cache = cache

                def query(self, spec, caps, fp):
                    target = spec.target
                    limit = caps.limit
                    scorer = getattr(spec, target)
                    return self.cache.artifact(
                        f"exact-{target}",
                        (fp,),
                        lambda: scorer(fp, EXTRA),
                    )
            """
        assert "CACHE002" not in codes(run(source.replace("EXTRA", "fp")))
        flagged = run(source.replace("EXTRA", "limit"))
        messages = [f.message for f in flagged.findings if f.code == "CACHE002"]
        assert len(messages) == 1 and "'limit'" in messages[0]


class TestCrossModuleSuppression:
    _FIXED_SEED = """
        import numpy as np

        class RankingEngine:
            def query(self, spec):
                rng = np.random.default_rng(1234){pragma}
                return rng.random()
    """

    def test_sink_pragma_silences_whole_flow(self):
        result = run(
            self._FIXED_SEED.format(
                pragma="  # reprolint: disable=DET002 -- fixture"
            )
        )
        assert "DET002" not in codes(result)
        assert result.suppressed >= 1

    def test_bare_pragma_ignored_under_require_justification(self):
        config = replace(
            DEFAULT_CONFIG, justify=frozenset({"DET002"})
        )
        result = run(
            self._FIXED_SEED.format(
                pragma="  # reprolint: disable=DET002"
            ),
            config=config,
        )
        assert "DET002" in codes(result)

    def test_justified_pragma_honoured_under_require_justification(self):
        config = replace(
            DEFAULT_CONFIG, justify=frozenset({"DET002"})
        )
        result = run(
            self._FIXED_SEED.format(
                pragma="  # reprolint: disable=DET002 -- fixed probe seed"
            ),
            config=config,
        )
        assert "DET002" not in codes(result)

    def test_scope_pragma_covers_class_body(self):
        result = run(
            """
            from concurrent.futures import ThreadPoolExecutor

            class RankingEngine:  # reprolint: disable-scope=CON001 -- thread-confined fixture
                def __init__(self):
                    self._memo = {}

                def query(self, spec):
                    with ThreadPoolExecutor() as pool:
                        list(pool.map(self._piece, [1, 2]))
                    return self._piece(0)

                def _piece(self, i):
                    self._memo[i] = i
                    return i
            """
        )
        assert "CON001" not in codes(result)
        assert result.suppressed >= 1

    def test_scope_pragma_does_not_leak_outside_construct(self):
        result = run(
            """
            from concurrent.futures import ThreadPoolExecutor

            class RankingEngine:
                def __init__(self):
                    self._memo = {}
                    self._other = {}

                def query(self, spec):
                    with ThreadPoolExecutor() as pool:
                        list(pool.map(self._piece, [1, 2]))
                    return self._piece(0)

                def _piece(self, i):  # reprolint: disable-scope=CON001 -- confined fixture
                    self._memo[i] = i
                    return self._leak(i)

                def _leak(self, i):
                    self._other[i] = i
                    return i
            """
        )
        remaining = [f for f in result.findings if f.code == "CON001"]
        assert len(remaining) == 1
        assert result.suppressed >= 1

    def test_per_rule_path_scope_config(self, tmp_path):
        config = replace(
            DEFAULT_CONFIG,
            path_scopes={"DET002": ("repro/elsewhere",)},
        )
        result = run(
            self._FIXED_SEED.format(pragma=""), config=config
        )
        assert "DET002" not in codes(result)
