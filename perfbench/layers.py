"""Which ``repro`` entry points the tracer wraps, and the per-layer metrics.

Every layer names the public callables it wraps, including the copies
that callers bound with ``from ... import`` (``repro.core.engine``
imports ``shrink_database``, ``compile_plan``, ``count_prefixes``,
``enumerate_prefixes``, ``optimal_rank_aggregation``,
``validate_records`` and ``fingerprint_records`` by name, so patching
the defining module alone would miss the engine's calls).

``EXERCISED`` says which workloads must call each layer. A traced run
in which such a layer records no call fails, so a rename in ``src/``
cannot silently blind the trace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracer import Hooks, Tracer

#: Layer -> workloads that must record at least one call into it.
EXERCISED: Dict[str, Tuple[str, ...]] = {
    "table.mutate": ("serve-mixed",),
    "table.to_records": ("serve-mixed",),
    "validation.validate_records": ("serve-mixed",),
    "cache.fingerprint_records": ("exact-topk", "mc-scan", "serve-mixed"),
    "cache.migrate": ("serve-mixed",),
    "pruning.shrink_database": ("exact-topk", "mc-scan", "serve-mixed"),
    "ppo.build": ("exact-topk", "serve-mixed"),
    "pairwise.probability_greater": ("exact-topk",),
    "montecarlo.compile_plan": ("exact-topk", "mc-scan", "serve-mixed"),
    "montecarlo.sample": ("exact-topk", "mc-scan", "serve-mixed"),
    "exact.rank_probabilities": ("exact-topk",),
    "exact.prefix_probability": ("exact-topk",),
    "exact.top_set_probability": ("exact-topk",),
    "piecewise.mul": ("exact-topk",),
    "linext.enumerate_prefixes": ("exact-topk",),
    "linext.count_prefixes": ("exact-topk", "serve-mixed"),
    "mcmc.run": ("exact-topk",),
    "rank_agg.optimal_rank_aggregation": ("exact-topk",),
    "planner.plan": ("exact-topk", "serve-mixed"),
    "serve.admission": ("serve-mixed",),
    "serve.coalesce": ("serve-mixed",),
    "serve.encode": ("serve-mixed",),
}

#: Per-layer metrics: name -> (unit, better). Reported by every traced
#: run; a layer a workload does not use reads 0 there.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "table.mutate.self_s": ("s", "lower"),
    "table.to_records.self_s": ("s", "lower"),
    "validation.validate_records.self_s": ("s", "lower"),
    "cache.fingerprint_records.self_s": ("s", "lower"),
    "cache.migrate.self_s": ("s", "lower"),
    "cache.migrate.reuse_fraction": ("share", "higher"),
    "pruning.shrink_database.self_s": ("s", "lower"),
    "pruning.kept_fraction": ("share", "lower"),
    "ppo.build.self_s": ("s", "lower"),
    "pairwise.integrals": ("count", "lower"),
    "pairwise.hit_ratio": ("share", "higher"),
    "montecarlo.compile_plan.self_s": ("s", "lower"),
    "montecarlo.sample.self_s": ("s", "lower"),
    "montecarlo.samples_drawn": ("count", "lower"),
    "montecarlo.samples_per_s": ("1/s", "higher"),
    "cache.hit_ratio": ("share", "higher"),
    "cache.topups": ("count", "higher"),
    "exact.rank_probabilities.self_s": ("s", "lower"),
    "exact.prefix_probability.calls": ("count", "lower"),
    "exact.prefix_probability.self_s": ("s", "lower"),
    "exact.top_set_probability.self_s": ("s", "lower"),
    "exact.member_set_reuse": ("share", "lower"),
    "piecewise.mul.calls": ("count", "lower"),
    "piecewise.mul.self_s": ("s", "lower"),
    "linext.enumerate_prefixes.self_s": ("s", "lower"),
    "linext.count_prefixes.calls": ("count", "lower"),
    "linext.count_prefixes.self_s": ("s", "lower"),
    "mcmc.run.self_s": ("s", "lower"),
    "rank_agg.optimal_rank_aggregation.self_s": ("s", "lower"),
    "planner.plan.self_s": ("s", "lower"),
    "planner.skips": ("count", "lower"),
    "serve.admission_wait_s": ("s", "lower"),
    "serve.coalesce_follower_share": ("share", "higher"),
    "serve.coalesce_wait_s": ("s", "lower"),
    "serve.encode_s": ("s", "lower"),
    "layers.coverage": ("share", "higher"),
    "trace.overhead": ("share", "lower"),
}


def _observe_shrink(hooks: Hooks, args: tuple, result: Any) -> None:
    hooks.shrink_in += len(args[0])
    hooks.shrink_kept += len(result.kept)


def _observe_migrate(hooks: Hooks, args: tuple, result: Any) -> None:
    hooks.migrate_carried += result.pairwise_carried
    hooks.migrate_dropped += result.pairwise_dropped


def _observe_prefix(hooks: Hooks, args: tuple, result: Any) -> None:
    evaluator, prefix = args[0], args[1]
    ids = frozenset(
        item if isinstance(item, str) else item.record_id for item in prefix
    )
    # Keyed by evaluator: the same member set over another database is
    # different work. The evaluator itself is kept, so its id cannot be
    # recycled while the phase runs.
    hooks.member_sets.add((id(evaluator), ids))
    hooks.evaluators.append(evaluator)


def _observe_admission(hooks: Hooks, waited: float, result: Any) -> None:
    hooks.admission_wait_s += waited


def _observe_coalesce(hooks: Hooks, waited: float, result: Any) -> None:
    role = result[1]
    hooks.coalesce_roles[role] = hooks.coalesce_roles.get(role, 0) + 1
    if role.startswith("follower"):
        hooks.coalesce_wait_s += waited


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (inert until ``tracer.enabled``)."""
    import repro.core.cache as cache
    import repro.core.engine as engine
    import repro.core.linext as linext
    import repro.core.mcmc as mcmc
    import repro.core.montecarlo as montecarlo
    import repro.core.pairwise as pairwise
    import repro.core.pruning as pruning
    import repro.core.rank_agg as rank_agg
    import repro.core.validation as validation
    from repro.core.exact import ExactEvaluator
    from repro.core.piecewise import PiecewisePolynomial
    from repro.core.planner import QueryPlanner
    from repro.core.ppo import ProbabilisticPartialOrder
    from repro.core.queries import QueryResult
    from repro.db.table import MutationBatch, UncertainTable
    from repro.serve.admission import AdmissionController
    from repro.serve.coalescer import Coalescer
    from repro.serve.router import Response

    wrap = tracer.wrap
    for attr in ("update", "append", "delete", "replace", "__exit__"):
        wrap("table.mutate", [(MutationBatch, attr)])
    wrap("table.to_records", [(UncertainTable, "to_records")])
    wrap(
        "validation.validate_records",
        [(validation, "validate_records"), (engine, "validate_records")],
    )
    wrap(
        "cache.fingerprint_records",
        [(cache, "fingerprint_records"), (engine, "fingerprint_records")],
    )
    wrap(
        "cache.migrate",
        [(cache.ComputationCache, "migrate")],
        observe=_observe_migrate,
    )
    wrap(
        "pruning.shrink_database",
        [(pruning, "shrink_database"), (engine, "shrink_database")],
        observe=_observe_shrink,
    )
    wrap("ppo.build", [(ProbabilisticPartialOrder, "__init__")])
    wrap(
        "pairwise.probability_greater",
        [(pairwise, "probability_greater"), (mcmc, "probability_greater")],
    )
    tracer.register_instances(pairwise.PairwiseCache)
    wrap(
        "montecarlo.compile_plan",
        [(montecarlo, "compile_plan"), (engine, "compile_plan")],
    )
    for attr in (
        "rank_counts",
        "sample_scores",
        "empirical_top_prefix_counts",
        "empirical_top_set_counts",
        "prefix_probability_sis",
        "top_set_probability_cdf",
    ):
        wrap("montecarlo.sample", [(montecarlo.MonteCarloEvaluator, attr)])
    wrap("exact.rank_probabilities", [(ExactEvaluator, "rank_probabilities")])
    wrap(
        "exact.prefix_probability",
        [(ExactEvaluator, "prefix_probability")],
        observe=_observe_prefix,
    )
    wrap(
        "exact.top_set_probability",
        [(ExactEvaluator, "top_set_probability")],
    )
    wrap(
        "piecewise.mul",
        [(PiecewisePolynomial, "__mul__"), (PiecewisePolynomial, "__rmul__")],
    )
    wrap(
        "linext.enumerate_prefixes",
        [(linext, "enumerate_prefixes"), (engine, "enumerate_prefixes")],
        kind="iter",
    )
    wrap(
        "linext.count_prefixes",
        [(linext, "count_prefixes"), (engine, "count_prefixes")],
    )
    wrap("mcmc.run", [(mcmc.TopKSimulation, "run")])
    wrap(
        "rank_agg.optimal_rank_aggregation",
        [
            (rank_agg, "optimal_rank_aggregation"),
            (engine, "optimal_rank_aggregation"),
        ],
    )
    wrap("planner.plan", [(QueryPlanner, "plan")])
    wrap(
        "serve.admission",
        [(AdmissionController, "admit")],
        kind="wait",
        observe=_observe_admission,
    )
    wrap(
        "serve.coalesce",
        [(Coalescer, "run")],
        kind="wait",
        observe=_observe_coalesce,
    )
    wrap("serve.encode", [(QueryResult, "to_dict")])
    wrap("serve.encode", [(Response, "encode")])


#: Layers whose self time counts toward ``layers.coverage`` (the
#: coroutine waits overlap other work and are left out).
COVERAGE_LAYERS = tuple(
    layer
    for layer in EXERCISED
    if layer not in ("serve.admission", "serve.coalesce")
)


def unexercised(tracer: Tracer, workload: str) -> List[str]:
    """Layers this workload should call but did not."""
    return [
        layer
        for layer, workloads in EXERCISED.items()
        if workload in workloads
        and tracer.stats.get(layer) is None
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    cache_delta: Dict[str, int],
    samples_drawn: float,
    pairwise_hits: int,
    pairwise_misses: int,
    planner_skips: int,
) -> Dict[str, float]:
    """The ``PER_LAYER`` values of one traced phase."""
    stats = tracer.stats
    hooks = tracer.hooks

    def self_s(layer: str) -> float:
        entry = stats.get(layer)
        return entry.self_s if entry is not None else 0.0

    def calls(layer: str) -> int:
        entry = stats.get(layer)
        return entry.calls if entry is not None else 0

    prefix_calls = calls("exact.prefix_probability")
    roles = hooks.coalesce_roles
    followers = sum(v for k, v in roles.items() if k.startswith("follower"))
    lookups = cache_delta["hits"] + cache_delta["misses"] + cache_delta[
        "topups"
    ]
    sample_s = self_s("montecarlo.sample")
    return {
        "table.mutate.self_s": self_s("table.mutate"),
        "table.to_records.self_s": self_s("table.to_records"),
        "validation.validate_records.self_s": self_s(
            "validation.validate_records"
        ),
        "cache.fingerprint_records.self_s": self_s(
            "cache.fingerprint_records"
        ),
        "cache.migrate.self_s": self_s("cache.migrate"),
        "cache.migrate.reuse_fraction": _ratio(
            hooks.migrate_carried,
            hooks.migrate_carried + hooks.migrate_dropped,
        ),
        "pruning.shrink_database.self_s": self_s("pruning.shrink_database"),
        "pruning.kept_fraction": _ratio(hooks.shrink_kept, hooks.shrink_in),
        "ppo.build.self_s": self_s("ppo.build"),
        "pairwise.integrals": calls("pairwise.probability_greater"),
        "pairwise.hit_ratio": _ratio(
            pairwise_hits, pairwise_hits + pairwise_misses
        ),
        "montecarlo.compile_plan.self_s": self_s("montecarlo.compile_plan"),
        "montecarlo.sample.self_s": sample_s,
        "montecarlo.samples_drawn": samples_drawn,
        "montecarlo.samples_per_s": _ratio(samples_drawn, sample_s),
        "cache.hit_ratio": _ratio(cache_delta["hits"], lookups),
        "cache.topups": cache_delta["topups"],
        "exact.rank_probabilities.self_s": self_s("exact.rank_probabilities"),
        "exact.prefix_probability.calls": prefix_calls,
        "exact.prefix_probability.self_s": self_s("exact.prefix_probability"),
        "exact.top_set_probability.self_s": self_s(
            "exact.top_set_probability"
        ),
        "exact.member_set_reuse": (
            1.0 - len(hooks.member_sets) / prefix_calls
            if prefix_calls
            else 0.0
        ),
        "piecewise.mul.calls": calls("piecewise.mul"),
        "piecewise.mul.self_s": self_s("piecewise.mul"),
        "linext.enumerate_prefixes.self_s": self_s(
            "linext.enumerate_prefixes"
        ),
        "linext.count_prefixes.calls": calls("linext.count_prefixes"),
        "linext.count_prefixes.self_s": self_s("linext.count_prefixes"),
        "mcmc.run.self_s": self_s("mcmc.run"),
        "rank_agg.optimal_rank_aggregation.self_s": self_s(
            "rank_agg.optimal_rank_aggregation"
        ),
        "planner.plan.self_s": self_s("planner.plan"),
        "planner.skips": planner_skips,
        "serve.admission_wait_s": hooks.admission_wait_s,
        "serve.coalesce_follower_share": _ratio(
            followers, sum(roles.values())
        ),
        "serve.coalesce_wait_s": hooks.coalesce_wait_s,
        "serve.encode_s": self_s("serve.encode"),
        "layers.coverage": _ratio(
            sum(self_s(layer) for layer in COVERAGE_LAYERS), traced_wall_s
        ),
        "trace.overhead": _ratio(traced_wall_s, untraced_wall_s) - 1.0,
    }
