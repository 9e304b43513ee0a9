"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact-topk --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same work twice, untraced then traced, and
reports the per-layer metrics of the traced half (see ``layers.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a fuller report (provenance, supplementary metrics, failures),
which is also written to ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without
it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("exact-topk", "mc-scan", "serve-mixed")

#: Set-ups timed before the first measured stretch. One more is timed
#: after a database (or ``serve-mixed`` round) once ``SETUP_EVERY_S``
#: of measured time passed since the last, so the set-ups sample the
#: whole run: the host's speed swings by up to 2x for seconds at a
#: time, and a burst of set-ups at the start would catch one swing.
#: ``setup_s`` is their mean, not their median: with the samples split
#: between a fast and a slow level, the median jumps between the two
#: levels from run to run, while the mean follows the run's mix of them.
SETUP_BEFORE = 3
SETUP_EVERY_S = 4.0

#: End-to-end metrics: name -> unit. Every workload reports each one.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _host() -> Dict[str, Any]:
    """The repository's host block, plus the load average now."""
    from repro.experiments.host import host_block

    return dict(host_block(), loadavg=list(os.getloadavg()))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _warm_up() -> None:
    """Import and first-call costs, paid before anything is timed."""
    from repro.core.engine import RankingEngine
    from repro.core.metrics import MetricsRegistry
    from repro.serve.lifecycle import synthetic_records

    engine = RankingEngine(
        synthetic_records(12, seed=1),
        seed=0,
        samples=500,
        mcmc_chains=2,
        mcmc_steps=50,
        metrics=MetricsRegistry(),
    )
    engine.utop_prefix(2)
    engine.utop_set(2, method="exact")
    engine.utop_rank(1, 2, method="exact")
    engine.utop_prefix(2, method="mcmc")
    engine.utop_prefix(2, method="montecarlo")
    engine.rank_aggregation(method="montecarlo")
    engine.close()


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------


class Phase:
    """Operations and wall time of one measured stretch of closed loop."""

    def __init__(self) -> None:
        self.ops: List[Any] = []
        self.wall_s = 0.0
        self.setups: List[float] = []
        #: ``wall_s`` when the last set-up sample was taken.
        self.sampled_at = 0.0
        self.engines: List[Any] = []


def _timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


def _measured(tracer, fn, *args):
    """``_timed``, with ``tracer`` (if any) on for exactly this call."""
    if tracer is None:
        return _timed(fn, *args)
    tracer.enabled = True
    try:
        return _timed(fn, *args)
    finally:
        tracer.enabled = False


def _set_up(workload, seed: int, phase: Phase):
    """Generate inputs and build on them; time it into ``phase``.

    Returns ``(inputs, built)``.
    """
    # Garbage left by earlier work is collected untimed, so a set-up
    # never pays for a collection of someone else's objects.
    gc.collect()
    started = time.perf_counter()
    inputs = workload.generate(seed)
    built = workload.build(inputs)
    phase.setups.append(time.perf_counter() - started)
    return inputs, built


def _sample_setup(workload, seed: int, phase: Phase) -> None:
    """Time one set-up and release what it built, when one is due."""
    if phase.wall_s - phase.sampled_at >= SETUP_EVERY_S:
        phase.sampled_at = phase.wall_s
        workload.release(_set_up(workload, seed, phase)[1])


def _pass_phase(
    workload,
    seed: int,
    seconds: Optional[float],
    passes: Optional[int],
    tracer=None,
) -> Tuple[Phase, int]:
    """``passes`` whole passes or, without it, as many as bring the
    measured time nearest ``seconds`` (at least one), judged by the
    first pass.

    Each pass gets freshly built engines, so every query runs cold.
    Returns the phase and the number of passes it ran.
    """
    phase = Phase()
    for _ in range(SETUP_BEFORE - 1):
        workload.release(_set_up(workload, seed, phase)[1])
    units, engines = _set_up(workload, seed, phase)
    done = 0
    while True:
        for unit, engine in zip(units, engines):
            ops, took = _measured(tracer, workload.run_unit, unit, engine)
            phase.ops.extend(ops)
            phase.wall_s += took
            _sample_setup(workload, seed, phase)
        phase.engines.extend(engines)
        done += 1
        if passes is None:
            passes = max(1, int(seconds // phase.wall_s))
        if done >= passes:
            break
        units, engines = _set_up(workload, seed, phase)
    return phase, done


def _serve_phase(
    workload,
    seed: int,
    seconds: Optional[float],
    rounds: Optional[int],
    tracer=None,
) -> Tuple[Phase, int]:
    """Rounds until ``seconds`` pass, or ``rounds``; returns the count.

    At least one round runs.
    """
    phase = Phase()
    for _ in range(SETUP_BEFORE - 1):
        workload.release(_set_up(workload, seed, phase)[1])
    inputs, service = _set_up(workload, seed, phase)
    script = inputs.rounds if rounds is None else inputs.rounds[:rounds]
    done = 0
    try:
        with workload.clients() as clients:
            for round_ in script:
                ops, took = _measured(
                    tracer, workload.run_round, service, round_, clients
                )
                phase.ops.extend(ops)
                phase.wall_s += took
                done += 1
                _sample_setup(workload, seed, phase)
                if seconds is not None and phase.wall_s >= seconds:
                    break
    finally:
        workload.release(service)
    phase.engines = [service.engine]
    return phase, done


def _run_phase(
    name: str,
    workload,
    seed: int,
    seconds: float,
    size: Optional[int] = None,
    tracer=None,
) -> Tuple[Phase, int]:
    """Measure for ``seconds``, or replay exactly ``size`` passes/rounds.

    ``tracer`` is switched on around the measured stretch only, never
    around set-up.
    """
    limit = seconds if size is None else None
    if name == "serve-mixed":
        return _serve_phase(workload, seed, limit, size, tracer)
    return _pass_phase(workload, seed, limit, size, tracer)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def _end_to_end(phase: Phase) -> Tuple[Dict[str, float], Dict[str, Any]]:
    queries = [op.latency_s * 1000.0 for op in phase.ops if op.kind == "query"]
    mutates = [op.latency_s * 1000.0 for op in phase.ops if op.kind == "mutate"]
    attempted = len(phase.ops)
    metrics = {
        "setup_s": statistics.fmean(phase.setups),
        "ops_per_s": attempted / phase.wall_s,
        "query_p50_ms": statistics.median(queries),
        "query_p90_ms": _percentile(queries, 90),
        "peak_rss_mb": _peak_rss_mb(),
    }
    extra = {
        "samples": {
            "setups": len(phase.setups),
            "queries": len(queries),
            "mutations": len(mutates),
        },
        "measured_wall_s": phase.wall_s,
        "setup_samples_s": phase.setups,
        "failed_share": sum(1 for op in phase.ops if not op.ok) / attempted,
        "degraded_share": (
            sum(1 for op in phase.ops if op.degraded) / attempted
        ),
        "mutate_p50_ms": statistics.median(mutates) if mutates else None,
        "p50_ms_by_operation": {
            name: statistics.median(
                op.latency_s * 1000.0 for op in phase.ops if op.name == name
            )
            for name in sorted({op.name for op in phase.ops})
        },
        "query_p99_ms": _percentile(queries, 99),
    }
    return metrics, extra


def _cache_totals(engines: List[Any]) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "topups": 0}
    for engine in engines:
        stats = engine.cache_stats()
        totals["hits"] += stats.hits
        totals["misses"] += stats.misses
        totals["topups"] += stats.topups
    return totals


def _samples_drawn(engines: List[Any]) -> float:
    return sum(
        engine.metrics.counter_total("samples_drawn_total")
        for engine in engines
    )


def _traced(name: str, workload, seed: int, seconds: float):
    """Untraced half, then the same work traced: per-layer metrics."""
    import layers
    from tracer import BlindTrace, Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        plain, size = _run_phase(name, workload, seed, seconds / 2.0)
        tracer.reset()
        traced, _ = _run_phase(name, workload, seed, seconds, size, tracer)
    finally:
        tracer.uninstall()
    missing = layers.unexercised(tracer, name)
    if missing:
        raise BlindTrace(
            f"traced run of {name} recorded no call into layer(s) "
            f"{', '.join(missing)}; was an entry point renamed in src/?"
        )
    pairwise = tracer.instances
    metrics = layers.layer_metrics(
        tracer,
        traced_wall_s=traced.wall_s,
        untraced_wall_s=plain.wall_s,
        cache_delta=_cache_totals(traced.engines),
        samples_drawn=_samples_drawn(traced.engines),
        pairwise_hits=sum(cache.hits for cache in pairwise),
        pairwise_misses=sum(cache.misses for cache in pairwise),
        planner_skips=sum(op.planner_skips for op in traced.ops),
    )
    walls = {"untraced_wall_s": plain.wall_s, "measured_wall_s": traced.wall_s}
    return traced, metrics, tracer, walls


def make_workload(name: str):
    """The workload object behind ``--workload name``."""
    import workloads
    from answers import load_refs

    if name == "serve-mixed":
        return workloads.ServeMixed()
    refs = load_refs()
    if name == "exact-topk":
        return workloads.ExactTopK(refs)
    return workloads.MCScan(refs)


def measure(
    name: str, workload, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, Any], Dict[str, Any], Optional[Any]]:
    """One run: ``(report, result line, tracer or None)``."""
    import layers

    host_start = _host()
    _warm_up()
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    tracer = None
    if trace:
        phase, values, tracer, walls = _traced(name, workload, seed, seconds)
        report.update(walls)
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, (unit, _) in layers.PER_LAYER.items()
        }
    else:
        phase, _ = _run_phase(name, workload, seed, seconds)
        values, extra = _end_to_end(phase)
        report.update(extra)
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in END_TO_END.items()
        }
    failed = sum(1 for op in phase.ops if not op.ok)
    report["failures"] = [op.error for op in phase.ops if not op.ok][:20]
    report["host"] = {"start": host_start, "end": _host()}
    result = {
        "correct": failed == 0,
        "attempted": len(phase.ops),
        "failed": failed,
        "metrics": metrics,
    }
    return report, result, tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # Never fall back to some other installed copy of the program.
        print(f"error: no program under {ROOT}/src", file=sys.stderr)
        return 2

    from tracer import BlindTrace

    workload = make_workload(args.workload)
    try:
        report, result, tracer = measure(
            args.workload, workload, args.seed, args.seconds, bool(args.trace)
        )
    except BlindTrace as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(dict(report, result=result), out, indent=2)
    if tracer is not None:
        tracer.dump(stem + "-spans.jsonl", {"workload": args.workload, "seed": args.seed})
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
