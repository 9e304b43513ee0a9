"""Chaos soak for the ranking service: hostile clients and dying workers.

The acceptance criterion: after a soak mixing a crashed sampling
shard, a slow client, and a mid-request disconnect, the server
still answers ``/readyz``, no shared-memory segment is leaked, and
every response is either complete or flagged partial — never a hung or
dropped connection. The ``chaos`` marker arms the 60-second SIGALRM in
``tests/conftest.py``, so any hang fails loudly.
"""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

from repro.core import shm
from repro.core.chaos import (
    FaultInjector,
    deadline_expired_body,
    disconnecting_request,
    format_http_request,
    slow_client_request,
)
from repro.core.distributions import ScoreDistribution, UniformScore
from repro.core.engine import RankingEngine
from repro.core.metrics import MetricsRegistry
from repro.core.records import UncertainRecord
from repro.serve import RankingService, ServiceConfig
from repro.serve.router import read_response


class _CrashingUniformScore(ScoreDistribution):
    """Uniform score whose first sentinel-bearing draw crashes its shard.

    One-shot unlink-then-raise: the first ``sample`` call that finds
    the sentinel file removes it and raises, as a crashing shard worker
    would; the retried shard finds no sentinel and completes normally.
    """

    def __init__(self, lower, upper, sentinel=None):
        self.lower = float(lower)
        self.upper = float(upper)
        self.sentinel = sentinel

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        width = self.upper - self.lower
        return np.where(
            (x >= self.lower) & (x <= self.upper), 1.0 / width, 0.0
        )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        width = self.upper - self.lower
        return np.clip((x - self.lower) / width, 0.0, 1.0)

    def ppf(self, q):
        return self.lower + np.asarray(q, dtype=float) * (
            self.upper - self.lower
        )

    def mean(self):
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng, size=None):
        if self.sentinel is not None:
            try:
                os.unlink(self.sentinel)
            except FileNotFoundError:
                pass
            else:
                raise RuntimeError("injected shard crash")
        return super().sample(rng, size)


def _crashy_db(sentinel):
    rng = np.random.default_rng(5)
    records = []
    for i in range(30):
        lower = float(rng.uniform(0.0, 10.0))
        score = (
            _CrashingUniformScore(lower, lower + 1.0, sentinel)
            if i == 7
            else UniformScore(lower, lower + 1.0)
        )
        records.append(UncertainRecord(record_id=f"r{i}", score=score))
    return records


async def raw_exchange(port, raw, timeout=30.0):
    """Write raw request bytes, read one response, return (status, body).

    Reads by Content-Length (``read_response``), not until EOF: forked
    MCMC chain workers can hold duplicates of the connection and delay
    the FIN past the response.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await asyncio.wait_for(writer.drain(), timeout)
        status, _, body = await read_response(reader, timeout)
    finally:
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 5.0)
        except (asyncio.TimeoutError, TimeoutError, ConnectionError) as exc:
            del exc  # response already read; close is best-effort
    return status, body


@pytest.mark.chaos
class TestServeChaosSoak:
    def test_soak_survives_worker_kill_slow_client_and_disconnect(
        self, tmp_path
    ):
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        engine = RankingEngine(
            _crashy_db(str(sentinel)),
            seed=11,
            workers=2,
            samples=300,
            metrics=MetricsRegistry(),
        )
        service = RankingService(
            engine,
            ServiceConfig(
                deadline_ms=30_000.0,
                read_timeout_seconds=0.4,
                coalesce=False,
            ),
        )

        async def scenario():
            port = await service.start(port=0)
            try:
                # Leg 1 — a sharded query whose shard crashes mid-draw
                # (j == n so no record is pruned away before the crashy
                # one samples). The shard is retried once with the same
                # seed stream; the response must be a complete,
                # unflagged answer.
                kill_body = json.dumps(
                    {
                        "kind": "utop_rank",
                        "i": 1,
                        "j": 30,
                        "method": "montecarlo",
                    }
                ).encode()
                kill_raw = format_http_request(
                    "POST", "/query", body=kill_body
                )

                # Leg 2 — a client dribbling its request slower than the
                # read timeout; the server must 408-or-hang-up, never
                # pin the handler.
                slow_raw = format_http_request(
                    "POST",
                    "/query",
                    body=json.dumps({"kind": "utop_prefix", "k": 2}).encode(),
                )

                # Leg 3 — a client that vanishes mid-request.
                # Leg 4 — a request already dead on arrival.
                expired_raw = format_http_request(
                    "POST",
                    "/query",
                    body=deadline_expired_body(kind="utop_set", k=2),
                )

                kill_leg, slow_leg, _, expired_leg = await asyncio.gather(
                    raw_exchange(port, kill_raw, timeout=50.0),
                    slow_client_request(
                        "127.0.0.1",
                        port,
                        slow_raw,
                        # 8-byte chunks every 150 ms: the ~64-byte head
                        # alone takes ~1.2 s against a 0.4 s read
                        # timeout, so the server must cut this off.
                        chunk_size=8,
                        delay=0.15,
                    ),
                    disconnecting_request(
                        "127.0.0.1", port, slow_raw, send_bytes=24
                    ),
                    raw_exchange(port, expired_raw),
                )

                # Shard crash: fault fired, shard retried, full answer.
                assert not sentinel.exists(), "shard crash never triggered"
                status, body = kill_leg
                assert status == 200
                payload = json.loads(body)
                assert payload["result"]["answers"]
                assert not payload["result"]["partial"]
                assert (
                    engine.metrics.counter_total("shard_retries_total") >= 1
                )

                # Slow client: either an explicit 408 or a hang-up —
                # never a success, never a stall.
                assert b"200 OK" not in slow_leg
                assert (
                    engine.metrics.counter_total("serve_slow_clients_total")
                    == 1.0
                )

                # Disconnect: accounted for, nothing leaked.
                assert (
                    engine.metrics.counter_total("serve_disconnects_total")
                    == 1.0
                )

                # Expired deadline: flagged degraded answer, not a 504.
                status, body = expired_leg
                assert status == 200
                payload = json.loads(body)
                assert payload["serve"]["degraded"]
                assert payload["result"]["answers"]

                # The service took all of that and is still ready.
                status, body = await raw_exchange(
                    port, format_http_request("GET", "/readyz")
                )
                assert (status, body) == (200, b"ready")
            finally:
                await service.shutdown()
            assert service.state == "stopped"

        asyncio.run(scenario())
        assert shm.live_segments() == frozenset()


@pytest.mark.chaos
class TestSlowKernelDeadlines:
    """Slow distribution kernels (injected) must miss deadlines into the
    degradation ladder and, repeated, trip the circuit breaker."""

    def test_deadline_misses_degrade_then_pin_the_table(self):
        injector = FaultInjector(seed=3)
        schedule = injector.schedule(every=2)
        base = [
            UncertainRecord(f"s{i}", UniformScore(float(i), float(i) + 2.0))
            for i in range(12)
        ]
        # Slow both the sampling path (sample) and the exact path (cdf)
        # so no ladder rung can finish inside the 1 ms SLO. The sample
        # count must span more than one cache block (SAMPLE_BLOCK =
        # 4096): deadline polls land at block boundaries, so a
        # single-block draw that starts with a sliver of budget left
        # would complete un-clipped and unflagged (the documented
        # overshoot-by-one-chunk design) instead of degrading.
        records = injector.wrap_records(
            base, schedule, mode="slow", methods=("sample", "cdf"),
            delay=0.005,
        )
        engine = RankingEngine(
            records, seed=2, samples=8192, metrics=MetricsRegistry()
        )
        service = RankingService(
            engine,
            ServiceConfig(
                deadline_ms=30_000.0,
                breaker_threshold=2,
                breaker_cooldown_seconds=60.0,
                coalesce=False,
            ),
        )

        async def scenario():
            port = await service.start(port=0)
            try:
                # Two auto-method queries with a 1 ms SLO: the slow
                # kernels guarantee the deadline is missed, the ladder
                # still answers (a forced method would hard-error
                # instead of degrading), and two misses open the
                # breaker.
                for index in range(2):
                    status, body = await raw_exchange(
                        port,
                        format_http_request(
                            "POST",
                            "/query",
                            body=json.dumps(
                                {
                                    "kind": "utop_rank",
                                    "i": 1,
                                    "j": 3 + index,
                                    "deadline_ms": 1,
                                }
                            ).encode(),
                        ),
                    )
                    assert status == 200
                    payload = json.loads(body)
                    assert payload["serve"]["degraded"]
                    assert payload["result"]["answers"]

                # The table is now pinned: a generous-deadline query is
                # forced onto the baseline method and says so.
                status, body = await raw_exchange(
                    port,
                    format_http_request(
                        "POST",
                        "/query",
                        body=json.dumps(
                            {"kind": "utop_prefix", "k": 2}
                        ).encode(),
                    ),
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["serve"]["pinned"]
                assert payload["serve"]["breaker"] == "open"
                assert payload["result"]["method"] == "baseline"
                assert payload["result"]["answers"]
                assert (
                    engine.metrics.counter_total("serve_breaker_pinned_total")
                    >= 1
                )
            finally:
                await service.shutdown()

        asyncio.run(scenario())
        assert shm.live_segments() == frozenset()
