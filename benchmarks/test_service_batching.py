"""Benchmark: micro-batched service throughput vs the per-request path.

Acceptance criterion of the solve-service PR: at 32 concurrent
*compatible* requests (same heuristic, task count and platform size —
one batching signature), the micro-batched service must clear **>= 2x**
the per-request path.  Both paths run through the same
:class:`~repro.service.batcher.MicroBatcher` under the same batching
window, so the measured ratio isolates the lock-step ``solve_batch`` +
stacked scoring pass against 32 individual solves — scheduling,
normalisation and instance sampling costs are identical on both sides,
and the responses are asserted bit-for-bit equal first.  The ratio is
measured on H4ls (``n=40, p=4, m=10``), whose batched descent carries
the lock-step gain; H2/H3 have no lock-step kernel.

``test_bench_service_microbatch`` additionally pins the wall-clock of
a 32-deep H2 round in the CI regression gate (``benchmarks/baseline.json``), and
``test_bench_service_sustained_mixed`` pins a **sustained-throughput**
round: 256 concurrent *mixed* requests (four signatures, four
heuristics, batch-kernel and fallback paths together) through one
batcher — the traffic shape the production-hardening PR optimizes for.
"""

from __future__ import annotations

import asyncio
import time

from repro.service import MicroBatcher, direct_response, normalize_request

#: Concurrent compatible requests, per the acceptance criterion.
CONCURRENCY = 32

#: Concurrent mixed requests of the sustained-throughput benchmark.
MIXED_CONCURRENCY = 256

#: The mixed round's signatures: (heuristic, tasks, types, machines).
#: Four heuristics across four platform shapes — H4w/H4f take the
#: lock-step batch kernels at this depth, H2/H3 the per-instance greedy
#: walk, so the round spans the service's code paths instead of one hot
#: loop.
MIXED_SPECS = (
    ("H4w", 40, 3, 8),
    ("H2", 25, 2, 6),
    ("H3", 30, 3, 10),
    ("H4f", 20, 2, 5),
)


def _requests(heuristic="H2", tasks=100, types=5, machines=50):
    """32 compatible requests: one signature, 32 distinct seeds."""
    return [
        normalize_request(
            {
                "heuristic": heuristic,
                "application": {"tasks": tasks, "types": types},
                "platform": {"machines": machines},
                "options": {"seed": seed},
            }
        )
        for seed in range(CONCURRENCY)
    ]


def _serve_all(requests, *, batch: bool) -> list[dict]:
    """All requests through one service batcher, batched or per-request.

    No cache — every round must actually solve (the benchmark measures
    solving, not dict lookups).  The window is wide enough that all 32
    requests always land in one group on both paths; ``batch`` is then
    the only difference.
    """

    async def scenario():
        batcher = MicroBatcher(
            window=0.05, max_batch=CONCURRENCY, batch=batch, cache=None
        )
        return await asyncio.gather(
            *(batcher.submit(request) for request in requests)
        )

    return asyncio.run(scenario())


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_service_batching_speedup_at_32_concurrent():
    """Acceptance: batched service throughput >= 2x per-request at 32."""
    requests = _requests("H4ls", tasks=40, types=4, machines=10)
    batched = _serve_all(requests, batch=True)
    fallback = _serve_all(requests, batch=False)
    reference = [direct_response(request) for request in requests]
    for response, other, direct in zip(batched, fallback, reference):
        # Bit-for-bit across all three paths before comparing clocks.
        assert response["assignment"] == other["assignment"] == direct["assignment"]
        assert response["period"] == other["period"] == direct["period"]

    batched_time = _time(lambda: _serve_all(requests, batch=True))
    fallback_time = _time(lambda: _serve_all(requests, batch=False))
    speedup = fallback_time / batched_time
    print(
        f"\n{CONCURRENCY} concurrent compatible H4ls requests: per-request "
        f"{fallback_time * 1e3:.0f} ms, micro-batched {batched_time * 1e3:.0f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 2.0


def test_bench_service_microbatch(benchmark):
    """Key benchmark: one 32-deep micro-batched service round."""
    requests = _requests()
    benchmark(lambda: _serve_all(requests, batch=True))


def test_bench_service_per_request(benchmark):
    """Companion: the same 32 requests on the per-request path."""
    requests = _requests()
    benchmark(lambda: _serve_all(requests, batch=False))


def _mixed_requests():
    """256 mixed requests round-robined over the four signatures."""
    requests = []
    for index in range(MIXED_CONCURRENCY):
        heuristic, tasks, types, machines = MIXED_SPECS[index % len(MIXED_SPECS)]
        requests.append(
            normalize_request(
                {
                    "heuristic": heuristic,
                    "application": {"tasks": tasks, "types": types},
                    "platform": {"machines": machines},
                    "options": {"seed": index},
                }
            )
        )
    return requests


def _serve_mixed(requests) -> list[dict]:
    """One sustained round: every mixed request through one batcher.

    Production knobs: the batch/fallback crossover decides per group
    (``batch=None``) and no cache — a sustained-load benchmark must
    measure solving under concurrency, not lookups.  64 requests per
    signature means each group flushes on the ``max_batch`` size
    trigger, not the window.
    """

    async def scenario():
        batcher = MicroBatcher(window=0.05, batch=None, cache=None)
        return await asyncio.gather(
            *(batcher.submit(request) for request in requests)
        )

    return asyncio.run(scenario())


def test_service_sustained_mixed_equivalence():
    """256 mixed concurrent responses are bit-for-bit the direct solves."""
    requests = _mixed_requests()
    responses = _serve_mixed(requests)
    for request, response in zip(requests, responses):
        reference = direct_response(request)
        assert response["assignment"] == reference["assignment"]
        assert response["period"] == reference["period"]
        assert response["throughput"] == reference["throughput"]
        assert response["key"] == reference["key"]


def test_bench_service_sustained_mixed(benchmark):
    """Key benchmark: one 256-deep mixed concurrent service round."""
    requests = _mixed_requests()
    benchmark(lambda: _serve_mixed(requests))


class _BypassSpan:
    """A span stand-in with literally zero per-call work."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set(self, **attrs):
        pass


def test_tracing_disabled_overhead_within_noise(monkeypatch):
    """Gate: instrumented hot path with tracing *off* stays within 5%.

    The telemetry PR's acceptance criterion: the span call sites that
    now live on the batcher hot path must be free when no trace store is
    configured.  The shipped path still calls ``span()`` (which returns
    a shared no-op after two cheap checks); the baseline below patches
    the batcher's ``span``/``tracing_active`` symbols to zero-work
    stubs, so the measured ratio isolates exactly the disabled-tracing
    overhead on the sustained-mixed round.
    """
    from repro.obs import trace
    from repro.service import batcher as batcher_module

    trace.disable()  # belt and braces: the gate measures the OFF path
    requests = _mixed_requests()
    _serve_mixed(requests)  # one warm-up round before either clock runs

    instrumented = _time(lambda: _serve_mixed(requests), repeats=5)

    bypass = _BypassSpan()
    monkeypatch.setattr(batcher_module, "span", lambda name, **attrs: bypass)
    monkeypatch.setattr(batcher_module, "tracing_active", lambda: False)
    baseline = _time(lambda: _serve_mixed(requests), repeats=5)

    overhead = instrumented / baseline - 1.0
    print(
        f"\nsustained mixed round: instrumented {instrumented * 1e3:.0f} ms, "
        f"span-bypassed {baseline * 1e3:.0f} ms "
        f"({overhead * 100:+.1f}% disabled-tracing overhead)"
    )
    assert instrumented <= baseline * 1.05
