"""The ``/v1/stats`` and ``/v1/metrics`` surfaces, pinned end to end.

One fixed in-process :class:`~repro.service.server.SolveService`
sequence touches every counter the two surfaces expose: a persistent-
tier hit, a memory-tier hit, a miss, a coalesced duplicate, a batched
group and per-instance (fallback) groups, a 429 shed, a 504 deadline,
a 404, and replanning sessions that are created, fed events, closed and
expired.  The test then asserts the whole ``/v1/stats`` key tree with
every counter value, and the sorted list of ``/v1/metrics`` series.
Latencies, sizes and clocks are measurements: only their presence (as
a number) is asserted.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.service.cache import SolveCache
from repro.service.requests import direct_response, normalize_request
from repro.service.server import SolveService


class _Measured:
    """Equal to any int or float (bools excluded): a measured value."""

    def __eq__(self, other) -> bool:
        return isinstance(other, (int, float)) and not isinstance(other, bool)

    def __repr__(self) -> str:
        return "<measured>"


MEASURED = _Measured()


def solve_payload(seed: int, *, tasks: int = 10, deadline_ms=None) -> dict:
    options = {"seed": seed, "repetition": 0}
    if deadline_ms is not None:
        options["deadline_ms"] = deadline_ms
    return {
        "heuristic": "H4w",
        "application": {"tasks": tasks, "types": 3},
        "platform": {"machines": 5},
        "options": options,
    }


def session_payload(**options) -> dict:
    return {
        "heuristic": "H4ls",
        "application": {"tasks": 10, "types": 3},
        "platform": {"machines": 6},
        "options": {"seed": 0, "repetition": 0, **options},
    }


#: Session events: cold, warm or cache replans, an infeasible platform,
#: a missed and a served request probe.
SESSION_EVENTS = (
    {"kind": "fail", "machine": 0, "time": 1.0},
    {"kind": "fail", "machine": 1, "time": 2.0},
    {"kind": "request", "time": 2.5},
    {"kind": "fail", "machine": 2, "time": 3.0},
    {"kind": "fail", "machine": 3, "time": 4.0},
    {"kind": "request", "time": 4.5},
    {"kind": "recover", "machine": 3, "time": 6.0},
    {"kind": "recover", "machine": 0, "time": 7.0},
    {"kind": "request", "time": 8.0},
)


def body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


async def spin(condition, ticks: int = 2000) -> None:
    for _ in range(ticks):
        if condition():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("condition still false")


async def drive(cache_dir) -> tuple[dict, str]:
    """Run the fixed sequence; the ``/v1/stats`` and ``/v1/metrics`` bodies."""
    # Seed the persistent tier with the answer to seed 1, so the
    # service's first lookup of it is a store hit.
    seeded = normalize_request(solve_payload(1))
    store = SolveCache.open(cache_dir, capacity=0)
    store.put(seeded.key, direct_response(seeded))

    service = SolveService(port=0, cache_dir=str(cache_dir), max_pending=6)
    dispatch = service._dispatch
    statuses = []

    async def post(path: str, payload: dict) -> dict:
        status, answer, _ = await dispatch("POST", path, body(payload))
        statuses.append(status)
        return answer

    def stat(section: str, key: str):
        return service.stats_payload()[section][key]

    try:
        assert (await post("/v1/solve", solve_payload(1)))["cached"] == "store"
        assert (await post("/v1/solve", solve_payload(1)))["cached"] == "memory"
        assert (await post("/v1/solve", solve_payload(2)))["cached"] is False

        # Hold every solve from here on until the gate opens.
        gate = asyncio.Event()
        inner = service.batcher._solve

        async def gated(requests):
            await gate.wait()
            return await inner(requests)

        service.batcher._solve = gated
        blockers = [
            asyncio.create_task(post("/v1/solve", solve_payload(3, tasks=tasks)))
            for tasks in (20, 21)
        ]
        await spin(lambda: stat("batcher", "flushes") == 3)
        status, answer, _ = await dispatch(
            "POST", "/v1/solve", body(solve_payload(4, tasks=12, deadline_ms=50))
        )
        assert status == 504, answer
        group = [
            asyncio.create_task(post("/v1/solve", solve_payload(seed)))
            for seed in (10, 11, 12)
        ]
        await spin(lambda: len(service.batcher._inflight) == 6)
        duplicate = asyncio.create_task(post("/v1/solve", solve_payload(10)))
        await spin(lambda: stat("batcher", "coalesced") == 1)
        status, answer, _ = await dispatch("POST", "/v1/solve", body(solve_payload(13)))
        assert status == 429, answer
        status, answer, _ = await dispatch("GET", "/v1/nope", b"")
        assert status == 404, answer
        gate.set()
        await asyncio.gather(*blockers, *group, duplicate)
        assert statuses == [200] * 9, statuses

        created = await post("/v1/session", session_payload())
        session = created["session"]
        for event in SESSION_EVENTS:
            await post(f"/v1/session/{session}/event", event)
        status, closed, _ = await dispatch("DELETE", f"/v1/session/{session}", b"")
        assert status == 200 and closed["closed"], closed
        await post("/v1/session", session_payload(ttl_seconds=1.0))
        assert service.sessions.sweep(now=time.monotonic() + 100.0) == 1

        status, stats, _ = await dispatch("GET", "/v1/stats", b"")
        assert status == 200
        status, metrics, _ = await dispatch("GET", "/v1/metrics", b"")
        assert status == 200
    finally:
        await service.stop()
    return json.loads(json.dumps(stats)), metrics


def assert_matches(actual, expected, path: str = "stats") -> None:
    """Same key tree, equal leaves, and an int stays an int (JSON shape)."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), (path, actual)
        assert sorted(actual) == sorted(expected), (path, sorted(actual))
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{path}.{key}")
    else:
        assert actual == expected, (path, actual, expected)
        assert expected is MEASURED or type(actual) is type(expected), (path, actual)


def counter_samples(values: dict) -> dict:
    return {"kind": "counter", "samples": values}


def gauge_samples(values: dict) -> dict:
    return {"kind": "gauge", "samples": values}


def histogram_samples(count: int) -> dict:
    return {"kind": "histogram", "samples": {"": {"count": count, "sum": MEASURED}}}


EXPECTED_STATS = {
    "service": {
        "uptime_seconds": MEASURED,
        "started_at_unix": MEASURED,
        "solved": 9,
        "errors": 1,
        "shed": 1,
        "deadline_exceeded": 1,
        "latency_mean_ms": MEASURED,
        "latency_max_ms": MEASURED,
        "latency_p50_ms": MEASURED,
        "latency_p95_ms": MEASURED,
        "latency_p99_ms": MEASURED,
    },
    "batcher": {
        "requests": 11,
        "flushes": 5,
        "batched_requests": 3,
        "fallback_requests": 4,
        "coalesced": 1,
        "shed": 1,
        "max_group": 3,
        "solve_seconds": MEASURED,
    },
    "sessions": {
        "active": 0,
        "created": 2,
        "closed": 1,
        "expired": 1,
        "events": 11,
        "replans": {"cache": 1, "warm": 1, "cold": 5, "infeasible": 1},
        "served": 2,
        "missed": 1,
        "availability": 0.75,
        "replan_p50_ms": MEASURED,
        "replan_p95_ms": MEASURED,
        "replan_p99_ms": MEASURED,
    },
    "cache": {
        "hits": 2,
        "memory_hits": 1,
        "store_hits": 1,
        "misses": 9,
        "puts": 7,
        "evictions": 0,
        "store_entries": 8,
        "store_bytes": MEASURED,
        "store_max_bytes": None,
        "store_evictions": 0,
        "compactions": 0,
    },
    "workers": 0,
    "metrics": {
        "repro_batcher_coalesced_total": counter_samples({"": 1}),
        "repro_batcher_flushes_total": counter_samples({"": 5}),
        "repro_batcher_max_group": gauge_samples({"": 3}),
        "repro_batcher_requests_total": counter_samples({"": 11}),
        "repro_batcher_shed_total": counter_samples({"": 1}),
        "repro_batcher_solve_seconds_total": counter_samples({"": MEASURED}),
        "repro_batcher_solved_requests_total": counter_samples(
            {'{path="batched"}': 3, '{path="fallback"}': 4}
        ),
        "repro_cache_hits_total": counter_samples(
            {'{tier="memory"}': 1, '{tier="store"}': 1}
        ),
        "repro_cache_memory_evictions_total": counter_samples({"": 0}),
        "repro_cache_misses_total": counter_samples({"": 9}),
        "repro_cache_puts_total": counter_samples({"": 7}),
        "repro_cache_store_bytes": gauge_samples({"": MEASURED}),
        "repro_cache_store_compactions": gauge_samples({"": 0}),
        "repro_cache_store_entries": gauge_samples({"": 8}),
        "repro_cache_store_evictions": gauge_samples({"": 0}),
        "repro_replan_seconds": histogram_samples(8),
        "repro_replans_total": counter_samples(
            {
                '{tier="cache"}': 1,
                '{tier="cold"}': 5,
                '{tier="infeasible"}': 1,
                '{tier="warm"}': 1,
            }
        ),
        "repro_service_deadline_exceeded_total": counter_samples({"": 1}),
        "repro_service_errors_total": counter_samples({"": 1}),
        "repro_service_latency_max_seconds": gauge_samples({"": MEASURED}),
        "repro_service_latency_seconds": histogram_samples(9),
        "repro_service_requests_total": counter_samples({"": 9}),
        "repro_service_shed_total": counter_samples({"": 1}),
        "repro_service_uptime_seconds": gauge_samples({"": MEASURED}),
        "repro_service_workers": gauge_samples({"": 0}),
        "repro_session_events_missed_total": counter_samples({"": 1}),
        "repro_session_events_served_total": counter_samples({"": 2}),
        "repro_session_events_total": counter_samples({"": 11}),
        "repro_sessions_active": gauge_samples({"": 0}),
        "repro_sessions_lifecycle_total": counter_samples(
            {'{event="closed"}': 1, '{event="created"}': 2, '{event="expired"}': 1}
        ),
    },
}


def histogram_series(name: str) -> list[str]:
    bounds = ("0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25",
              "0.5", "1", "2.5", "5", "10", "+Inf")
    return [
        *(f'{name}_bucket{{le="{bound}"}}' for bound in bounds),
        f"{name}_count",
        f"{name}_sum",
    ]


EXPECTED_SERIES = sorted(
    [
        "repro_batcher_coalesced_total",
        "repro_batcher_flushes_total",
        "repro_batcher_max_group",
        "repro_batcher_requests_total",
        "repro_batcher_shed_total",
        "repro_batcher_solve_seconds_total",
        'repro_batcher_solved_requests_total{path="batched"}',
        'repro_batcher_solved_requests_total{path="fallback"}',
        'repro_cache_hits_total{tier="memory"}',
        'repro_cache_hits_total{tier="store"}',
        "repro_cache_memory_evictions_total",
        "repro_cache_misses_total",
        "repro_cache_puts_total",
        "repro_cache_store_bytes",
        "repro_cache_store_compactions",
        "repro_cache_store_entries",
        "repro_cache_store_evictions",
        *histogram_series("repro_replan_seconds"),
        'repro_replans_total{tier="cache"}',
        'repro_replans_total{tier="cold"}',
        'repro_replans_total{tier="infeasible"}',
        'repro_replans_total{tier="warm"}',
        "repro_service_deadline_exceeded_total",
        "repro_service_errors_total",
        "repro_service_latency_max_seconds",
        *histogram_series("repro_service_latency_seconds"),
        "repro_service_requests_total",
        "repro_service_shed_total",
        "repro_service_uptime_seconds",
        "repro_service_workers",
        "repro_session_events_missed_total",
        "repro_session_events_served_total",
        "repro_session_events_total",
        "repro_sessions_active",
        'repro_sessions_lifecycle_total{event="closed"}',
        'repro_sessions_lifecycle_total{event="created"}',
        'repro_sessions_lifecycle_total{event="expired"}',
    ]
)


def test_stats_and_metrics_surfaces(tmp_path):
    stats, metrics = asyncio.run(asyncio.wait_for(drive(tmp_path / "cache"), 60.0))
    series = sorted(
        line.rsplit(" ", 1)[0] for line in metrics.splitlines() if not line.startswith("#")
    )
    assert_matches(stats, EXPECTED_STATS)
    assert series == EXPECTED_SERIES
