"""Unit tests for the solve service: requests, cache, batcher, server."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError, ServiceOverloadedError
from repro.heuristics import available_heuristics
from repro.heuristics.base import batch_solve_min_repetitions
from repro.obs.metrics import nearest_rank
from repro.service import (
    LatencyReservoir,
    MicroBatcher,
    ServiceClient,
    ServiceStats,
    SolveCache,
    SolveCacheStore,
    SolveService,
    SolveWorkerPool,
    direct_response,
    normalize_request,
)

# The micro-batcher's crossover for the heuristic used by make_payload.
BATCH_THRESHOLD = batch_solve_min_repetitions("H4w")


def make_payload(**overrides) -> dict:
    payload = {
        "heuristic": "H4w",
        "application": {"tasks": 10, "types": 3},
        "platform": {"machines": 5},
        "options": {"seed": 0, "repetition": 0},
    }
    for key, value in overrides.items():
        if key in ("tasks", "types"):
            payload["application"][key] = value
        elif key in ("machines", "w_range", "f_range", "task_dependent_failures"):
            payload["platform"][key] = value
        elif key in ("seed", "repetition", "deadline_ms"):
            payload["options"][key] = value
        else:
            payload[key] = value
    return payload


def run(coro):
    return asyncio.run(coro)


def remote(url: str, method: str, *args):
    """One ``ServiceClient`` call on a fresh connection; a 429 is not retried."""
    with ServiceClient(url, retries=0) as client:
        return getattr(client, method)(*args)


class TestNormalizeRequest:
    def test_defaults_fill_in(self):
        request = normalize_request(
            {
                "heuristic": "H2",
                "application": {"tasks": 6, "types": 2},
                "platform": {"machines": 3},
            }
        )
        assert request.seed == 0
        assert request.repetition == 0
        assert request.num_tasks == 6
        assert request.scenario.num_machines == 3

    def test_heuristic_case_is_canonicalized(self):
        lower = normalize_request(make_payload(heuristic="h4w"))
        upper = normalize_request(make_payload(heuristic="H4W"))
        assert lower.heuristic == upper.heuristic == "H4w"
        assert lower.key == upper.key

    def test_key_covers_every_response_field(self):
        base = normalize_request(make_payload())
        assert normalize_request(make_payload()).key == base.key
        for variant in (
            make_payload(seed=1),
            make_payload(repetition=1),
            make_payload(tasks=11),
            make_payload(types=2),
            make_payload(machines=6),
            make_payload(heuristic="H2"),
            make_payload(w_range=[5.0, 50.0]),
            make_payload(f_range=[0.0, 0.1]),
            make_payload(task_dependent_failures=True),
        ):
            assert normalize_request(variant).key != base.key, variant

    def test_signature_groups_structurally_compatible_requests(self):
        base = normalize_request(make_payload())
        assert normalize_request(make_payload(seed=5)).signature == base.signature
        assert normalize_request(make_payload(types=2)).signature == base.signature
        assert normalize_request(make_payload(tasks=12)).signature != base.signature
        assert normalize_request(make_payload(machines=6)).signature != base.signature
        assert normalize_request(make_payload(heuristic="H2")).signature != base.signature

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            make_payload(heuristic="NoSuchHeuristic"),
            make_payload(typo="yes"),
            {**make_payload(), "application": {"tasks": 10, "types": 3, "junk": 1}},
            {**make_payload(), "options": {"seed": 0, "junk": 1}},
            make_payload(tasks=0),
            make_payload(types=11),  # p > n
            make_payload(machines=2),  # p > m
            make_payload(repetition=-1),
            make_payload(seed=-1),
            make_payload(seed="zero"),
            make_payload(deadline_ms=0),
            make_payload(deadline_ms=-5),
            make_payload(deadline_ms=True),
            make_payload(deadline_ms="fast"),
        ],
    )
    def test_bad_payloads_are_rejected(self, payload):
        with pytest.raises(ExperimentError):
            normalize_request(payload)

    def test_deadline_is_parsed_but_excluded_from_the_key(self):
        plain = normalize_request(make_payload())
        deadlined = normalize_request(make_payload(deadline_ms=250))
        assert plain.deadline_ms is None
        assert deadlined.deadline_ms == 250.0
        # A scheduling knob only: a retry with a different deadline must
        # hit the cache entry of the first solve.
        assert deadlined.key == plain.key

    def test_request_must_be_an_object(self):
        with pytest.raises(ExperimentError):
            normalize_request(["heuristic", "H4w"])

    def test_direct_response_is_deterministic(self):
        request = normalize_request(make_payload(heuristic="H1", seed=9))
        first = direct_response(request)
        second = direct_response(request)
        assert first == second
        assert len(first["assignment"]) == 10
        assert first["period"] > 0
        assert first["throughput"] == 1.0 / first["period"]


class TestSolveCache:
    def test_memory_tier_hit_and_eviction(self):
        cache = SolveCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == ({"v": 1}, "memory")
        cache.put("c", {"v": 3})  # evicts "b" (least recently used)
        assert cache.get("b") == (None, None)
        assert cache.get("a")[1] == "memory"
        assert cache.stats.evictions == 1
        assert cache.stats.memory_hits == 2
        assert cache.stats.misses == 1

    def test_persistent_tier_survives_reopen_and_promotes(self, tmp_path):
        cache = SolveCache.open(tmp_path / "cache")
        cache.put("k", {"v": 42})
        cache.close()

        reopened = SolveCache.open(tmp_path / "cache")
        response, tier = reopened.get("k")
        assert response == {"v": 42}
        assert tier == "store"
        # Promoted into memory: the second lookup is a memory hit.
        assert reopened.get("k") == ({"v": 42}, "memory")
        reopened.close()

    def test_store_tier_rebuilds_a_stale_index(self, tmp_path):
        store = SolveCacheStore(tmp_path / "cache")
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        store.close()
        index_path = tmp_path / "cache" / "index.json"
        raw = json.loads(index_path.read_text())
        raw["solve"] = {key: offset + 7 for key, offset in raw["solve"].items()}
        index_path.write_text(json.dumps(raw))

        reopened = SolveCacheStore(tmp_path / "cache")
        assert reopened.get("k2") == {"v": 2}
        assert reopened.get("k1") == {"v": 1}


class TestMicroBatcher:
    def test_window_flush_groups_concurrent_requests(self):
        async def scenario():
            batcher = MicroBatcher(window=0.05)
            requests = [
                normalize_request(make_payload(seed=seed)) for seed in range(4)
            ]
            responses = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            return batcher.stats, requests, responses

        stats, requests, responses = run(scenario())
        # All four arrived within the window: one flush, one group of 4.
        assert stats.flushes == 1
        assert stats.max_group == 4
        for request, response in zip(requests, responses):
            reference = direct_response(request)
            assert response["assignment"] == reference["assignment"]
            assert response["period"] == reference["period"]

    def test_max_batch_flushes_immediately(self):
        async def scenario():
            batcher = MicroBatcher(window=60.0, max_batch=2)
            requests = [
                normalize_request(make_payload(seed=seed)) for seed in range(4)
            ]
            responses = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            return batcher.stats, responses

        # A one-minute window would hang the test if the size trigger failed.
        stats, responses = run(asyncio.wait_for(scenario(), timeout=10.0))
        assert stats.flushes == 2
        assert stats.max_group == 2
        assert len(responses) == 4

    def test_signature_grouping_keeps_incompatible_requests_apart(self):
        async def scenario():
            batcher = MicroBatcher(window=0.05)
            requests = [
                normalize_request(make_payload(seed=seed)) for seed in range(3)
            ] + [
                normalize_request(make_payload(tasks=12, seed=seed))
                for seed in range(3)
            ] + [
                normalize_request(make_payload(heuristic="H2", seed=seed))
                for seed in range(3)
            ]
            responses = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            return batcher.stats, requests, responses

        stats, requests, responses = run(scenario())
        assert stats.flushes == 3  # one per distinct signature
        for request, response in zip(requests, responses):
            reference = direct_response(request)
            assert response["assignment"] == reference["assignment"]
            assert response["period"] == reference["period"]

    def test_sub_threshold_groups_fall_back_per_instance(self):
        async def scenario():
            batcher = MicroBatcher(window=0.02)
            requests = [
                normalize_request(make_payload(seed=seed))
                for seed in range(BATCH_THRESHOLD - 1)
            ]
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            ), batcher.stats

        responses, stats = run(scenario())
        assert stats.batched_requests == 0
        assert stats.fallback_requests == len(responses)
        assert all(response["batched"] is False for response in responses)

    def test_threshold_deep_groups_take_the_batch_kernel(self):
        async def scenario():
            batcher = MicroBatcher(window=0.05)
            requests = [
                normalize_request(make_payload(seed=seed))
                for seed in range(BATCH_THRESHOLD)
            ]
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            ), batcher.stats

        responses, stats = run(scenario())
        assert stats.batched_requests == len(responses)
        assert all(response["batched"] is True for response in responses)

    def test_identical_requests_coalesce_into_one_solve(self):
        async def scenario():
            batcher = MicroBatcher(window=0.05)
            request = normalize_request(make_payload(seed=3))
            responses = await asyncio.gather(
                *(batcher.submit(request) for _ in range(5))
            )
            return batcher.stats, responses

        stats, responses = run(scenario())
        assert stats.coalesced == 4
        assert stats.max_group == 1  # one unique request actually solved
        assert all(response == responses[0] for response in responses)

    def test_identical_request_joins_a_solve_already_in_flight(self):
        async def scenario():
            # window=0: the first request's group flushes on the next
            # loop tick, so by the time the duplicate arrives the solve
            # is running on the executor — no pending group, no cache.
            batcher = MicroBatcher(window=0.0, cache=None)
            solving = threading.Event()
            release = threading.Event()
            inner_solve = batcher._solve

            def gated_solve(requests):
                solving.set()
                assert release.wait(timeout=10.0)
                return inner_solve(requests)

            batcher._solve = gated_solve
            request = normalize_request(make_payload(seed=3))
            first = asyncio.create_task(batcher.submit(request))
            while not solving.is_set():  # the solve is now mid-executor
                await asyncio.sleep(0.001)
            second = asyncio.create_task(batcher.submit(request))
            await asyncio.sleep(0.01)
            release.set()
            return batcher.stats, await first, await second

        stats, first, second = run(scenario())
        assert stats.coalesced == 1
        assert stats.flushes == 1  # the duplicate never formed a group
        assert first == second

    def test_cache_hits_skip_the_solver(self):
        async def scenario():
            batcher = MicroBatcher(window=0.0, cache=SolveCache(capacity=16))
            request = normalize_request(make_payload(seed=1))
            first = await batcher.submit(request)
            second = await batcher.submit(request)
            return batcher.stats, first, second

        stats, first, second = run(scenario())
        assert first["cached"] is False
        assert second["cached"] == "memory"
        assert stats.flushes == 1  # the second submit never reached a group
        assert {k: v for k, v in second.items() if k != "cached"} == {
            k: v for k, v in first.items() if k != "cached"
        }

    @pytest.mark.parametrize("heuristic", available_heuristics())
    def test_batched_service_solves_match_direct_solves(self, heuristic):
        """Bit-for-bit equivalence, batched and fallback, every heuristic."""

        async def scenario():
            batcher = MicroBatcher(window=0.05, batch=True)
            requests = [
                normalize_request(
                    make_payload(heuristic=heuristic, seed=seed)
                )
                for seed in range(BATCH_THRESHOLD)
            ]
            responses = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            return requests, responses

        requests, responses = run(scenario())
        for request, response in zip(requests, responses):
            reference = direct_response(request)
            assert response["assignment"] == reference["assignment"]
            assert response["period"] == reference["period"]
            assert response["throughput"] == reference["throughput"]
            assert response["key"] == reference["key"]


class TestSolveService:
    def request_in_executor(self, call):
        return asyncio.get_running_loop().run_in_executor(None, call)

    def test_http_solve_stats_health_roundtrip(self):
        async def scenario():
            service = SolveService(port=0, window=0.001)
            await service.start()
            url = service.url
            payload = make_payload(seed=2)
            try:
                response = await self.request_in_executor(
                    lambda: remote(url, "solve", payload)
                )
                duplicate = await self.request_in_executor(
                    lambda: remote(url, "solve", payload)
                )
                stats = await self.request_in_executor(lambda: remote(url, "stats"))
                health = await self.request_in_executor(
                    lambda: remote(url, "healthz")
                )
            finally:
                await service.stop()
            return payload, response, duplicate, stats, health

        payload, response, duplicate, stats, health = run(scenario())
        reference = direct_response(normalize_request(payload))
        assert response["assignment"] == reference["assignment"]
        assert response["period"] == reference["period"]
        assert response["cached"] is False
        assert duplicate["cached"] == "memory"
        assert stats["service"]["solved"] == 2
        assert stats["cache"]["hits"] == 1
        assert health["status"] == "ok"

    def test_http_errors_are_json_not_disconnects(self):
        async def scenario():
            service = SolveService(port=0, window=0.001)
            await service.start()
            url = service.url
            try:
                with pytest.raises(ExperimentError, match="unknown heuristic"):
                    await self.request_in_executor(
                        lambda: remote(
                            url, "solve", make_payload(heuristic="NoSuchHeuristic")
                        )
                    )
                with pytest.raises(ExperimentError, match="no such endpoint"):
                    await self.request_in_executor(
                        lambda: remote(url, "get", "/nowhere")
                    )
                stats = await self.request_in_executor(lambda: remote(url, "stats"))
            finally:
                await service.stop()
            return stats

        stats = run(scenario())
        assert stats["service"]["errors"] == 2
        assert stats["service"]["solved"] == 0

    def test_malformed_content_length_does_not_kill_the_server(self):
        async def scenario():
            service = SolveService(port=0, window=0.001)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(b"POST /solve HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
                await writer.drain()
                await reader.read()  # the bad connection is dropped...
                writer.close()
                # ...but the server survives and keeps answering.
                health = await self.request_in_executor(
                    lambda: remote(service.url, "healthz")
                )
            finally:
                await service.stop()
            return health

        assert run(scenario())["status"] == "ok"

    def test_solver_crash_returns_500_json(self):
        async def scenario():
            service = SolveService(port=0, window=0.001)

            async def boom(request):
                raise RuntimeError("kernel exploded")

            service.batcher.submit = boom
            await service.start()
            url = service.url
            try:
                with pytest.raises(ExperimentError, match="kernel exploded"):
                    await self.request_in_executor(
                        lambda: remote(url, "solve", make_payload())
                    )
                stats = await self.request_in_executor(lambda: remote(url, "stats"))
            finally:
                await service.stop()
            return stats

        stats = run(scenario())
        assert stats["service"]["errors"] == 1
        assert stats["service"]["solved"] == 0

    def test_persistent_cache_warms_a_restarted_service(self, tmp_path):
        cache_dir = str(tmp_path / "solve-cache")
        payload = make_payload(seed=11)

        async def round_one():
            service = SolveService(port=0, window=0.001, cache_dir=cache_dir)
            await service.start()
            try:
                return await self.request_in_executor(
                    lambda: remote(service.url, "solve", payload)
                )
            finally:
                await service.stop()

        async def round_two():
            service = SolveService(port=0, window=0.001, cache_dir=cache_dir)
            await service.start()
            try:
                return await self.request_in_executor(
                    lambda: remote(service.url, "solve", payload)
                )
            finally:
                await service.stop()

        first = run(round_one())
        second = run(round_two())
        assert first["cached"] is False
        assert second["cached"] == "store"
        assert {k: v for k, v in second.items() if k != "cached"} == {
            k: v for k, v in first.items() if k != "cached"
        }


def strip_markers(response: dict) -> dict:
    """A response body without its scheduling markers (cached/batched)."""
    return {k: v for k, v in response.items() if k not in ("cached", "batched")}


class TestSolveWorkerPool:
    def test_pool_solves_match_direct_solves(self):
        """Bit-for-bit equivalence through worker processes, both paths."""

        async def scenario():
            with SolveWorkerPool(2) as pool:
                batcher = MicroBatcher(window=0.05, pool=pool)
                requests = [
                    normalize_request(make_payload(seed=seed))
                    for seed in range(BATCH_THRESHOLD)
                ] + [
                    normalize_request(
                        make_payload(heuristic="H1", tasks=8, seed=seed)
                    )
                    for seed in range(3)
                ]
                responses = await asyncio.gather(
                    *(batcher.submit(request) for request in requests)
                )
                await batcher.aclose()
            return batcher.stats, requests, responses

        stats, requests, responses = run(scenario())
        # The deep H4w group took the batch kernel inside a worker, the
        # H1 group fell back per instance — both inside workers.
        assert stats.batched_requests == BATCH_THRESHOLD
        assert stats.fallback_requests == 3
        for request, response in zip(requests, responses):
            reference = direct_response(request)
            assert strip_markers(response) == strip_markers(reference)

    def test_pool_is_warmed_at_construction(self):
        with SolveWorkerPool(2) as pool:
            assert len(pool.worker_pids()) == 2

    def test_sigterm_shuts_down_the_worker_pool(self):
        """``serve`` handles SIGTERM like SIGINT: no orphaned workers."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            # The pool is warmed before the announcement, so the worker
            # exists once the URL is printed.
            lines = iter(process.stdout.readline, "")
            assert any("listening on" in line for line in lines)
            workers = _child_pids(process.pid)
            assert len(workers) == 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            deadline = time.monotonic() + 30.0
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, "worker outlived the server"
                time.sleep(0.05)
        finally:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()

    def test_pool_requires_at_least_one_worker(self):
        with pytest.raises(ValueError, match=">= 1 workers"):
            SolveWorkerPool(0)

    def test_http_roundtrip_through_the_worker_pool(self):
        async def scenario():
            service = SolveService(port=0, window=0.001, workers=2)
            await service.start()
            url = service.url
            payload = make_payload(seed=5)
            loop = asyncio.get_running_loop()
            try:
                response = await loop.run_in_executor(
                    None, lambda: remote(url, "solve", payload)
                )
                stats = await loop.run_in_executor(
                    None, lambda: remote(url, "stats")
                )
            finally:
                await service.stop()
            return payload, response, stats

        payload, response, stats = run(scenario())
        reference = direct_response(normalize_request(payload))
        assert strip_markers(response) == strip_markers(reference)
        assert stats["workers"] == 2
        assert stats["service"]["solved"] == 1


def _proc_stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat[stat.rfind(")") + 2 :].split()


def _child_pids(parent: int) -> list[int]:
    return [
        int(entry.name)
        for entry in Path("/proc").iterdir()
        if entry.name.isdigit()
        and (fields := _proc_stat(int(entry.name))) is not None
        and int(fields[1]) == parent
    ]


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


class TestAdmissionControl:
    def test_distinct_requests_beyond_max_pending_are_shed(self):
        async def scenario():
            batcher = MicroBatcher(window=60.0, max_pending=2)
            first = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=41)))
            )
            second = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=42)))
            )
            while len(batcher._inflight) < 2:
                await asyncio.sleep(0.001)
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                await batcher.submit(normalize_request(make_payload(seed=43)))
            # A coalesced duplicate consumes no solve capacity: admitted.
            duplicate = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=41)))
            )
            await asyncio.sleep(0.01)
            assert not duplicate.done()
            await batcher.aclose()  # flushes the one-minute window now
            return batcher.stats, await first, await duplicate, await second

        stats, first, duplicate, second = run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        assert stats.shed == 1
        assert stats.coalesced == 1
        assert first == duplicate
        assert second["key"] != first["key"]

    def test_cache_hits_are_admitted_even_when_full(self):
        async def scenario():
            cache = SolveCache(capacity=16)
            warmed = await MicroBatcher(window=0.0, cache=cache).submit(
                normalize_request(make_payload(seed=51))
            )
            batcher = MicroBatcher(window=60.0, cache=cache, max_pending=1)
            blocker = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=52)))
            )
            while not batcher._inflight:
                await asyncio.sleep(0.001)
            hit = await batcher.submit(normalize_request(make_payload(seed=51)))
            await batcher.aclose()
            await blocker
            return warmed, hit, batcher.stats

        warmed, hit, stats = run(asyncio.wait_for(scenario(), timeout=30.0))
        assert hit["cached"] == "memory"
        assert stats.shed == 0
        assert strip_markers(hit) == strip_markers(warmed)

    def test_http_load_shedding_answers_429_then_retries_succeed(self):
        shed_hints = []

        def ask(url, payload):
            while True:
                try:
                    return remote(url, "solve", payload)
                except ServiceOverloadedError as exc:
                    # The server's Retry-After header reached the client.
                    assert exc.retry_after_seconds is not None
                    assert exc.retry_after_seconds >= 1
                    shed_hints.append(exc.retry_after_seconds)
                    time.sleep(0.2)

        async def scenario():
            service = SolveService(port=0, window=0.3, max_pending=1)
            await service.start()
            url = service.url
            payloads = [make_payload(seed=seed) for seed in range(60, 64)]
            loop = asyncio.get_running_loop()
            try:
                responses = await asyncio.gather(
                    *(
                        loop.run_in_executor(None, ask, url, payload)
                        for payload in payloads
                    )
                )
                stats = await loop.run_in_executor(
                    None, lambda: remote(url, "stats")
                )
            finally:
                await service.stop()
            return payloads, responses, stats

        payloads, responses, stats = run(
            asyncio.wait_for(scenario(), timeout=60.0)
        )
        # Four distinct concurrent requests against max_pending=1 with a
        # 300 ms window: at least the simultaneous arrivals were shed.
        assert len(shed_hints) >= 1
        assert stats["service"]["shed"] >= 1
        assert stats["batcher"]["shed"] >= 1
        assert stats["service"]["errors"] == 0
        # ...and every shed request, retried, got the bit-for-bit answer.
        for payload, response in zip(payloads, responses):
            reference = direct_response(normalize_request(payload))
            assert strip_markers(response) == strip_markers(reference)


class TestDeadlines:
    def test_deadline_exceeded_answers_504_and_still_caches(self):
        async def scenario():
            service = SolveService(port=0, window=5.0)
            await service.start()
            url = service.url
            payload = make_payload(seed=71, deadline_ms=100)
            loop = asyncio.get_running_loop()
            try:
                with pytest.raises(ExperimentError, match="deadline of 100 ms"):
                    await loop.run_in_executor(
                        None, lambda: remote(url, "solve", payload)
                    )
                stats = await loop.run_in_executor(
                    None, lambda: remote(url, "stats")
                )
            finally:
                # stop() drains the batcher: the group the 504'd request
                # left behind still solves and lands in the cache.
                await service.stop()
            return service, payload, stats

        service, payload, stats = run(asyncio.wait_for(scenario(), timeout=30.0))
        assert stats["service"]["deadline_exceeded"] == 1
        assert stats["service"]["solved"] == 0
        assert stats["service"]["errors"] == 0
        request = normalize_request(payload)
        cached, tier = service.cache.get(request.key)
        assert tier == "memory"
        reference = direct_response(request)
        assert strip_markers(cached) == strip_markers(reference)

    def test_request_within_deadline_is_served_normally(self):
        async def scenario():
            service = SolveService(port=0, window=0.001)
            await service.start()
            payload = make_payload(seed=72, deadline_ms=20000)
            loop = asyncio.get_running_loop()
            try:
                return payload, await loop.run_in_executor(
                    None, lambda: remote(service.url, "solve", payload)
                )
            finally:
                await service.stop()

        payload, response = run(asyncio.wait_for(scenario(), timeout=30.0))
        reference = direct_response(normalize_request(payload))
        assert strip_markers(response) == strip_markers(reference)


class TestWaiterLifecycle:
    def gate(self, batcher, result_exception=None):
        """Patch ``batcher._solve`` so the test controls when it runs."""
        solving = threading.Event()
        release = threading.Event()
        inner = batcher._solve

        def gated(requests):
            solving.set()
            assert release.wait(timeout=10.0)
            if result_exception is not None:
                raise result_exception
            return inner(requests)

        batcher._solve = gated
        return solving, release

    def test_cancelled_waiter_does_not_lose_the_group(self):
        """A client disconnect mid-solve: the group completes and caches."""

        async def scenario():
            cache = SolveCache(capacity=16)
            batcher = MicroBatcher(window=0.02, cache=cache)
            solving, release = self.gate(batcher)
            r0 = normalize_request(make_payload(seed=21))
            r1 = normalize_request(make_payload(seed=22))
            w0 = asyncio.create_task(batcher.submit(r0))
            w1 = asyncio.create_task(batcher.submit(r1))
            while not solving.is_set():  # both grouped, solve mid-executor
                await asyncio.sleep(0.001)
            w0.cancel()
            with pytest.raises(asyncio.CancelledError):
                await w0
            release.set()
            survivor = await w1
            await batcher.aclose()
            return cache, r0, r1, survivor

        cache, r0, r1, survivor = run(asyncio.wait_for(scenario(), timeout=30.0))
        assert strip_markers(survivor) == strip_markers(direct_response(r1))
        # The cancelled waiter's solve was not dropped: its response is
        # cached, so the disconnected client's retry is a cache hit.
        cached, tier = cache.get(r0.key)
        assert tier == "memory"
        assert strip_markers(cached) == strip_markers(direct_response(r0))

    def test_solver_failure_fans_out_past_cancelled_waiters(self):
        """A crash with one waiter gone still reaches the live waiters."""

        async def scenario():
            batcher = MicroBatcher(window=0.02)
            solving, release = self.gate(
                batcher, result_exception=RuntimeError("solver exploded")
            )
            w0 = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=31)))
            )
            w1 = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=32)))
            )
            while not solving.is_set():
                await asyncio.sleep(0.001)
            w0.cancel()
            release.set()
            results = await asyncio.gather(w0, w1, return_exceptions=True)
            await batcher.aclose()
            return batcher, results

        batcher, (first, second) = run(asyncio.wait_for(scenario(), timeout=30.0))
        assert isinstance(first, asyncio.CancelledError)
        assert isinstance(second, RuntimeError)
        assert str(second) == "solver exploded"
        # The failed group fully released its in-flight slots: nothing
        # leaks into admission control.
        assert batcher._inflight == {}

    def test_stop_drains_a_request_parked_in_the_window(self):
        """stop() answers in-flight clients instead of dropping them."""

        async def scenario():
            service = SolveService(port=0, window=10.0)
            await service.start()
            payload = make_payload(seed=81)
            url = service.url
            pending = asyncio.get_running_loop().run_in_executor(
                None, lambda: remote(url, "solve", payload)
            )
            while not service.batcher._inflight:  # parked in the window
                await asyncio.sleep(0.005)
            await service.stop()
            return payload, await pending

        payload, response = run(asyncio.wait_for(scenario(), timeout=30.0))
        reference = direct_response(normalize_request(payload))
        assert strip_markers(response) == strip_markers(reference)


class TestCacheCompaction:
    def test_size_bound_evicts_oldest_and_compacts(self, tmp_path):
        store = SolveCacheStore(tmp_path / "cache", max_bytes=4096)
        blob = "x" * 80
        for i in range(200):
            store.put(f"key-{i:03d}", {"v": i, "blob": blob})
        assert store.size_bytes() <= 4096
        assert store.compactions > 0
        assert store.evictions > 0
        # Newest entry always survives; the oldest were evicted.
        assert store.get("key-199") == {"v": 199, "blob": blob}
        assert store.get("key-000") is None
        survivors = len(store)
        assert 0 < survivors < 200
        store.close()

        # The compacted log + index round-trip a reopen.
        reopened = SolveCacheStore(tmp_path / "cache", max_bytes=4096)
        assert len(reopened) == survivors
        assert reopened.get("key-199") == {"v": 199, "blob": blob}
        reopened.close()

    def test_compaction_reclaims_superseded_records(self, tmp_path):
        store = SolveCacheStore(tmp_path / "cache")
        for i in range(10):
            store.put("k", {"v": i})
        before = store.size_bytes()
        reclaimed = store.compact()
        assert reclaimed > 0
        assert store.size_bytes() == before - reclaimed
        assert store.get("k") == {"v": 9}
        assert len(store) == 1

    def test_cache_hits_survive_compaction_and_reopen(self, tmp_path):
        cache = SolveCache.open(tmp_path / "cache")
        request = normalize_request(make_payload(seed=91))
        response = direct_response(request)
        cache.put(request.key, response)
        cache.put(request.key, response)  # superseded duplicate record
        assert cache.store.compact() > 0
        cache.close()

        reopened = SolveCache.open(tmp_path / "cache")
        assert reopened.get(request.key) == (response, "store")
        payload = reopened.stats_payload()
        assert payload["store_entries"] == 1
        assert payload["hits"] == 1
        reopened.close()

    def test_stale_index_after_compaction_is_rebuilt(self, tmp_path):
        store = SolveCacheStore(tmp_path / "cache")
        store.put("k1", {"v": 1})
        store.put("k1", {"v": 11})
        store.put("k2", {"v": 2})
        store.compact()
        store.close()
        index_path = tmp_path / "cache" / "index.json"
        raw = json.loads(index_path.read_text())
        raw["solve"] = {key: offset + 3 for key, offset in raw["solve"].items()}
        index_path.write_text(json.dumps(raw))

        reopened = SolveCacheStore(tmp_path / "cache")
        assert reopened.get("k1") == {"v": 11}
        assert reopened.get("k2") == {"v": 2}

    def test_stats_payload_reports_store_footprint(self, tmp_path):
        cache = SolveCache.open(tmp_path / "cache", max_bytes=1 << 20)
        cache.put("k", {"v": 1})
        payload = cache.stats_payload()
        assert payload["store_entries"] == 1
        assert payload["store_bytes"] > 0
        assert payload["store_max_bytes"] == 1 << 20
        assert payload["store_evictions"] == 0
        assert payload["compactions"] == 0
        cache.close()


class TestLatencyReservoir:
    def test_nearest_rank_percentiles_are_exact(self):
        reservoir = LatencyReservoir()
        for ms in range(1, 101):
            reservoir.add(ms / 1000.0)
        assert reservoir.percentile(0.50) == pytest.approx(0.050)
        assert reservoir.percentile(0.95) == pytest.approx(0.095)
        assert reservoir.percentile(0.99) == pytest.approx(0.099)
        assert reservoir.percentile(1.0) == pytest.approx(0.100)
        assert nearest_rank([], 0.5) == 0.0

    def test_ring_buffer_keeps_only_the_most_recent_samples(self):
        reservoir = LatencyReservoir(size=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            reservoir.add(value)
        # 1.0 and 2.0 were overwritten: the window is {3, 4, 5, 6}.
        assert reservoir.percentile(0.25) == 3.0
        assert reservoir.percentile(1.0) == 6.0

    def test_empty_reservoir_reports_zero(self):
        assert LatencyReservoir().percentile(0.5) == 0.0


class TestServicePayloads:
    def test_stats_name_no_kernel_backend(self):
        payload = SolveService(port=0, window=0.001).stats_payload()
        assert set(payload) == {
            "service", "batcher", "sessions", "cache", "workers", "metrics",
        }
        assert not any("backend" in name for name in payload["metrics"])

    def test_metrics_export_no_backend_series(self):
        text = SolveService(port=0, window=0.001).registry.render()
        assert "repro_service_workers 0" in text
        assert "backend" not in text


class TestServiceStatsClock:
    def test_uptime_is_monotonic_and_start_is_wall_clock(self):
        stats = ServiceStats()
        stats.record(0.010)
        payload = stats.as_dict()
        assert payload["uptime_seconds"] >= 0
        assert abs(payload["started_at_unix"] - time.time()) < 60.0
        assert payload["solved"] == 1
        assert payload["latency_mean_ms"] == 10.0
        assert payload["latency_p50_ms"] == 10.0
        assert payload["latency_p95_ms"] == 10.0
        assert payload["latency_p99_ms"] == 10.0
        assert payload["shed"] == 0
        assert payload["deadline_exceeded"] == 0
