"""Unit tests for the solve service: requests, cache, batcher, server."""

from __future__ import annotations

import asyncio
import errno
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.exceptions import ExperimentError, ServiceOverloadedError
from repro.experiments import run_scenario, runner
from repro.generators import ScenarioConfig
from repro.heuristics import available_heuristics
from repro.heuristics.base import BATCH_MIN_ROWS
from repro.obs import trace
from repro.service import batcher as batcher_module
from repro.service.batcher import MicroBatcher
from repro.service.cache import SolveCache, SolveCacheStore
from repro.service.client import ServiceClient
from repro.service.requests import direct_response, normalize_request, solve_group
from repro.service.server import SolveService
from repro.workers import WorkerPool
from tests.helpers import fail_next_append


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


class SolverGate:
    """Holds each group solve of a batcher until the test opens it.

    Replaces the batcher's one solve seam, ``MicroBatcher._solve``, with
    a coroutine that records the group's requests (in flush order) and
    waits on the group's own ``asyncio.Event``.  A test decides which
    solve finishes when, on the event loop alone: no threads, no sleeps.
    """

    def __init__(self, batcher, error: BaseException | None = None):
        self.inner = batcher._solve
        self.error = error
        #: Request tuples of the gated groups, in the order they flushed.
        self.groups: list[tuple] = []
        self.events: list[asyncio.Event] = []
        self.all_open = False
        batcher._solve = self._solve

    async def _solve(self, requests):
        event = asyncio.Event()
        if self.all_open:
            event.set()
        self.groups.append(requests)
        self.events.append(event)
        await event.wait()
        if self.error is not None:
            raise self.error
        return await self.inner(requests)

    def open(self, index: int) -> None:
        """Let the ``index``-th flushed group's solve run."""
        self.events[index].set()

    def open_all(self) -> None:
        """Let every held solve, and every later one, run."""
        self.all_open = True
        for event in self.events:
            event.set()


async def spin(condition, ticks: int = 100) -> None:
    """Yield loop ticks until ``condition()`` holds (no timers involved)."""
    for _ in range(ticks):
        if condition():
            return
        await asyncio.sleep(0)
    raise AssertionError(f"condition still false after {ticks} loop ticks")


async def hold_slots(batcher, gate: SolverGate) -> list[asyncio.Task]:
    """Take every solve slot with one gated single-request group each.

    The blockers use task counts no other test request uses, so each
    opens its own signature's group.
    """
    blockers = [
        asyncio.create_task(
            batcher.submit(normalize_request(make_payload(tasks=20 + slot)))
        )
        for slot in range(batcher.slots)
    ]
    await spin(lambda: len(gate.groups) == batcher.slots)
    return blockers


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
        stats = cache.stats_payload()
        assert stats["evictions"] == 1
        assert stats["memory_hits"] == 2
        assert stats["misses"] == 1

    def test_persistent_tier_survives_reopen_and_promotes(self, tmp_path):
        cache = SolveCache.open(tmp_path / "cache")
        cache.put("k", {"v": 42})

        reopened = SolveCache.open(tmp_path / "cache")
        response, tier = reopened.get("k")
        assert response == {"v": 42}
        assert tier == "store"
        # Promoted into memory: the second lookup is a memory hit.
        assert reopened.get("k") == ({"v": 42}, "memory")

    def test_store_tier_writes_only_its_log(self, tmp_path):
        store = SolveCacheStore(tmp_path / "cache")
        for i in range(65):
            store.put(f"k{i}", {"v": i})
        assert [path.name for path in (tmp_path / "cache").iterdir()] == ["solves.jsonl"]
        reopened = SolveCacheStore(tmp_path / "cache")
        assert len(reopened) == 65
        assert all(reopened.get(f"k{i}") == {"v": i} for i in range(65))

    def test_store_tier_keeps_every_record_after_a_failed_append(
        self, tmp_path, monkeypatch
    ):
        # ENOSPC part-way through a response line: the next put starts
        # on a fresh line, so a restarted service still finds it.
        store = SolveCacheStore(tmp_path / "cache")
        store.put("k1", {"v": 1})
        fail_next_append(monkeypatch)
        with pytest.raises(OSError):
            store.put("k2", {"v": 2})
        store.put("k3", {"v": 3})
        reopened = SolveCacheStore(tmp_path / "cache")
        assert [reopened.get(key) for key in ("k1", "k2", "k3")] == [
            {"v": 1},
            None,
            {"v": 3},
        ]


class TestMicroBatcher:
    def test_same_tick_requests_stack_into_one_group(self):
        async def scenario():
            batcher = MicroBatcher()
            requests = [
                normalize_request(make_payload(seed=seed)) for seed in range(4)
            ]
            responses = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            return batcher.stats_payload(), requests, responses

        stats, requests, responses = run(scenario())
        # All four arrived in one loop tick: one flush, one group of 4.
        assert stats["flushes"] == 1
        assert stats["max_group"] == 4
        for request, response in zip(requests, responses):
            reference = direct_response(request)
            assert response["assignment"] == reference["assignment"]
            assert response["period"] == reference["period"]

    def test_max_batch_flushes_immediately(self):
        async def scenario():
            batcher = MicroBatcher(max_batch=2)
            gate = SolverGate(batcher)
            requests = [
                normalize_request(make_payload(seed=seed)) for seed in range(4)
            ]
            waiters = [
                asyncio.create_task(batcher.submit(request)) for request in requests
            ]
            # Two full groups, two free slots: both flush on the next
            # tick, while the gate still holds every solve.
            await spin(lambda: len(gate.groups) == 2)
            stats = batcher.stats_payload()
            gate.open_all()
            return stats["flushes"], stats["max_group"], await asyncio.gather(*waiters)

        flushes, max_group, responses = run(asyncio.wait_for(scenario(), timeout=10.0))
        assert flushes == 2
        assert max_group == 2
        assert len(responses) == 4

    def test_signature_grouping_keeps_incompatible_requests_apart(self):
        async def scenario():
            batcher = MicroBatcher()
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
            return batcher.stats_payload(), requests, responses

        stats, requests, responses = run(scenario())
        assert stats["flushes"] == 3  # one per distinct signature
        for request, response in zip(requests, responses):
            reference = direct_response(request)
            assert response["assignment"] == reference["assignment"]
            assert response["period"] == reference["period"]

    def test_sub_threshold_groups_fall_back_per_instance(self):
        async def scenario():
            batcher = MicroBatcher()
            requests = [
                normalize_request(make_payload(seed=seed))
                for seed in range(BATCH_MIN_ROWS - 1)
            ]
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            ), batcher.stats_payload()

        responses, stats = run(scenario())
        assert stats["batched_requests"] == 0
        assert stats["fallback_requests"] == len(responses)
        assert all(response["batched"] is False for response in responses)

    def test_threshold_deep_groups_take_the_batch_kernel(self):
        async def scenario():
            batcher = MicroBatcher()
            requests = [
                normalize_request(make_payload(seed=seed))
                for seed in range(BATCH_MIN_ROWS)
            ]
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            ), batcher.stats_payload()

        responses, stats = run(scenario())
        assert stats["batched_requests"] == len(responses)
        assert all(response["batched"] is True for response in responses)

    def test_two_deep_local_search_groups_fall_back_per_instance(self):
        async def scenario():
            batcher = MicroBatcher()
            requests = [
                normalize_request(make_payload(heuristic="H4ls", seed=seed))
                for seed in range(2)
            ]
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            ), batcher.stats_payload()

        responses, stats = run(scenario())
        assert stats["max_group"] == 2
        assert stats["batched_requests"] == 0
        assert stats["fallback_requests"] == 2
        assert all(response["batched"] is False for response in responses)

    def test_identical_requests_coalesce_into_one_solve(self):
        async def scenario():
            batcher = MicroBatcher()
            request = normalize_request(make_payload(seed=3))
            responses = await asyncio.gather(
                *(batcher.submit(request) for _ in range(5))
            )
            return batcher.stats_payload(), responses

        stats, responses = run(scenario())
        assert stats["coalesced"] == 4
        assert stats["max_group"] == 1  # one unique request actually solved
        assert all(response == responses[0] for response in responses)

    def test_identical_request_joins_a_solve_already_in_flight(self):
        async def scenario():
            # An idle batcher flushes the first request's group on the
            # next loop tick, so by the time the duplicate arrives the
            # solve is running — no pending group, no cache.
            batcher = MicroBatcher(cache=None)
            gate = SolverGate(batcher)
            request = normalize_request(make_payload(seed=3))
            first = asyncio.create_task(batcher.submit(request))
            await spin(lambda: gate.groups)  # the solve is now running
            second = asyncio.create_task(batcher.submit(request))
            await spin(lambda: batcher.stats_payload()["coalesced"])
            gate.open_all()
            return batcher.stats_payload(), await first, await second

        stats, first, second = run(scenario())
        assert stats["coalesced"] == 1
        assert stats["flushes"] == 1  # the duplicate never formed a group
        assert first == second

    def test_cache_hits_skip_the_solver(self):
        async def scenario():
            batcher = MicroBatcher(cache=SolveCache(capacity=16))
            request = normalize_request(make_payload(seed=1))
            first = await batcher.submit(request)
            second = await batcher.submit(request)
            return batcher.stats_payload(), first, second

        stats, first, second = run(scenario())
        assert first["cached"] is False
        assert second["cached"] == "memory"
        assert stats["flushes"] == 1  # the second submit never reached a group
        assert {k: v for k, v in second.items() if k != "cached"} == {
            k: v for k, v in first.items() if k != "cached"
        }

    def test_a_failing_cache_write_still_answers(self, tmp_path):
        class FullDisk(SolveCacheStore):
            def put(self, key, response):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        async def scenario():
            cache = SolveCache(capacity=16, store=FullDisk(tmp_path / "cache"))
            batcher = MicroBatcher(cache=cache)
            request = normalize_request(make_payload(seed=3))
            response = await asyncio.wait_for(batcher.submit(request), timeout=30.0)
            return batcher, request, response

        with trace.capture() as spans:
            batcher, request, response = run(scenario())
        assert strip_markers(response) == strip_markers(direct_response(request))
        assert batcher._inflight == {}
        (write,) = [record for record in spans if record["name"] == "cache.write"]
        assert write["failed"] == "OSError"

    @pytest.mark.parametrize("max_batch", [1, BATCH_MIN_ROWS])
    @pytest.mark.parametrize("heuristic", available_heuristics())
    def test_batched_service_solves_match_direct_solves(self, heuristic, max_batch):
        """Bit-for-bit equivalence, batched and fallback, every heuristic.

        ``max_batch=1`` solves every request alone (the per-instance
        loop); ``BATCH_MIN_ROWS`` flushes one lock-step-deep group.
        """

        async def scenario():
            batcher = MicroBatcher(max_batch=max_batch)
            requests = [
                normalize_request(
                    make_payload(heuristic=heuristic, seed=seed)
                )
                for seed in range(BATCH_MIN_ROWS)
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


class TestLoadDispatch:
    """Groups flush by load: at once while a slot is free, else batched."""

    def test_idle_batcher_flushes_a_lone_request_within_two_ticks(self, monkeypatch):
        async def scenario():
            loop = asyncio.get_running_loop()

            def no_timer(*args, **kwargs):
                raise AssertionError("the batcher scheduled a timer")

            monkeypatch.setattr(loop, "call_later", no_timer)
            monkeypatch.setattr(loop, "call_at", no_timer)
            batcher = MicroBatcher()
            gate = SolverGate(batcher)
            request = normalize_request(make_payload(seed=5))
            waiter = asyncio.create_task(batcher.submit(request))
            await asyncio.sleep(0)  # tick 1: the request opens its group
            await asyncio.sleep(0)  # tick 2: the group flushes
            flushes = batcher.stats_payload()["flushes"]
            gate.open_all()
            return request, flushes, await waiter

        request, flushes, response = run(asyncio.wait_for(scenario(), timeout=10.0))
        assert flushes == 1
        assert strip_markers(response) == strip_markers(direct_response(request))

    def test_requests_collect_while_every_slot_is_held(self):
        async def scenario():
            batcher = MicroBatcher()
            gate = SolverGate(batcher)
            blockers = await hold_slots(batcher, gate)
            requests = [normalize_request(make_payload(seed=seed)) for seed in range(5)]
            waiters = []
            for request in requests:  # one arrival per loop tick
                waiters.append(asyncio.create_task(batcher.submit(request)))
                await asyncio.sleep(0)
            await asyncio.sleep(0)
            parked_flushes = batcher.stats_payload()["flushes"]
            gate.open(0)
            await blockers[0]  # a finished solve frees its slot...
            await spin(lambda: len(gate.groups) == batcher.slots + 1)
            gate.open_all()
            responses = await asyncio.gather(*waiters, *blockers)
            return batcher, gate, requests, parked_flushes, responses

        batcher, gate, requests, parked_flushes, responses = run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        # One slot for the thread executor's solve, one queued behind it.
        assert batcher.slots == 2
        assert parked_flushes == batcher.slots  # nothing flushed while held
        # ...and the five arrivals flushed together, as one group of 5.
        assert gate.groups[-1] == tuple(requests)
        stats = batcher.stats_payload()
        assert stats["flushes"] == batcher.slots + 1
        assert stats["max_group"] == 5
        assert stats["batched_requests"] == 5
        for request, response in zip(requests, responses):
            assert strip_markers(response) == strip_markers(direct_response(request))

    def test_pending_groups_flush_oldest_first(self):
        async def scenario():
            batcher = MicroBatcher()
            gate = SolverGate(batcher)
            blockers = await hold_slots(batcher, gate)
            older = [
                normalize_request(make_payload(tasks=12, seed=seed)) for seed in (0, 1)
            ]
            newer = normalize_request(make_payload(heuristic="H2", seed=0))
            waiters = [asyncio.create_task(batcher.submit(older[0]))]
            await asyncio.sleep(0)
            waiters.append(asyncio.create_task(batcher.submit(newer)))
            await asyncio.sleep(0)
            # A later member of the older signature joins its pending group.
            waiters.append(asyncio.create_task(batcher.submit(older[1])))
            await asyncio.sleep(0)
            gate.open(0)
            await blockers[0]
            await spin(lambda: len(gate.groups) == batcher.slots + 1)
            first_flushed = gate.groups[-1]
            still_pending = [list(group.requests) for group in batcher._queue]
            gate.open_all()
            await asyncio.gather(*waiters, *blockers)
            return older, newer, first_flushed, still_pending, gate.groups[-1]

        older, newer, first_flushed, still_pending, last_flushed = run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        assert first_flushed == tuple(older)
        assert still_pending == [[newer]]
        assert last_flushed == (newer,)

    def test_max_batch_splits_a_saturated_signature(self):
        async def scenario():
            batcher = MicroBatcher(max_batch=2)
            gate = SolverGate(batcher)
            blockers = await hold_slots(batcher, gate)
            requests = [normalize_request(make_payload(seed=seed)) for seed in range(5)]
            waiters = [
                asyncio.create_task(batcher.submit(request)) for request in requests
            ]
            await spin(lambda: len(batcher._inflight) == batcher.slots + 5)
            queued = [len(group.requests) for group in batcher._queue]
            gate.open_all()
            responses = await asyncio.gather(*waiters)
            await asyncio.gather(*blockers)
            return batcher, gate, requests, queued, responses

        batcher, gate, requests, queued, responses = run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        assert queued == [2, 2, 1]
        assert [len(group) for group in gate.groups[batcher.slots:]] == [2, 2, 1]
        assert batcher.stats_payload()["max_group"] == 2
        for request, response in zip(requests, responses):
            assert strip_markers(response) == strip_markers(direct_response(request))

    def test_aclose_drains_parked_groups(self):
        async def scenario():
            batcher = MicroBatcher()
            gate = SolverGate(batcher)
            blockers = await hold_slots(batcher, gate)
            requests = [
                normalize_request(make_payload(seed=0)),
                normalize_request(make_payload(heuristic="H2", seed=0)),
            ]
            waiters = [
                asyncio.create_task(batcher.submit(request)) for request in requests
            ]
            await spin(lambda: len(batcher._queue) == 2)
            closing = asyncio.create_task(batcher.aclose())
            # Flushed without a free slot, oldest first.
            await spin(lambda: len(gate.groups) == batcher.slots + 2)
            parked = gate.groups[batcher.slots:]
            gate.open_all()
            await closing
            # Every admitted request was answered before aclose returned.
            unresolved = dict(batcher._inflight)
            await asyncio.gather(*blockers)
            return requests, parked, unresolved, await asyncio.gather(*waiters)

        requests, parked, unresolved, responses = run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        assert parked == [(requests[0],), (requests[1],)]
        assert unresolved == {}
        for request, response in zip(requests, responses):
            assert strip_markers(response) == strip_markers(direct_response(request))


class TestSolveService:
    def request_in_executor(self, call):
        return asyncio.get_running_loop().run_in_executor(None, call)

    def test_http_solve_stats_health_roundtrip(self):
        async def scenario():
            service = SolveService(port=0)
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
            service = SolveService(port=0)
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
            service = SolveService(port=0)
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
            service = SolveService(port=0)

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
            service = SolveService(port=0, cache_dir=cache_dir)
            await service.start()
            try:
                return await self.request_in_executor(
                    lambda: remote(service.url, "solve", payload)
                )
            finally:
                await service.stop()

        async def round_two():
            service = SolveService(port=0, cache_dir=cache_dir)
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


#: Pipe ends of a worker-side gate, set before the pool forks.
_WORKER_GATE: dict[str, int] = {}
_real_point_job = runner._point_job


def _gated_solve_group(requests):
    """``solve_group`` that reports it started, then waits for the test's byte."""
    os.write(_WORKER_GATE["started"], b".")
    os.read(_WORKER_GATE["release"], 1)
    return solve_group(requests)


def _point_job_dying_on_the_first_point(point, milp_time_limit):
    """A block job whose worker is SIGKILLed on the first sweep point."""
    if point.blocks[0][0] == point.scenario.sweep_values[0]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_point_job(point, milp_time_limit)


def _in_thread(fn, timeout: float = 120.0):
    """``fn()`` on a daemon thread: ``(finished, result, error)`` after ``timeout``."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive(), outcome.get("result"), outcome.get("error")


class TestWorkerPool:
    def test_pool_solves_match_direct_solves(self):
        """Bit-for-bit equivalence through worker processes, both paths."""

        async def scenario():
            with WorkerPool(2) as pool:
                batcher = MicroBatcher(pool=pool)
                requests = [
                    normalize_request(make_payload(seed=seed))
                    for seed in range(BATCH_MIN_ROWS)
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
                # One slot per worker process, plus one group queued behind.
                assert batcher.slots == pool.workers + 1 == 3
            return batcher.stats_payload(), requests, responses

        stats, requests, responses = run(scenario())
        # The deep H4w group took the batch kernel inside a worker, the
        # H1 group fell back per instance — both inside workers.
        assert stats["batched_requests"] == BATCH_MIN_ROWS
        assert stats["fallback_requests"] == 3
        for request, response in zip(requests, responses):
            reference = direct_response(request)
            assert strip_markers(response) == strip_markers(reference)

    def test_pool_is_warmed_at_construction(self):
        with WorkerPool(2) as pool:
            assert len(pool.worker_pids()) == 2
            assert not pool.broken

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
            WorkerPool(0)

    def test_http_roundtrip_through_the_worker_pool(self):
        async def scenario():
            service = SolveService(port=0, workers=2)
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

    def test_a_killed_worker_fails_solves_and_degrades_health(self):
        """A SIGKILLed worker breaks the pool: solves 500, healthz 503."""

        async def scenario():
            service = SolveService(port=0, workers=1)
            await service.start()
            loop = asyncio.get_running_loop()

            def ask(method, path, payload=None):
                return loop.run_in_executor(
                    None, _http_status, service.url, method, path, payload
                )

            try:
                before = await ask("GET", "/v1/healthz")
                (worker,) = service.pool.worker_pids()
                assert worker in _child_pids(os.getpid())
                os.kill(worker, signal.SIGKILL)
                solve = await ask("POST", "/v1/solve", make_payload(seed=7))
                after = await ask("GET", "/v1/healthz")
                stats = await ask("GET", "/v1/stats")
            finally:
                await service.stop()
            return before, solve, after, stats

        before, solve, after, stats = run(scenario())
        assert before == (200, {"status": "ok", "version": before[1]["version"], "api": "v1"})
        assert solve[0] == 500
        assert solve[1]["error"]["code"] == "internal"
        assert "BrokenProcessPool" in solve[1]["error"]["message"]
        assert after[0] == 503
        assert after[1]["status"] == "degraded"
        assert stats[0] == 200 and stats[1]["service"]["errors"] == 1


    def test_a_worker_killed_mid_solve_fails_its_group_and_later_solves(
        self, monkeypatch
    ):
        """The in-flight group answers 500, the server lives, later solves fail fast."""
        started_r, started_w = os.pipe()
        release_r, release_w = os.pipe()
        monkeypatch.setitem(_WORKER_GATE, "started", started_w)
        monkeypatch.setitem(_WORKER_GATE, "release", release_r)
        # Patched before the service forks its worker, which inherits it.
        monkeypatch.setattr(batcher_module, "solve_group", _gated_solve_group)

        async def scenario():
            service = SolveService(port=0, workers=1)
            await service.start()
            loop = asyncio.get_running_loop()

            def ask(method, path, payload=None):
                return loop.run_in_executor(
                    None, _http_status, service.url, method, path, payload
                )

            try:
                in_flight = ask("POST", "/v1/solve", make_payload(seed=8))
                # The worker holds the group until the gate opens.
                await asyncio.wait_for(
                    loop.run_in_executor(None, os.read, started_r, 1), 60
                )
                (worker,) = service.pool.worker_pids()
                os.kill(worker, signal.SIGKILL)
                killed = await in_flight
                health = await ask("GET", "/v1/healthz")
                later = await ask("POST", "/v1/solve", make_payload(seed=9))
                stats = await ask("GET", "/v1/stats")
            finally:
                os.write(release_w, b".")
                await service.stop()
            return killed, health, later, stats

        try:
            killed, health, later, stats = run(scenario())
        finally:
            for fd in (started_r, started_w, release_r, release_w):
                os.close(fd)
        for status, body in (killed, later):
            assert status == 500
            assert "BrokenProcessPool" in body["error"]["message"]
        assert health[0] == 503 and health[1]["status"] == "degraded"
        assert stats[0] == 200 and stats[1]["service"]["errors"] == 2

    def test_a_worker_dying_mid_dispatch_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(runner, "_point_job", _point_job_dying_on_the_first_point)
        scenario = ScenarioConfig(
            name="dying-worker",
            num_machines=5,
            num_types=2,
            sweep="tasks",
            sweep_values=(6, 9),
            repetitions=2,
            heuristics=("H2",),
        )
        finished, _, error = _in_thread(
            lambda: run_scenario(scenario, seed=1, workers=2)
        )
        assert finished, "the dispatch hung on a dead worker"
        assert isinstance(error, BrokenProcessPool)

    def test_shutdown_of_two_workers_returns_and_leaves_no_child(self):
        # The second worker inherits the first one's parent-side pipe end
        # at fork; unless it closes it, the first never reads EOF.
        pool = WorkerPool(2)
        workers = pool.worker_pids()
        assert workers <= set(_child_pids(os.getpid()))
        finished, _, error = _in_thread(pool.shutdown)
        assert finished, "shutdown hung: a worker never saw EOF"
        assert error is None
        assert not any(_running(pid) for pid in workers)

    def test_frames_larger_than_the_pipe_buffer_go_through_add_writer(self):
        """The loop writes what the pipe takes and queues the rest."""

        async def scenario():
            with WorkerPool(1) as pool:
                frames = [bytes([tag]) * (4 << 20) for tag in (1, 2)]
                first = asyncio.ensure_future(pool.run(bytes.count, frames[0], b"\x01"))
                second = asyncio.ensure_future(pool.run(bytes.count, frames[1], b"\x02"))
                await asyncio.sleep(0)  # one loop turn: both tasks send
                # Both sends returned without blocking, most bytes still queued.
                (worker,) = pool._workers
                queued = len(worker.outbox)
                return queued, await first, await second

        queued, first, second = run(scenario())
        assert queued > 4 << 20
        assert first == second == 4 << 20

    def test_the_pool_is_the_only_worker_seam(self):
        """No module drives an executor or reads its private state."""
        root = Path(repro.__file__).parent
        banned = ("ProcessPoolExecutor", "executor._broken", "_processes")
        offenders = [
            f"{path.relative_to(root)}: {word}"
            for path in sorted(root.rglob("*.py"))
            for word in banned
            if word in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


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


def _http_status(url: str, method: str, path: str, payload=None) -> tuple[int, dict]:
    """One raw HTTP exchange: ``(status, JSON body)``, whatever the status."""
    connection = http.client.HTTPConnection(urllib.parse.urlsplit(url).netloc, timeout=30)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


class TestAdmissionControl:
    def test_distinct_requests_beyond_max_pending_are_shed(self):
        async def scenario():
            batcher = MicroBatcher(max_pending=2)
            gate = SolverGate(batcher)
            first = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=41)))
            )
            second = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=42)))
            )
            await spin(lambda: len(batcher._inflight) == 2)
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                await batcher.submit(normalize_request(make_payload(seed=43)))
            # A coalesced duplicate consumes no solve capacity: admitted.
            duplicate = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=41)))
            )
            await spin(lambda: batcher.stats_payload()["coalesced"])
            assert not duplicate.done()
            gate.open_all()  # the gate held the one group's solve until now
            await batcher.aclose()
            stats = batcher.stats_payload()
            return stats, await first, await duplicate, await second

        stats, first, duplicate, second = run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        assert stats["shed"] == 1
        assert stats["coalesced"] == 1
        assert first == duplicate
        assert second["key"] != first["key"]

    def test_cache_hits_are_admitted_even_when_full(self):
        async def scenario():
            cache = SolveCache(capacity=16)
            warmed = await MicroBatcher(cache=cache).submit(
                normalize_request(make_payload(seed=51))
            )
            batcher = MicroBatcher(cache=cache, max_pending=1)
            gate = SolverGate(batcher)
            blocker = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=52)))
            )
            await spin(lambda: batcher._inflight)
            hit = await batcher.submit(normalize_request(make_payload(seed=51)))
            gate.open_all()
            await batcher.aclose()
            await blocker
            return warmed, hit, batcher.stats_payload()

        warmed, hit, stats = run(asyncio.wait_for(scenario(), timeout=30.0))
        assert hit["cached"] == "memory"
        assert stats["shed"] == 0
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
            service = SolveService(port=0, max_pending=1)
            gate = SolverGate(service.batcher)
            await service.start()
            url = service.url
            payloads = [make_payload(seed=seed) for seed in range(60, 64)]
            loop = asyncio.get_running_loop()
            try:
                asking = asyncio.gather(
                    *(
                        loop.run_in_executor(None, ask, url, payload)
                        for payload in payloads
                    )
                )
                # The gate holds the one admitted solve until a 429 was
                # delivered, so the other arrivals must find the queue full.
                while not shed_hints:
                    await asyncio.sleep(0.01)
                gate.open_all()
                responses = await asking
                stats = await loop.run_in_executor(
                    None, lambda: remote(url, "stats")
                )
            finally:
                await service.stop()
            return payloads, responses, stats

        payloads, responses, stats = run(
            asyncio.wait_for(scenario(), timeout=60.0)
        )
        # Four distinct concurrent requests against max_pending=1 with the
        # first solve held: at least the simultaneous arrivals were shed.
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
            service = SolveService(port=0)
            gate = SolverGate(service.batcher)  # the solve outlives the deadline
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
                gate.open_all()
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
            service = SolveService(port=0)
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
    def test_cancelled_waiter_does_not_lose_the_group(self):
        """A client disconnect mid-solve: the group completes and caches."""

        async def scenario():
            cache = SolveCache(capacity=16)
            batcher = MicroBatcher(cache=cache)
            gate = SolverGate(batcher)
            r0 = normalize_request(make_payload(seed=21))
            r1 = normalize_request(make_payload(seed=22))
            w0 = asyncio.create_task(batcher.submit(r0))
            w1 = asyncio.create_task(batcher.submit(r1))
            await spin(lambda: gate.groups)  # both grouped, solve running
            w0.cancel()
            with pytest.raises(asyncio.CancelledError):
                await w0
            gate.open_all()
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
            batcher = MicroBatcher()
            gate = SolverGate(batcher, error=RuntimeError("solver exploded"))
            w0 = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=31)))
            )
            w1 = asyncio.create_task(
                batcher.submit(normalize_request(make_payload(seed=32)))
            )
            await spin(lambda: gate.groups)
            w0.cancel()
            gate.open_all()
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

    def test_stop_drains_a_request_parked_for_a_slot(self):
        """stop() answers in-flight clients instead of dropping them."""

        async def scenario():
            service = SolveService(port=0)
            gate = SolverGate(service.batcher)
            await service.start()
            blockers = await hold_slots(service.batcher, gate)
            payload = make_payload(seed=81)
            url = service.url
            pending = asyncio.get_running_loop().run_in_executor(
                None, lambda: remote(url, "solve", payload)
            )
            while not service.batcher._queue:  # parked: every slot is held
                await asyncio.sleep(0.005)
            stopping = asyncio.create_task(service.stop())
            # stop() flushes the parked group although no slot is free...
            await spin(lambda: len(gate.groups) == len(blockers) + 1)
            # ...and waits for it: the held solves run only now.
            gate.open_all()
            await stopping
            await asyncio.gather(*blockers)
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

        # The compacted log round-trips a reopen.
        reopened = SolveCacheStore(tmp_path / "cache", max_bytes=4096)
        assert len(reopened) == survivors
        assert reopened.get("key-199") == {"v": 199, "blob": blob}

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

        reopened = SolveCache.open(tmp_path / "cache")
        assert reopened.get(request.key) == (response, "store")
        payload = reopened.stats_payload()
        assert payload["store_entries"] == 1
        assert payload["hits"] == 1

    def test_stats_payload_reports_store_footprint(self, tmp_path):
        cache = SolveCache.open(tmp_path / "cache", max_bytes=1 << 20)
        cache.put("k", {"v": 1})
        payload = cache.stats_payload()
        assert payload["store_entries"] == 1
        assert payload["store_bytes"] > 0
        assert payload["store_max_bytes"] == 1 << 20
        assert payload["store_evictions"] == 0
        assert payload["compactions"] == 0


class TestServicePayloads:
    def test_stats_name_no_kernel_backend(self):
        payload = SolveService(port=0).stats_payload()
        assert set(payload) == {
            "service", "batcher", "sessions", "cache", "workers", "metrics",
        }
        assert not any("backend" in name for name in payload["metrics"])

    def test_metrics_export_no_backend_series(self):
        text = SolveService(port=0).registry.render()
        assert "repro_service_workers 0" in text
        assert "backend" not in text


class TestServiceStatsClock:
    def test_uptime_is_monotonic_and_start_is_wall_clock(self):
        service = SolveService(port=0)
        # One answered solve, recorded where the handler records it.
        service.registry.counter("repro_service_requests_total").inc()
        service.registry.histogram("repro_service_latency_seconds").observe(0.010)
        payload = service.stats_payload()["service"]
        assert payload["uptime_seconds"] >= 0
        assert abs(payload["started_at_unix"] - time.time()) < 60.0
        assert payload["solved"] == 1
        assert payload["latency_mean_ms"] == 10.0
        assert payload["latency_max_ms"] == 10.0
        assert payload["latency_p50_ms"] == 10.0
        assert payload["latency_p95_ms"] == 10.0
        assert payload["latency_p99_ms"] == 10.0
        assert payload["shed"] == 0
        assert payload["deadline_exceeded"] == 0
        # The max gauge is set from the histogram at scrape time.
        assert "repro_service_latency_max_seconds 0.01\n" in service.metrics_text()
