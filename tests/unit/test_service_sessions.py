"""Unit tests for the versioned service API and live replanning sessions."""

from __future__ import annotations

import asyncio
import http.client
import json

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ServiceOverloadedError
from repro.heuristics import get_heuristic
from repro.heuristics.base import solve_one
from repro.live import LiveConfig, build_replanner, generate_timeline
from repro.service.client import ServiceClient
from repro.service.requests import normalize_event, normalize_session_request
from repro.service.server import SolveService
from repro.service.sessions import SessionManager

from tests.helpers import sub_instance


def run(coro):
    return asyncio.run(coro)


def make_session_payload(**overrides) -> dict:
    payload = {
        "heuristic": "H4ls",
        "application": {"tasks": 10, "types": 3},
        "platform": {"machines": 6},
        "options": {"seed": 0, "repetition": 0},
    }
    for key, value in overrides.items():
        if key in ("tasks", "types"):
            payload["application"][key] = value
        elif key == "machines":
            payload["platform"][key] = value
        elif key in ("seed", "repetition", "ttl_seconds", "deadline_ms"):
            payload["options"][key] = value
        else:
            payload[key] = value
    return payload


def raw_http(url: str, method: str, path: str, payload: dict | None = None):
    """One HTTP exchange exposing status, headers and the JSON body."""
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


class TestSessionNormalisation:
    def test_accepts_ttl_override(self):
        spec = normalize_session_request(make_session_payload(ttl_seconds=12.5))
        assert spec.ttl_seconds == 12.5
        assert spec.request.heuristic == "H4ls"

    @pytest.mark.parametrize(
        "payload",
        [
            make_session_payload(heuristic="H1"),  # randomized
            make_session_payload(deadline_ms=50),  # per-solve knob
            make_session_payload(ttl_seconds=0),
            make_session_payload(ttl_seconds=-3),
            make_session_payload(ttl_seconds=True),
            make_session_payload(junk=1),  # unknown top-level key
            "not an object",
        ],
    )
    def test_bad_session_payloads_are_rejected(self, payload):
        with pytest.raises(ExperimentError):
            normalize_session_request(payload)

    def test_unknown_top_level_keys_are_listed(self):
        with pytest.raises(ExperimentError, match="surprise"):
            normalize_session_request(make_session_payload(surprise=1))

    def test_event_roundtrip(self):
        assert normalize_event({"kind": "fail", "machine": 2, "time": 1.5}) == (
            "fail",
            2,
            1.5,
        )
        assert normalize_event({"kind": "request", "time": 0}) == ("request", None, 0.0)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "explode", "time": 1.0, "machine": 0},
            {"kind": "fail", "time": 1.0},  # machine missing
            {"kind": "fail", "time": 1.0, "machine": -1},
            {"kind": "fail", "time": 1.0, "machine": True},
            {"kind": "request", "time": 1.0, "machine": 0},
            {"kind": "fail", "machine": 0},  # time missing
            {"kind": "fail", "time": -1.0, "machine": 0},
            {"kind": "fail", "time": True, "machine": 0},
            {"kind": "fail", "time": 1.0, "machine": 0, "junk": 1},
            "not an object",
        ],
    )
    def test_bad_events_are_rejected(self, payload):
        with pytest.raises(ExperimentError):
            normalize_event(payload)


class TestSessionManager:
    def make_session_args(self, **overrides):
        spec = normalize_session_request(make_session_payload(**overrides))
        config = LiveConfig(
            tasks=spec.request.num_tasks,
            types=spec.request.scenario.num_types,
            machines=spec.request.scenario.num_machines,
            heuristic=spec.request.heuristic,
            seed=spec.request.seed,
        )
        return spec, build_replanner(config)

    def test_idle_sessions_expire_on_sweep(self):
        async def scenario():
            manager = SessionManager(ttl=10.0)
            session = manager.add(*self.make_session_args())
            assert manager.sweep(now=session.last_used + 5.0) == 0
            assert manager.sweep(now=session.last_used + 11.0) == 1
            return manager, session

        manager, session = run(scenario())
        assert session.id not in manager
        assert manager.stats_payload()["expired"] == 1
        with pytest.raises(ExperimentError, match="no such session"):
            manager.get(session.id)

    def test_sweep_skips_sessions_with_an_event_mid_flight(self):
        async def scenario():
            manager = SessionManager(ttl=10.0)
            session = manager.add(*self.make_session_args())
            async with session.lock:  # an event is being applied right now
                swept_busy = manager.sweep(now=session.last_used + 100.0)
            swept_idle = manager.sweep(now=session.last_used + 100.0)
            return swept_busy, swept_idle

        swept_busy, swept_idle = run(scenario())
        assert swept_busy == 0  # busy: skipped no matter how old
        assert swept_idle == 1  # idle again: expired

    def test_session_table_is_bounded(self):
        async def scenario():
            manager = SessionManager(ttl=30.0, max_sessions=1)
            manager.add(*self.make_session_args())
            with pytest.raises(ServiceOverloadedError) as excinfo:
                manager.add(*self.make_session_args(seed=1))
            return excinfo.value

        exc = run(scenario())
        assert exc.retry_after_seconds == 30.0

    def test_ttl_override_applies_per_session(self):
        async def scenario():
            manager = SessionManager(ttl=300.0)
            session = manager.add(*self.make_session_args(ttl_seconds=1.0))
            return manager.sweep(now=session.last_used + 2.0)

        assert run(scenario()) == 1

    def test_departed_sessions_keep_their_availability_mass(self):
        async def scenario():
            manager = SessionManager(ttl=10.0)
            spec, replanner = self.make_session_args()
            session = manager.add(spec, replanner)
            manager.note_record(replanner.apply(50.0, "request"))
            manager.close(session.id)
            return manager.stats_payload()

        stats = run(scenario())
        assert stats["active"] == 0
        assert stats["closed"] == 1
        assert stats["availability"] == 1.0
        assert stats["served"] == 1


class TestSessionHTTP:
    def request_in_executor(self, call):
        return asyncio.get_running_loop().run_in_executor(None, call)

    def with_service(self, inner, **service_kwargs):
        async def scenario():
            service = SolveService(port=0, **service_kwargs)
            await service.start()
            try:
                return await inner(service)
            finally:
                await service.stop()

        return run(scenario())

    def test_session_lifecycle_matches_local_replanner(self):
        config = LiveConfig(
            tasks=10, types=3, machines=6, duration=40.0, mtbf=18.0, mttr=6.0,
            arrival_rate=0.15,
        )
        local = build_replanner(config)
        local_records = [local.initial.to_dict()] + [
            local.apply(e.time, e.kind, e.machine).to_dict()
            for e in generate_timeline(config)
        ]

        async def inner(service):
            def talk():
                with ServiceClient(service.url) as client:
                    with client.session(config.session_payload()) as session:
                        records = [
                            {k: v for k, v in session.created.items()
                             if k not in ("session", "ttl_seconds")}
                        ]
                        for event in generate_timeline(config):
                            response = session.event(**event.to_payload())
                            records.append(
                                {k: v for k, v in response.items() if k != "session"}
                            )
                        state = session.state()
                        closed = session.close()
                    return records, state, closed

            return await self.request_in_executor(talk)

        records, state, closed = self.with_service(inner)
        # replan_ms is a latency measurement, not state — everything else
        # must agree bit for bit with the in-process run.
        strip = lambda rec: {k: v for k, v in rec.items() if k != "replan_ms"}
        assert [strip(r) for r in records] == [strip(r) for r in local_records]
        assert state["events"] == len(local_records)
        assert state["feasible"] == local.feasible
        assert closed["closed"] is True
        assert closed["events"] == len(local_records)

    def test_unknown_session_is_a_404_envelope(self):
        async def inner(service):
            return await self.request_in_executor(
                lambda: raw_http(service.url, "GET", "/v1/session/nope")
            )

        status, _, body = self.with_service(inner)
        assert status == 404
        assert body["error"]["code"] == "session_not_found"
        assert "nope" in body["error"]["message"]

    def test_concurrent_events_on_one_session_serialize(self):
        # Two simultaneous failures of assigned machines, posted
        # concurrently: whichever order the lock grants, the final state
        # is the cold solve of the final up-set — a pure function of it.
        payload = make_session_payload(tasks=10, machines=6)

        async def inner(service):
            def create():
                with ServiceClient(service.url) as client:
                    return client.post("/v1/session", payload)

            created = await self.request_in_executor(create)
            mapping = created["mapping"]
            victims = sorted(set(mapping))[:2]

            def post_event(machine):
                def call():
                    with ServiceClient(service.url) as client:
                        return client.post(
                            f"/v1/session/{created['session']}/event",
                            {"kind": "fail", "time": 1.0, "machine": machine},
                        )

                return self.request_in_executor(call)

            first, second = await asyncio.gather(*map(post_event, victims))
            return created, first, second

        created, first, second = self.with_service(inner)
        spec = normalize_session_request(make_session_payload(tasks=10, machines=6))
        instance = spec.request.sample()
        up = np.ones(instance.num_machines, dtype=bool)
        victims = sorted(set(created["mapping"]))[:2]
        up[victims] = False
        sub, cols = sub_instance(instance, up)
        expected = [int(u) for u in cols[solve_one(get_heuristic("H4ls"), sub)]]
        final = first if first["seq"] > second["seq"] else second
        assert {first["seq"], second["seq"]} == {1, 2}
        assert final["mapping"] == expected
        assert final["up_count"] == instance.num_machines - 2

    def test_idle_session_expires_over_http(self):
        async def inner(service):
            def create():
                with ServiceClient(service.url) as client:
                    return client.post("/v1/session", make_session_payload())

            created = await self.request_in_executor(create)
            await asyncio.sleep(0.6)  # ttl 0.2, sweeper interval 0.05
            return await self.request_in_executor(
                lambda: raw_http(
                    service.url, "GET", f"/v1/session/{created['session']}"
                )
            )

        status, _, body = self.with_service(inner, session_ttl=0.2)
        assert status == 404
        assert body["error"]["code"] == "session_not_found"

    def test_session_table_full_is_a_429_envelope(self):
        async def inner(service):
            def create():
                return raw_http(
                    service.url, "POST", "/v1/session", make_session_payload()
                )

            first = await self.request_in_executor(create)
            second = await self.request_in_executor(
                lambda: raw_http(
                    service.url, "POST", "/v1/session",
                    make_session_payload(seed=1),
                )
            )
            return first, second

        first, second = self.with_service(inner, max_sessions=1)
        assert first[0] == 200
        status, headers, body = second
        assert status == 429
        assert body["error"]["code"] == "overloaded"
        assert body["error"]["retry_after_seconds"] >= 1
        assert "Retry-After" in headers

    def test_bad_payloads_get_400_envelopes_listing_unknown_keys(self):
        async def inner(service):
            calls = {
                "solve": lambda: raw_http(
                    service.url, "POST", "/v1/solve",
                    make_session_payload(bogus_key=1),
                ),
                "session": lambda: raw_http(
                    service.url, "POST", "/v1/session",
                    make_session_payload(bogus_key=1),
                ),
            }
            results = {}
            for name, call in calls.items():
                results[name] = await self.request_in_executor(call)
            created = await self.request_in_executor(
                lambda: raw_http(
                    service.url, "POST", "/v1/session", make_session_payload()
                )
            )
            results["event"] = await self.request_in_executor(
                lambda: raw_http(
                    service.url, "POST",
                    f"/v1/session/{created[2]['session']}/event",
                    {"kind": "fail", "time": 1.0, "machine": 0, "bogus_key": 1},
                )
            )
            return results

        results = self.with_service(inner)
        for status, _, body in results.values():
            assert status == 400
            assert body["error"]["code"] == "bad_request"
            assert "bogus_key" in body["error"]["message"]

    def test_randomized_heuristic_session_is_rejected(self):
        async def inner(service):
            return await self.request_in_executor(
                lambda: raw_http(
                    service.url, "POST", "/v1/session",
                    make_session_payload(heuristic="H1"),
                )
            )

        status, _, body = self.with_service(inner)
        assert status == 400
        assert "deterministic" in body["error"]["message"]


class TestVersionedAPI:
    def request_in_executor(self, call):
        return asyncio.get_running_loop().run_in_executor(None, call)

    def with_service(self, inner, **service_kwargs):
        async def scenario():
            service = SolveService(port=0, **service_kwargs)
            await service.start()
            try:
                return await inner(service)
            finally:
                await service.stop()

        return run(scenario())

    def test_unversioned_routes_get_404_envelopes(self):
        routes = (
            ("POST", "/solve", make_session_payload()),
            ("GET", "/stats", None),
            ("GET", "/healthz", None),
        )

        async def inner(service):
            return [
                await self.request_in_executor(
                    lambda route=route: raw_http(service.url, *route)
                )
                for route in routes
            ]

        for status, headers, body in self.with_service(inner):
            assert status == 404
            assert body["error"]["code"] == "not_found"
            assert "Deprecation" not in headers

    def test_unknown_routes_get_404_envelopes(self):
        async def inner(service):
            return (
                await self.request_in_executor(
                    lambda: raw_http(service.url, "GET", "/nope")
                ),
                await self.request_in_executor(
                    lambda: raw_http(service.url, "GET", "/v1/nope")
                ),
                await self.request_in_executor(
                    lambda: raw_http(service.url, "PUT", "/v1/solve")
                ),
            )

        for status, _, body in self.with_service(inner):
            assert status == 404
            assert body["error"]["code"] == "not_found"
            assert "no such endpoint" in body["error"]["message"]

    def test_invalid_json_is_a_400_envelope(self):
        async def inner(service):
            def call():
                host, port = service.url.removeprefix("http://").split(":")
                conn = http.client.HTTPConnection(host, int(port), timeout=30)
                try:
                    conn.request(
                        "POST", "/v1/solve", body=b"{nope",
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    return response.status, json.loads(response.read())
                finally:
                    conn.close()

            return await self.request_in_executor(call)

        status, body = self.with_service(inner)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "not valid JSON" in body["error"]["message"]

    def test_stats_exposes_the_sessions_section(self):
        async def inner(service):
            def talk():
                with ServiceClient(service.url) as client:
                    with client.session(make_session_payload()) as session:
                        session.event("fail", 1.0, 0)
                    return client.stats()

            return await self.request_in_executor(talk)

        stats = self.with_service(inner)
        sessions = stats["sessions"]
        assert sessions["created"] == 1
        assert sessions["closed"] == 1
        assert sessions["events"] == 2  # initial solve + one failure
        assert sessions["replans"]["cold"] >= 1
        assert 0.0 <= sessions["availability"] <= 1.0


class TestServiceClient:
    def test_rejects_non_http_urls(self):
        with pytest.raises(ExperimentError, match="bad service URL"):
            ServiceClient("ftp://example:21")

    def test_bare_host_port_is_accepted(self):
        client = ServiceClient("127.0.0.1:8000")
        assert client.base_url == "http://127.0.0.1:8000"

    def test_keep_alive_reuses_one_connection(self):
        async def scenario():
            service = SolveService(port=0)
            await service.start()
            try:
                def talk():
                    with ServiceClient(service.url) as client:
                        client.healthz()
                        first = client._conn
                        client.stats()
                        second = client._conn
                        return first is not None and first is second

                return await asyncio.get_running_loop().run_in_executor(None, talk)
            finally:
                await service.stop()

        assert run(scenario())

    def test_retries_429_until_the_budget_runs_out(self):
        class Flaky(ServiceClient):
            def __init__(self, failures):
                super().__init__("http://127.0.0.1:1", retries=5)
                self.failures = failures
                self.calls = 0

            def _roundtrip(self, method, path, payload):
                self.calls += 1
                if self.calls <= self.failures:
                    raise ServiceOverloadedError(
                        "busy", retry_after_seconds=0.001
                    )
                return {"ok": True}

        recovered = Flaky(failures=2)
        assert recovered.get("/v1/stats") == {"ok": True}
        assert recovered.calls == 3

        exhausted = Flaky(failures=100)
        exhausted.retries = 2
        with pytest.raises(ServiceOverloadedError):
            exhausted.get("/v1/stats")
        assert exhausted.calls == 3  # initial try + 2 retries

    def test_zero_retries_surfaces_the_429_immediately(self):
        class AlwaysBusy(ServiceClient):
            def _roundtrip(self, method, path, payload):
                raise ServiceOverloadedError("busy", retry_after_seconds=0.001)

        client = AlwaysBusy("http://127.0.0.1:1", retries=0)
        with pytest.raises(ServiceOverloadedError):
            client.get("/v1/stats")

    def test_unreachable_server_is_a_clean_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.2)
        with pytest.raises(ExperimentError, match="cannot reach"):
            client.healthz()
