"""Asyncio HTTP front end of the solve service.

A deliberately small, dependency-free HTTP/1.1 server on
``asyncio.start_server`` (the container ships no async HTTP framework).
All routes live under the **versioned** ``/v1/`` prefix; any other path
(the unversioned ``/solve``, ``/stats`` and ``/healthz`` included) gets
the 404 ``not_found`` envelope:

``POST /v1/solve``
    One solve request (see :mod:`repro.service.requests` for the
    schema).  The connection parks in the micro-batcher until its group
    flushes; the response body carries the mapping, its period and the
    cache/batch markers.  Under load the service answers **429** with a
    ``Retry-After`` header instead of queueing without bound, and a
    request carrying ``options.deadline_ms`` that cannot be answered in
    time gets a **504** (the solve itself still completes and lands in
    the cache, so the retry is cheap).
``POST /v1/session`` / ``POST /v1/session/{id}/event`` /
``GET /v1/session/{id}`` / ``DELETE /v1/session/{id}``
    Long-lived replanning sessions (see :mod:`repro.service.sessions`):
    create one over a solve-request payload, apply platform deltas
    (machine failed / recovered) and get the incrementally replanned
    mapping back, read state, close.  Idle sessions expire.
``GET /v1/stats``
    Live counters: request/cache/batcher/session stats plus latency
    aggregates and p50/p95/p99 percentiles over fixed-size reservoirs,
    and a ``metrics`` snapshot of the unified registry.
``GET /v1/metrics``
    The same registry in Prometheus text exposition format
    (:meth:`repro.obs.metrics.MetricsRegistry.render`), for scraping.
``GET /v1/healthz``
    Liveness probe (also used by the CLI/smoke to await readiness).

Keep-alive is supported, so a client can stream many requests over one
connection.  Every response carries an ``X-Request-Id`` header — the
client's, echoed, when it sent a well-formed one, else generated — so
coalesced and micro-batched requests stay attributable to the group
solve that served them (the id is recorded on the request's root span
when tracing is on; see :mod:`repro.obs.trace`).  Every error status
(400/404/429/500/504) carries one uniform envelope — ``{"error":
{"code", "message"[, "retry_after_seconds"]}}`` — instead of tearing
the connection down.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import re
import signal
import time

from .._version import __version__
from ..exceptions import ReproError, ServiceOverloadedError
from ..live.replanner import Replanner
from ..obs.metrics import LatencyReservoir, MetricsRegistry
from ..obs.trace import configure as configure_tracing
from ..obs.trace import request_id_or_new, span, trace_path
from .batcher import DEFAULT_MAX_BATCH, DEFAULT_WINDOW_SECONDS, MicroBatcher
from .cache import SolveCache
from .pool import SolveWorkerPool
from .requests import (
    SessionRequest,
    normalize_event,
    normalize_request,
    normalize_session_request,
)
from .sessions import DEFAULT_MAX_SESSIONS, DEFAULT_SESSION_TTL, SessionManager

__all__ = ["LatencyReservoir", "ServiceStats", "SolveService", "serve"]

#: Largest accepted request body (a solve request is a few hundred bytes;
#: anything bigger is garbage or abuse).
MAX_BODY_BYTES = 1 << 20
#: Largest accepted request line + header section.
MAX_HEADER_BYTES = 1 << 14

#: ``/v1/session/{id}`` and ``/v1/session/{id}/event`` (already stripped
#: of the version prefix when matched).
_SESSION_ROUTE = re.compile(r"/session/([A-Za-z0-9_-]+)(/event)?")


class ServiceStats:
    """Request-level counters of one service process.

    Uptime is measured on the monotonic clock — ``time.time()`` would
    make ``uptime_seconds`` jump (or go negative) across an NTP step —
    while ``started_at_unix`` keeps the human-readable wall-clock start.

    Registry-backed since the unified telemetry layer landed: every
    counter is a :class:`~repro.obs.metrics.MetricsRegistry` series
    (shared with ``GET /v1/metrics``), and the historical attributes
    read from it — ``/v1/stats`` and the exposition endpoint can never
    disagree.
    """

    __slots__ = (
        "started_monotonic",
        "started_at_unix",
        "reservoir",
        "_solved",
        "_errors",
        "_shed",
        "_deadline",
        "_latency",
        "_latency_max",
    )

    def __init__(self, registry: MetricsRegistry | None = None):
        registry = registry if registry is not None else MetricsRegistry()
        self.started_monotonic = time.monotonic()
        self.started_at_unix = time.time()
        self.reservoir = LatencyReservoir()
        self._solved = registry.counter(
            "repro_service_requests_total", "Solve requests answered 200."
        )
        self._errors = registry.counter(
            "repro_service_errors_total",
            "Requests answered with an error envelope (4xx/5xx, 429/504 aside).",
        )
        self._shed = registry.counter(
            "repro_service_shed_total",
            "Requests shed by admission control (HTTP 429).",
        )
        self._deadline = registry.counter(
            "repro_service_deadline_exceeded_total",
            "Requests whose deadline expired before the solve (HTTP 504).",
        )
        self._latency = registry.histogram(
            "repro_service_latency_seconds", "End-to-end solve latency."
        )
        self._latency_max = registry.gauge(
            "repro_service_latency_max_seconds", "Largest solve latency seen."
        )

    @property
    def solved(self) -> int:
        return self._solved.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def shed(self) -> int:
        return self._shed.value

    @property
    def deadline_exceeded(self) -> int:
        return self._deadline.value

    @property
    def latency_seconds(self) -> float:
        return self._latency.sum

    @property
    def latency_max_seconds(self) -> float:
        return self._latency_max.value

    def note_error(self) -> None:
        self._errors.inc()

    def note_shed(self) -> None:
        self._shed.inc()

    def note_deadline(self) -> None:
        self._deadline.inc()

    def record(self, elapsed: float) -> None:
        self._solved.inc()
        self._latency.observe(elapsed)
        self._latency_max.max(elapsed)
        self.reservoir.add(elapsed)

    def as_dict(self) -> dict:
        mean = self.latency_seconds / self.solved if self.solved else 0.0
        return {
            "uptime_seconds": round(time.monotonic() - self.started_monotonic, 3),
            "started_at_unix": round(self.started_at_unix, 3),
            "solved": self.solved,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "latency_mean_ms": round(mean * 1000.0, 3),
            "latency_max_ms": round(self.latency_max_seconds * 1000.0, 3),
            "latency_p50_ms": round(self.reservoir.percentile(0.50) * 1000.0, 3),
            "latency_p95_ms": round(self.reservoir.percentile(0.95) * 1000.0, 3),
            "latency_p99_ms": round(self.reservoir.percentile(0.99) * 1000.0, 3),
        }


class SolveService:
    """One solve-service instance: micro-batcher + cache + HTTP server.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (``self.port`` holds
        the effective one after :meth:`start`).
    window, max_batch, batch:
        Micro-batcher knobs (see
        :class:`~repro.service.batcher.MicroBatcher`).
    cache_dir:
        Directory of the persistent cache tier, or ``None`` for an
        in-memory-only cache.
    cache_capacity:
        LRU size of the memory tier; ``<= 0`` together with
        ``cache_dir=None`` disables caching entirely.
    cache_max_bytes:
        Size bound of the persistent tier's append log; exceeding it
        triggers compaction and LRU-ordered eviction
        (see :class:`~repro.service.cache.SolveCacheStore`).
    workers:
        ``> 0`` solves groups in that many worker *processes*
        (:class:`~repro.service.pool.SolveWorkerPool`), escaping the
        GIL; ``0`` (default) keeps solves on the in-process thread
        executor.
    max_pending:
        Admission-control bound on unresolved requests; beyond it new
        requests are shed with HTTP 429 + ``Retry-After``.  ``None``
        disables shedding.
    retry_after:
        Seconds advertised in the 429 ``Retry-After`` header.
    session_ttl:
        Idle expiry of live replanning sessions, in seconds.
    max_sessions:
        Bound on concurrently open sessions; creating one beyond it is
        shed with HTTP 429.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch: bool | None = None,
        cache_dir: str | None = None,
        cache_capacity: int = 1024,
        cache_max_bytes: int | None = None,
        workers: int = 0,
        max_pending: int | None = None,
        retry_after: float = 1.0,
        session_ttl: float = DEFAULT_SESSION_TTL,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ):
        self.host = host
        self.port = port
        self.retry_after = float(retry_after)
        #: One registry for every layer of this process — the single
        #: source of truth behind ``/v1/stats`` and ``GET /v1/metrics``.
        self.registry = MetricsRegistry()
        self.cache: SolveCache | None = (
            SolveCache.open(
                cache_dir,
                capacity=cache_capacity,
                max_bytes=cache_max_bytes,
                registry=self.registry,
            )
            if cache_dir is not None or cache_capacity > 0
            else None
        )
        self.pool: SolveWorkerPool | None = (
            SolveWorkerPool(workers) if workers else None
        )
        self.batcher = MicroBatcher(
            window=window,
            max_batch=max_batch,
            batch=batch,
            cache=self.cache,
            pool=self.pool,
            max_pending=max_pending,
            registry=self.registry,
        )
        self.stats = ServiceStats(self.registry)
        self.sessions = SessionManager(
            ttl=session_ttl, max_sessions=max_sessions, registry=self.registry
        )
        self.registry.gauge(
            "repro_service_workers", "Solve worker processes attached."
        ).set(workers)
        self._server: asyncio.Server | None = None
        self._sweeper: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        # With port=0 the kernel picked one; expose the effective port.
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.get_running_loop().create_task(
            self.sessions.run_sweeper()
        )

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI entry point)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight work, close.

        In-flight groups are flushed and *waited for* (the batcher's
        ``aclose``), so a solve that a client is still parked on
        completes and is answered instead of being dropped mid-flight.
        The drain runs before ``wait_closed`` because (since 3.12)
        ``wait_closed`` itself waits for connection handlers — which are
        exactly the coroutines parked on the batcher.
        """
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        if self._server is not None:
            self._server.close()
        await self.batcher.aclose()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.pool is not None:
            self.pool.shutdown()
        if self.cache is not None:
            self.cache.close()

    # -- request handling --------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                request_id = request_id_or_new(headers.get("x-request-id"))
                with span(
                    "http.request",
                    method=method,
                    path=target.split("?", 1)[0],
                    request_id=request_id,
                ) as request_span:
                    status, payload, extra_headers = await self._dispatch(
                        method, target, body
                    )
                    request_span.set(status=status)
                extra_headers = dict(extra_headers or {})
                # Echoed (or generated) on every response, so a client —
                # including one whose request was coalesced into another
                # group member's solve — can join its logs to the trace.
                extra_headers["X-Request-Id"] = request_id
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await _write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    headers=extra_headers,
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover - teardown race
                pass

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict, dict | None]:
        path = target.split("?", 1)[0]
        if path == "/v1" or path.startswith("/v1/"):
            return await self._route(method, path[3:] or "/", path, body)
        self.stats.note_error()
        return _error(404, "not_found", f"no such endpoint: {method} {path}")

    async def _route(
        self, method: str, route: str, path: str, body: bytes
    ) -> tuple[int, dict, dict | None]:
        """Answer one version-stripped route (``path`` only for messages)."""
        if route == "/solve" and method == "POST":
            return await self._solve(body)
        if route == "/stats" and method == "GET":
            return 200, self.stats_payload(), None
        if route == "/metrics" and method == "GET":
            # Prometheus text exposition; _write_response sends str
            # payloads as text/plain instead of JSON.
            return 200, self.metrics_text(), None
        if route == "/healthz" and method == "GET":
            return 200, {"status": "ok", "version": __version__, "api": "v1"}, None
        if route == "/session" and method == "POST":
            return await self._session_create(body)
        match = _SESSION_ROUTE.fullmatch(route)
        if match is not None:
            session_id, is_event = match.group(1), match.group(2) is not None
            if is_event and method == "POST":
                return await self._session_event(session_id, body)
            if not is_event and method == "GET":
                return self._session_state(session_id)
            if not is_event and method == "DELETE":
                return self._session_close(session_id)
        self.stats.note_error()
        return _error(404, "not_found", f"no such endpoint: {method} {path}")

    def _shed(self, exc: ServiceOverloadedError) -> tuple[int, dict, dict | None]:
        # Load shedding, not an error: the request was never admitted.
        self.stats.note_shed()
        seconds = getattr(exc, "retry_after_seconds", None)
        retry_after = max(0, math.ceil(self.retry_after if seconds is None else seconds))
        return _error(
            429,
            "overloaded",
            str(exc),
            retry_after=retry_after,
            headers={"Retry-After": str(retry_after)},
        )

    async def _solve(self, body: bytes) -> tuple[int, dict, dict | None]:
        start = time.perf_counter()
        try:
            payload = _parse_json(body)
            request = normalize_request(payload)
            submission = self.batcher.submit(request)
            if request.deadline_ms is not None:
                response = await asyncio.wait_for(
                    submission, timeout=request.deadline_ms / 1000.0
                )
            else:
                response = await submission
        except ServiceOverloadedError as exc:
            return self._shed(exc)
        except (asyncio.TimeoutError, TimeoutError):
            # The solve itself keeps running (shielded) and lands in the
            # cache, so the client's retry after the deadline is cheap.
            self.stats.note_deadline()
            return _error(
                504,
                "deadline_exceeded",
                f"deadline of {request.deadline_ms:g} ms exceeded "
                "before the solve completed",
            )
        except ReproError as exc:
            self.stats.note_error()
            return _error(400, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - a solver bug must not kill the connection
            self.stats.note_error()
            return _error(500, "internal", f"{type(exc).__name__}: {exc}")
        self.stats.record(time.perf_counter() - start)
        return 200, response, None

    # -- sessions ------------------------------------------------------------------
    @staticmethod
    def _build_replanner(spec: SessionRequest) -> Replanner:
        """CPU-bound session setup (instance draw + initial solve)."""
        return Replanner(spec.request.sample(), spec.request.heuristic)

    async def _session_create(self, body: bytes) -> tuple[int, dict, dict | None]:
        try:
            spec = normalize_session_request(_parse_json(body))
            replanner = await asyncio.get_running_loop().run_in_executor(
                None, self._build_replanner, spec
            )
            session = self.sessions.add(spec, replanner)
        except ServiceOverloadedError as exc:
            return self._shed(exc)
        except ReproError as exc:
            self.stats.note_error()
            return _error(400, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the connection alive
            self.stats.note_error()
            return _error(500, "internal", f"{type(exc).__name__}: {exc}")
        return 200, session.created_payload(), None

    async def _session_event(
        self, session_id: str, body: bytes
    ) -> tuple[int, dict, dict | None]:
        try:
            payload = _parse_json(body)
            kind, machine, event_time = normalize_event(payload)
            session = self.sessions.get(session_id)
        except ReproError as exc:
            return self._session_error(exc)
        try:
            # The lock serializes concurrent events on one session: the
            # replanner sees a single, time-ordered stream.  The replan
            # itself runs on the executor so other sessions (and plain
            # solves) keep flowing while this one computes.
            async with session.lock:
                session.touch()
                with span(
                    "session.event", session=session.id, kind=kind, machine=machine
                ) as event_span:
                    record = await asyncio.get_running_loop().run_in_executor(
                        None, session.replanner.apply, event_time, kind, machine
                    )
                    event_span.set(via=record.via)
                session.touch()
        except ReproError as exc:
            self.stats.note_error()
            return _error(400, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the connection alive
            self.stats.note_error()
            return _error(500, "internal", f"{type(exc).__name__}: {exc}")
        self.sessions.note_record(record)
        return 200, {"session": session.id, **record.to_dict()}, None

    def _session_state(self, session_id: str) -> tuple[int, dict, dict | None]:
        try:
            session = self.sessions.get(session_id)
        except ReproError as exc:
            return self._session_error(exc)
        session.touch()
        return 200, session.state_payload(), None

    def _session_close(self, session_id: str) -> tuple[int, dict, dict | None]:
        try:
            session = self.sessions.close(session_id)
        except ReproError as exc:
            return self._session_error(exc)
        return 200, session.closed_payload(), None

    def _session_error(self, exc: ReproError) -> tuple[int, dict, dict | None]:
        """400 for malformed payloads, 404 for unknown/expired sessions."""
        self.stats.note_error()
        if str(exc).startswith("no such session"):
            return _error(404, "session_not_found", str(exc))
        return _error(400, "bad_request", str(exc))

    def stats_payload(self) -> dict:
        """The ``/v1/stats`` body (also used by tests and the smoke check)."""
        payload = {
            "service": self.stats.as_dict(),
            "batcher": self.batcher.stats.as_dict(),
            "sessions": self.sessions.stats_payload(),
        }
        payload["cache"] = (
            self.cache.stats_payload() if self.cache is not None else None
        )
        payload["workers"] = self.pool.workers if self.pool is not None else 0
        self._refresh_gauges()
        payload["metrics"] = self.registry.snapshot()
        return payload

    def _refresh_gauges(self) -> None:
        """Update scrape-time gauges (uptime, table/store footprints)."""
        registry = self.registry
        registry.gauge(
            "repro_service_uptime_seconds", "Seconds since the service started."
        ).set(round(time.monotonic() - self.stats.started_monotonic, 3))
        registry.gauge(
            "repro_sessions_active", "Currently open replanning sessions."
        ).set(len(self.sessions))
        if self.cache is not None and self.cache.store is not None:
            store = self.cache.store
            registry.gauge(
                "repro_cache_store_entries", "Records in the persistent cache tier."
            ).set(len(store))
            registry.gauge(
                "repro_cache_store_bytes", "Size of the persistent cache log."
            ).set(store.size_bytes())
            registry.gauge(
                "repro_cache_store_evictions",
                "Entries evicted from the persistent tier.",
            ).set(store.evictions)
            registry.gauge(
                "repro_cache_store_compactions",
                "Compactions of the persistent cache log.",
            ).set(store.compactions)

    def metrics_text(self) -> str:
        """The ``GET /v1/metrics`` body (Prometheus text exposition)."""
        self._refresh_gauges()
        return self.registry.render()


def _parse_json(body: bytes) -> dict:
    """Decode a request body, mapping JSON noise to a clean 400."""
    try:
        return json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"request body is not valid JSON: {exc}") from exc


def _error(
    status: int,
    code: str,
    message: str,
    *,
    retry_after: int | None = None,
    headers: dict | None = None,
) -> tuple[int, dict, dict | None]:
    """The uniform error envelope every non-2xx response carries."""
    envelope: dict = {"code": code, "message": message}
    if retry_after is not None:
        envelope["retry_after_seconds"] = retry_after
    return status, {"error": envelope}, headers


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict, bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise
    if len(head) > MAX_HEADER_BYTES:
        raise ConnectionError("header section too large")
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise ConnectionError(f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip().lower()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as exc:
        raise ConnectionError(f"bad Content-Length: {exc}") from exc
    if not 0 <= length <= MAX_BODY_BYTES:
        raise ConnectionError(f"bad Content-Length ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | str,
    *,
    keep_alive: bool,
    headers: dict | None = None,
) -> None:
    reasons = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        429: "Too Many Requests",
        500: "Internal Server Error",
        504: "Gateway Timeout",
    }
    if isinstance(payload, str):
        # Text payloads (the Prometheus exposition) go out as-is.
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def _announce(line: str) -> None:
    # Flushed so a parent process piping stdout (the CI smoke) sees the
    # readiness line immediately.
    print(line, flush=True)


async def _serve_async(service: SolveService, *, announce=_announce) -> None:
    await service.start()
    announce(
        f"solve service listening on {service.url} "
        "(POST /v1/solve, POST /v1/session, GET /v1/stats)"
    )
    # SIGTERM stops the service like Ctrl-C does: cancel this task, so
    # stop() below shuts the worker pool down instead of orphaning it.
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
    try:
        await service.serve_forever()
    finally:
        loop.remove_signal_handler(signal.SIGTERM)
        await service.stop()


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    window: float = DEFAULT_WINDOW_SECONDS,
    max_batch: int = DEFAULT_MAX_BATCH,
    cache_dir: str | None = None,
    cache_capacity: int = 1024,
    cache_max_bytes: int | None = None,
    workers: int = 0,
    max_pending: int | None = None,
    session_ttl: float = DEFAULT_SESSION_TTL,
    max_sessions: int = DEFAULT_MAX_SESSIONS,
    trace: str | None = None,
    announce=_announce,
) -> None:
    """Blocking entry point: run a solve service until SIGINT or SIGTERM.

    Announces the effective URL on stdout once the socket is bound
    (``port=0`` binds a free port), which is what ``microrepro serve``
    and the CI smoke wait for.  ``trace`` switches span tracing on for
    this process, appending to a :class:`~repro.obs.trace.TraceStore`
    at that directory (off by default; also reachable via
    ``REPRO_TRACE``).
    """
    if trace is not None:
        configure_tracing(trace)
        announce(f"tracing spans to {trace_path()}")
    service = SolveService(
        host=host,
        port=port,
        window=window,
        max_batch=max_batch,
        cache_dir=cache_dir,
        cache_capacity=cache_capacity,
        cache_max_bytes=cache_max_bytes,
        workers=workers,
        max_pending=max_pending,
        session_ttl=session_ttl,
        max_sessions=max_sessions,
    )
    try:
        asyncio.run(_serve_async(service, announce=announce))
    except (KeyboardInterrupt, asyncio.CancelledError):  # SIGINT / SIGTERM
        pass
