"""Long-lived replanning sessions hosted in the service's event loop.

A *session* wraps one :class:`~repro.live.replanner.Replanner` behind
the ``/v1/session`` endpoints: create it with a solve-request payload
(the instance is the same content-addressed draw ``/v1/solve`` would
make), feed it platform deltas, read its state, close it.  The
:class:`SessionManager` owns the id → session table and the idle-expiry
sweep; the HTTP handlers in :mod:`repro.service.server` call into it
from the event loop and off-load the CPU-bound replans to the default
executor.

Concurrency model
-----------------
Sessions are mutable state in an async server, so each one carries an
``asyncio.Lock``: concurrent events on the same session serialize (the
replanner sees one deterministic, time-ordered stream), while events on
*different* sessions overlap freely.  The expiry sweep skips sessions
whose lock is held — a session cannot expire mid-event, only idle ones
go.
"""

from __future__ import annotations

import asyncio
import time
import uuid

from ..exceptions import ExperimentError, ServiceOverloadedError
from ..live.replanner import Replanner
from ..obs.metrics import MetricsRegistry
from .requests import SessionRequest

__all__ = ["LiveSession", "SessionManager"]

#: Default idle expiry (seconds since the last touch).
DEFAULT_SESSION_TTL = 300.0
#: Default bound on concurrently open sessions (each holds an instance,
#: a plan cache and an evaluator).
DEFAULT_MAX_SESSIONS = 64


class LiveSession:
    """One open replanning session."""

    __slots__ = ("id", "spec", "replanner", "ttl", "lock", "created", "last_used")

    def __init__(self, spec: SessionRequest, replanner: Replanner, ttl: float):
        self.id = "s" + uuid.uuid4().hex[:12]
        self.spec = spec
        self.replanner = replanner
        self.ttl = float(ttl)
        self.lock = asyncio.Lock()
        self.created = time.monotonic()
        self.last_used = self.created

    def touch(self) -> None:
        """Reset the idle-expiry clock."""
        self.last_used = time.monotonic()

    def created_payload(self) -> dict:
        """The ``POST /v1/session`` response body (initial solve inside)."""
        return {
            "session": self.id,
            "ttl_seconds": self.ttl,
            **self.replanner.initial.to_dict(),
        }

    def state_payload(self) -> dict:
        """The ``GET /v1/session/{id}`` response body."""
        replanner = self.replanner
        request = self.spec.request
        mapping = replanner.mapping
        return {
            "session": self.id,
            "heuristic": replanner.heuristic,
            "tasks": request.num_tasks,
            "machines": request.scenario.num_machines,
            "seed": request.seed,
            "repetition": request.repetition,
            "ttl_seconds": self.ttl,
            "idle_seconds": round(time.monotonic() - self.last_used, 3),
            "events": replanner.events,
            "clock": replanner.clock,
            "up": [int(u) for u in replanner.up.nonzero()[0]],
            "up_count": replanner.up_count,
            "feasible": replanner.feasible,
            "mapping": None if mapping is None else [int(u) for u in mapping],
            "period": replanner.period,
            "availability": replanner.availability,
            "replans": replanner.counters.as_dict(),
        }

    def closed_payload(self) -> dict:
        """The ``DELETE /v1/session/{id}`` response body (run summary)."""
        replanner = self.replanner
        return {
            "session": self.id,
            "closed": True,
            "events": replanner.events,
            "availability": replanner.availability,
            "replans": replanner.counters.as_dict(),
        }


class SessionManager:
    """Id → session table with counters and idle expiry.

    All methods run on the event loop; only the replan itself (the
    caller's responsibility, under the session's lock) leaves it.
    """

    #: The replanner tiers broken out in stats and the metrics registry.
    REPLAN_TIERS = ("cache", "warm", "cold", "infeasible")

    def __init__(
        self,
        *,
        ttl: float = DEFAULT_SESSION_TTL,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        registry: MetricsRegistry | None = None,
    ):
        if ttl <= 0:
            raise ExperimentError(f"session ttl must be > 0, got {ttl}")
        self.ttl = float(ttl)
        self.max_sessions = int(max_sessions)
        self._sessions: dict[str, LiveSession] = {}
        registry = registry if registry is not None else MetricsRegistry()
        lifecycle = registry.counter(
            "repro_sessions_lifecycle_total",
            "Session lifecycle transitions.",
            labels=("event",),
        )
        self._events = registry.counter(
            "repro_session_events_total", "Platform events applied to sessions."
        )
        replans = registry.counter(
            "repro_replans_total",
            "Replans per tier of the live replanner cascade.",
            labels=("tier",),
        )
        # Every label child is bound up front, so the first /v1/metrics
        # scrape exposes the full series at 0 instead of omitting idle ones.
        self._lifecycle = {
            event: lifecycle.labels(event=event)
            for event in ("created", "closed", "expired")
        }
        self._replans = {tier: replans.labels(tier=tier) for tier in self.REPLAN_TIERS}
        self._served = registry.counter(
            "repro_session_events_served_total",
            "Events served by the current plan (no replan needed).",
        )
        self._missed = registry.counter(
            "repro_session_events_missed_total",
            "Request probes missed while the platform was infeasible.",
        )
        self._replan_latency = registry.histogram(
            "repro_replan_seconds", "Latency of one replan (any tier)."
        ).labels()
        # Availability mass of departed sessions, so the aggregate in
        # /v1/stats keeps accounting for closed/expired timelines.
        self._gone_available = 0.0
        self._gone_unavailable = 0.0

    # -- table -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def add(self, spec: SessionRequest, replanner: Replanner) -> LiveSession:
        """Register a freshly created session (initial solve already done)."""
        if len(self._sessions) >= self.max_sessions:
            raise ServiceOverloadedError(
                f"session table is full ({self.max_sessions} open); "
                "close or let idle sessions expire",
                retry_after_seconds=self.ttl,
            )
        session = LiveSession(
            spec, replanner, self.ttl if spec.ttl_seconds is None else spec.ttl_seconds
        )
        self._sessions[session.id] = session
        self._lifecycle["created"].inc()
        self.note_record(replanner.initial)
        return session

    def get(self, session_id: str) -> LiveSession:
        """The open session with this id, or an :class:`ExperimentError`."""
        session = self._sessions.get(session_id)
        if session is None:
            raise ExperimentError(
                f"no such session: {session_id!r} (closed, expired or never created)"
            )
        return session

    def close(self, session_id: str) -> LiveSession:
        """Remove and return a session (``DELETE`` handler)."""
        session = self.get(session_id)
        self._drop(session)
        self._lifecycle["closed"].inc()
        return session

    def _drop(self, session: LiveSession) -> None:
        self._sessions.pop(session.id, None)
        self._gone_available += session.replanner.available_seconds
        self._gone_unavailable += session.replanner.unavailable_seconds

    # -- accounting ----------------------------------------------------------------
    def note_record(self, record) -> None:
        """Fold one applied event into the aggregate counters."""
        self._events.inc()
        if record.via in self.REPLAN_TIERS:
            self._replans[record.via].inc()
            self._replan_latency.observe(record.latency_seconds)
        elif record.via == "serve":
            self._served.inc()
        elif record.via == "miss":
            self._missed.inc()

    # -- expiry --------------------------------------------------------------------
    def sweep(self, now: float | None = None) -> int:
        """Expire idle sessions; returns how many went.

        A held lock means an event is mid-flight — the session is busy,
        not idle, and is skipped no matter how old its last touch is.
        """
        now = time.monotonic() if now is None else now
        expired = [
            session
            for session in self._sessions.values()
            if not session.lock.locked() and now - session.last_used > session.ttl
        ]
        for session in expired:
            self._drop(session)
            self._lifecycle["expired"].inc()
        return len(expired)

    async def run_sweeper(self, interval: float | None = None) -> None:
        """Periodic :meth:`sweep` loop (cancelled by the server's stop)."""
        interval = (
            max(0.05, min(self.ttl / 4.0, 5.0)) if interval is None else interval
        )
        while True:
            await asyncio.sleep(interval)
            self.sweep()

    # -- stats ---------------------------------------------------------------------
    def stats_payload(self) -> dict:
        """The ``sessions`` section of ``/v1/stats``."""
        available = self._gone_available
        unavailable = self._gone_unavailable
        for session in self._sessions.values():
            available += session.replanner.available_seconds
            unavailable += session.replanner.unavailable_seconds
        total = available + unavailable
        latency = self._replan_latency
        return {
            "active": len(self._sessions),
            "created": self._lifecycle["created"].value,
            "closed": self._lifecycle["closed"].value,
            "expired": self._lifecycle["expired"].value,
            "events": self._events.value,
            "replans": {tier: child.value for tier, child in self._replans.items()},
            "served": self._served.value,
            "missed": self._missed.value,
            "availability": 1.0 if total == 0.0 else available / total,
            "replan_p50_ms": round(latency.percentile(0.50) * 1000.0, 3),
            "replan_p95_ms": round(latency.percentile(0.95) * 1000.0, 3),
            "replan_p99_ms": round(latency.percentile(0.99) * 1000.0, 3),
        }
