"""Incremental replanning of a mapping on a platform that fails and recovers.

The :class:`Replanner` holds the live state of one platform — which
machines are currently up, and the mapping currently deployed — and
answers every platform change with a new feasible mapping through a
deterministic tier cascade:

``infeasible``
    Fewer up machines than task types: no specialized mapping exists.
    The platform is *unavailable* until enough machines recover.
``cache``
    The exact up-set has been planned before; the stored mapping is
    reused as is.  This is what makes replan-after-recovery return the
    pre-failure mapping **bit for bit**: recovering to a previously seen
    platform state replays the plan that state already had.
``warm``
    The previous mapping only uses up machines (e.g. an *unassigned*
    machine failed, or a machine recovered).  Warm start: a
    best-single-move descent from the previous mapping through
    :class:`~repro.batch.MappingEvaluator`, with destinations restricted
    to up machines that keep the mapping specialized — the local-search
    move kernels, not a from-scratch solve.
``cold``
    The previous mapping is gone (an *assigned* machine died) or there
    is none: solve the full platform from scratch with the session's
    heuristic under the up-mask (:func:`~repro.heuristics.base.solve_one`
    with ``up``): every walk starts with the down machines owned by a
    phantom type, so they receive no task, and the result equals a
    solve of the platform renumbered down to its up machines.

Every tier is a pure function of ``(instance, heuristic, up-set,
previous mapping, plan cache)``, so a whole timeline's mappings are a
deterministic function of the timeline alone.  ``warm=True`` (the
default) only changes *how fast* the tiers run, never *what* they
return.  The warm tier keeps a persistent evaluator across events
instead of one built per event (its graph tables are shared either
way) and resyncs its numeric state from the bare assignment before
probing (:meth:`~repro.batch.MappingEvaluator.reassign`), which is
exactly the state a freshly constructed evaluator would hold.  The cold
tier keeps one heuristic object for the replanner's lifetime, so the
per-instance walk inputs (walk tables, H2's ranks and preference
orders, H3's tie groups) are built once per timeline and each cold
solve computes only its start row and bisection bound.
``Replanner(..., warm=False)`` is therefore the *cold re-solve*
reference: same tiers, every event recomputed from scratch (a fresh
heuristic object per cold solve), and the two are required (and tested)
to agree bit for bit on every event.

The replanner also keeps the two SLA measurements of the live subsystem:
per-event replan latency, and **availability** — the fraction of the
timeline during which a feasible mapping was deployed, integrated from
the event timestamps (never the wall clock, so it is deterministic).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..batch.incremental import MappingEvaluator
from ..core.instance import ProblemInstance
from ..exceptions import ExperimentError
from ..heuristics import get_heuristic
from ..obs.trace import span
from ..heuristics.base import solve_one
from ..heuristics.local_search import descend

__all__ = ["ReplanRecord", "Replanner"]

#: Bound on the up-set plan cache.  Eviction is insertion-ordered (FIFO),
#: i.e. a deterministic function of the event sequence — warm and cold
#: runs evict identically, preserving the bit-for-bit contract.
PLAN_CACHE_LIMIT = 1024


@dataclass(frozen=True, slots=True)
class ReplanRecord:
    """What one applied event did to the live state.

    ``via`` is the tier that produced the mapping (``cache`` / ``warm``
    / ``cold`` / ``infeasible``) for platform events, and ``serve`` /
    ``miss`` for request arrivals (served from the current mapping, or
    missed because the platform was unavailable).  ``latency_seconds``
    covers the replanning work only — availability integration and
    bookkeeping are excluded, requests are O(1) lookups.
    """

    seq: int
    time: float
    kind: str
    machine: int | None
    via: str
    feasible: bool
    mapping: tuple[int, ...] | None
    period: float | None
    up_count: int
    latency_seconds: float
    availability: float

    def to_dict(self) -> dict:
        """JSON-ready form (the session event response body)."""
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "machine": self.machine,
            "via": self.via,
            "feasible": self.feasible,
            "mapping": None if self.mapping is None else list(self.mapping),
            "period": self.period,
            "up_count": self.up_count,
            "replan_ms": round(self.latency_seconds * 1000.0, 6),
            "availability": self.availability,
        }


@dataclass(slots=True)
class ReplanCounters:
    """Tier counts of one replanner (mirrored into ``/v1/stats``)."""

    cache: int = 0
    warm: int = 0
    cold: int = 0
    infeasible: int = 0
    served: int = 0
    missed: int = 0

    def as_dict(self) -> dict:
        return {
            "cache": self.cache,
            "warm": self.warm,
            "cold": self.cold,
            "infeasible": self.infeasible,
            "served": self.served,
            "missed": self.missed,
        }


@dataclass(slots=True)
class _Clock:
    """Availability integral over the event timestamps."""

    now: float = 0.0
    available: float = 0.0
    unavailable: float = 0.0

    def advance(self, to: float, *, feasible: bool) -> None:
        if to < self.now:
            raise ExperimentError(
                f"events must carry non-decreasing times: got {to} after {self.now}"
            )
        if feasible:
            self.available += to - self.now
        else:
            self.unavailable += to - self.now
        self.now = to

    @property
    def availability(self) -> float:
        total = self.available + self.unavailable
        return 1.0 if total == 0.0 else self.available / total


class Replanner:
    """Live mapping state of one platform under failures and recoveries.

    Parameters
    ----------
    instance:
        The full-platform instance (all machines up).
    heuristic:
        Registered heuristic name used for the initial solve and every
        cold tier.  Randomized heuristics (H1) are rejected — a live
        session must be replayable, and the cold tier must be a pure
        function of the up-set.
    warm:
        Keep a persistent :class:`~repro.batch.MappingEvaluator` and one
        heuristic object (with its per-instance walk inputs) across
        events (the fast path).  ``False`` rebuilds all evaluator state
        and a fresh heuristic on every event — the *cold re-solve*
        reference the warm path must match bit for bit.

    Construction performs the initial solve (``seq`` 0, ``via="cold"``,
    time 0) through the cold tier, with every machine up.  A cold tier
    solves the full platform under the current up-mask.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        heuristic: str = "H4ls",
        *,
        warm: bool = True,
    ):
        resolved = get_heuristic(heuristic)
        if resolved.randomized:
            raise ExperimentError(
                f"live replanning requires a deterministic heuristic; "
                f"{resolved.name} is randomized"
            )
        self.instance = instance
        self.heuristic = resolved.name
        self.warm = bool(warm)
        self._solver = resolved
        self.counters = ReplanCounters()
        self._clock = _Clock()
        self._up = np.ones(instance.num_machines, dtype=bool)
        self._mapping: np.ndarray | None = None
        self._period: float | None = None
        self._plans: dict[bytes, np.ndarray] = {}
        self._evaluator: MappingEvaluator | None = None
        self._seq = 0
        self.initial = self._apply_platform_change(0.0, "initial", None)

    # -- state -------------------------------------------------------------------
    @property
    def events(self) -> int:
        """Events applied so far, the initial solve included."""
        return self._seq

    @property
    def up(self) -> np.ndarray:
        """Copy of the up-machine mask."""
        return self._up.copy()

    @property
    def up_count(self) -> int:
        """Number of machines currently up."""
        return int(self._up.sum())

    @property
    def feasible(self) -> bool:
        """Whether a mapping is currently deployed."""
        return self._mapping is not None

    @property
    def mapping(self) -> np.ndarray | None:
        """Copy of the deployed assignment, or ``None`` while unavailable."""
        return None if self._mapping is None else self._mapping.copy()

    @property
    def period(self) -> float | None:
        """Period of the deployed mapping, or ``None`` while unavailable."""
        return self._period

    @property
    def availability(self) -> float:
        """Fraction of the elapsed timeline with a feasible mapping."""
        return self._clock.availability

    @property
    def clock(self) -> float:
        """Timestamp of the last applied event."""
        return self._clock.now

    @property
    def available_seconds(self) -> float:
        """Timeline mass spent with a feasible mapping deployed."""
        return self._clock.available

    @property
    def unavailable_seconds(self) -> float:
        """Timeline mass spent without a feasible mapping."""
        return self._clock.unavailable

    # -- event application -------------------------------------------------------
    def apply(self, event_time: float, kind: str, machine: int | None = None) -> ReplanRecord:
        """Apply one timeline event and return what happened.

        ``fail`` / ``recover`` flip one machine and replan through the
        tier cascade; ``request`` observes the current state (serving it
        or missing).  Events must arrive in non-decreasing time order;
        redundant transitions (failing a down machine, recovering an up
        one) are rejected — they indicate a desynchronized caller.
        """
        self._clock.advance(float(event_time), feasible=self.feasible)
        if kind == "request":
            if machine is not None:
                raise ExperimentError("'request' events take no machine index")
            return self._observe(float(event_time))
        if kind not in ("fail", "recover"):
            raise ExperimentError(
                f"unknown event kind {kind!r}; expected 'fail', 'recover' or 'request'"
            )
        if machine is None or not 0 <= int(machine) < self.instance.num_machines:
            raise ExperimentError(
                f"event machine must be in 0..{self.instance.num_machines - 1}, "
                f"got {machine!r}"
            )
        machine = int(machine)
        going_down = kind == "fail"
        if self._up[machine] != going_down:
            raise ExperimentError(
                f"machine {machine} is already {'down' if going_down else 'up'}"
            )
        self._up[machine] = not going_down
        return self._apply_platform_change(float(event_time), kind, machine)

    def finish(self, horizon: float) -> float:
        """Close the availability integral at ``horizon``; returns it."""
        self._clock.advance(float(horizon), feasible=self.feasible)
        return self.availability

    # -- tiers -------------------------------------------------------------------
    def _apply_platform_change(
        self, event_time: float, kind: str, machine: int | None
    ) -> ReplanRecord:
        start = time.perf_counter()
        with span(
            "replan", kind=kind, machine=machine, heuristic=self.heuristic
        ) as replan_span:
            via = self._replan()
            replan_span.set(via=via)
        latency = time.perf_counter() - start
        setattr(self.counters, via, getattr(self.counters, via) + 1)
        return self._record(event_time, kind, machine, via, self._period, latency)

    def _replan(self) -> str:
        key = self._up.tobytes()
        if self.up_count < self.instance.num_types:
            self._mapping = None
            self._period = None
            return "infeasible"
        cached = self._plans.get(key)
        if cached is not None:
            self._mapping = cached.copy()
            self._period = self._evaluator_for(self._mapping).period
            return "cache"
        if self._mapping is not None and bool(self._up[self._mapping].all()):
            evaluator = self._evaluator_for(self._mapping)
            descend(evaluator, up=self._up)
            self._period = evaluator.period
            self._mapping = evaluator.assignment
            via = "warm"
        else:
            self._mapping, self._period = self._cold_solve()
            via = "cold"
        if len(self._plans) >= PLAN_CACHE_LIMIT:
            self._plans.pop(next(iter(self._plans)))
        self._plans[key] = self._mapping.copy()
        return via

    def _evaluator_for(self, mapping: np.ndarray) -> MappingEvaluator:
        """An evaluator in exactly the numeric state of a fresh one.

        The persistent evaluator resyncs through
        :meth:`~repro.batch.MappingEvaluator.reassign` (assignment swap +
        full refresh), so its ``x`` / contributions / periods are bit for
        bit what ``MappingEvaluator(instance, mapping)`` would compute —
        the warm path only skips building an evaluator, never drifts.
        """
        if not self.warm:
            return MappingEvaluator(self.instance, mapping)
        if self._evaluator is None:
            self._evaluator = MappingEvaluator(self.instance, mapping)
        else:
            self._evaluator.reassign(mapping)
        return self._evaluator

    def _cold_solve(self) -> tuple[np.ndarray, float]:
        """From-scratch heuristic solve of the full platform under the up-mask."""
        solver = self._solver if self.warm else get_heuristic(self.heuristic)
        assignment = solve_one(solver, self.instance, up=self._up)
        evaluator = self._evaluator_for(assignment)
        return assignment, evaluator.period

    # -- observation -------------------------------------------------------------
    def _observe(self, event_time: float) -> ReplanRecord:
        if self.feasible:
            self.counters.served += 1
            via = "serve"
        else:
            self.counters.missed += 1
            via = "miss"
        return self._record(event_time, "request", None, via, self._period, 0.0)

    def _record(
        self,
        event_time: float,
        kind: str,
        machine: int | None,
        via: str,
        period: float | None,
        latency: float,
    ) -> ReplanRecord:
        record = ReplanRecord(
            seq=self._seq,
            time=event_time,
            kind=kind,
            machine=machine,
            via=via,
            feasible=self.feasible,
            mapping=None if self._mapping is None else tuple(self._mapping.tolist()),
            period=None if period is None else float(period),
            up_count=self.up_count,
            latency_seconds=latency,
            availability=self.availability,
        )
        self._seq += 1
        return record
