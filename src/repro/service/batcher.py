"""Micro-batching solve scheduler: coalesce concurrent requests.

The solve service's hot path.  Solving one request costs a fixed
Python/NumPy dispatch overhead that :func:`~repro.heuristics.base.solve_stack`
amortizes across a whole stack — exactly how the experiment engine
amortizes a block's ``R`` repetitions.  Under concurrent load the
batcher recreates that shape from independent requests:

1. :meth:`MicroBatcher.submit` first consults the solve cache, then the
   in-flight table (an identical request already being solved joins its
   group instead of re-solving — *coalescing*); a genuinely new request
   then passes **admission control**: when ``max_pending`` unresolved
   requests are already queued or solving, the request is shed with
   :class:`~repro.exceptions.ServiceOverloadedError` instead of joining
   an unbounded backlog (the HTTP layer answers 429 + ``Retry-After``);
2. an admitted request is appended to the pending group of its
   structural :attr:`~repro.service.requests.SolveRequest.signature`
   (heuristic, task count, platform size — what must match for
   instances to stack); a group holding ``max_batch`` requests takes no
   more, and the next request of its signature opens a new group queued
   behind it;
3. groups are **flushed by load, not by clock**: a new group flushes on
   the next event-loop tick when a solve slot is free (so requests
   submitted in the same tick still stack), and while every slot is
   taken new arrivals collect in their signature's pending group; each
   finished solve flushes the oldest pending group.  There are
   ``workers + 1`` slots: the extra one keeps a group queued behind each
   running solve, so a worker never idles on an event-loop round trip.
   Batches therefore form exactly when the solver is the bottleneck,
   and an idle service answers without waiting for company that never
   comes (the adaptive batching of Clipper, Crankshaw et al., NSDI 2017);
4. a flushed group goes through ``solve_stack``, which solves it in one
   lock-step ``solve_batch`` call when the heuristic has a batch kernel
   and the group is deep enough, and per instance otherwise (shallow
   groups, kernel-less heuristics such as H1); either way it is scored
   in one vectorized :class:`~repro.batch.InstanceStack` pass.
   **Responses are bit-for-bit identical either way** — batching is a
   scheduling choice, never a semantic one.

Solves run off the event loop: on the asyncio thread executor by
default, or — when a :class:`~repro.workers.WorkerPool` is attached —
in worker *processes*, so batch solves escape the GIL and one
pathological request cannot stall the loop or other groups.  A pooled
solve is one frame written to the least-loaded worker's pipe and one
reply read back by an ``add_reader`` callback on the loop itself: a
cache miss crosses no executor, feeder or reader thread.  A worker that
dies shows up as EOF on its pipe and fails its groups with
:class:`~concurrent.futures.process.BrokenProcessPool`.  The solve
itself is :func:`~repro.service.requests.solve_group` through
:func:`~repro.workers.run_traced` on both paths, which is what keeps the
responses identical.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from ..exceptions import ServiceOverloadedError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import (
    TraceContext,
    activate,
    current_context,
    emit_spans,
    span,
    tracing_active,
)
from ..workers import WorkerPool, run_traced
from .cache import SolveCache
from .requests import SolveRequest, solve_group

__all__ = ["MicroBatcher", "DEFAULT_MAX_BATCH"]

#: A group reaching this depth takes no more members.
DEFAULT_MAX_BATCH = 64


@dataclass(slots=True)
class _Group:
    """The requests of one structural signature that share a solve."""

    signature: tuple
    requests: list[SolveRequest] = field(default_factory=list)
    futures: dict[str, asyncio.Future] = field(default_factory=dict)
    #: Trace context of the first submitter (tracing only): the group
    #: span — and everything under it — joins *that* request's trace,
    #: which is how coalesced/batched members are attributed to the one
    #: group solve that served them.
    context: TraceContext | None = None
    #: ``perf_counter`` at group creation; the flushed group's wait for
    #: a solve slot (tracing only).
    created: float = 0.0


class MicroBatcher:
    """Load-driven request coalescing in front of ``solve_stack``.

    Parameters
    ----------
    max_batch:
        Most requests one group holds (``1`` solves every request on its
        own, through the per-instance loop).
    cache:
        Optional :class:`~repro.service.cache.SolveCache` consulted
        before grouping and written through after solving.
    pool:
        Optional :class:`~repro.workers.WorkerPool`; group
        solves then run in worker processes instead of on the asyncio
        thread executor.  Responses are identical on both executors.
        The batcher keeps ``pool.workers + 1`` groups solving at once
        (``2`` on the thread executor); later groups wait for a slot.
    max_pending:
        Admission-control bound: the maximum number of admitted,
        unresolved requests (queued or mid-solve, coalesced duplicates
        counted once).  A new request beyond it is shed with
        :class:`~repro.exceptions.ServiceOverloadedError`; cache hits
        and coalesced joins are always admitted (they consume no solve
        capacity).  ``None`` disables shedding.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` holding the
        batcher's counters (a private one when ``None``).
    """

    def __init__(
        self,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        cache: SolveCache | None = None,
        pool: WorkerPool | None = None,
        max_pending: int | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_batch = int(max_batch)
        self.cache = cache
        self.pool = pool
        self.max_pending = max_pending
        registry = registry if registry is not None else MetricsRegistry()
        self._requests = registry.counter(
            "repro_batcher_requests_total", "Requests submitted to the micro-batcher."
        )
        self._flushes = registry.counter(
            "repro_batcher_flushes_total", "Groups flushed to a solve."
        )
        solved = registry.counter(
            "repro_batcher_solved_requests_total",
            "Requests solved per execution path.",
            labels=("path",),
        )
        # Both paths are bound up front, so an idle scrape shows them at 0.
        self._batched = solved.labels(path="batched")
        self._fallback = solved.labels(path="fallback")
        self._coalesced = registry.counter(
            "repro_batcher_coalesced_total",
            "Requests that joined an identical in-flight solve.",
        )
        self._shed = registry.counter(
            "repro_batcher_shed_total",
            "Requests shed by admission control (solve queue full).",
        )
        self._max_group = registry.gauge(
            "repro_batcher_max_group", "Largest group flushed so far."
        )
        self._solve_seconds = registry.counter(
            "repro_batcher_solve_seconds_total",
            "Wall-clock seconds spent in group solves.",
        )
        #: Groups solving at once: one per worker plus one queued behind
        #: them, whose frame already waits in a worker's pipe.
        self.slots = (pool.workers if pool is not None else 1) + 1
        self._busy = 0
        #: signature -> the group still taking members (not yet full).
        self._open: dict[tuple, _Group] = {}
        #: Groups waiting for a solve slot, oldest first.
        self._queue: deque[_Group] = deque()
        #: request key -> unresolved future, covering both pending groups
        #: and groups whose solve is already running on the executor; an
        #: identical request joins it instead of re-solving.  Its size is
        #: also the admission-control pending count.
        self._inflight: dict[str, asyncio.Future] = {}
        #: Strong references to the in-flight solver tasks.  The event
        #: loop only keeps weak references to tasks, so without this set
        #: a flushed group's task could be garbage-collected mid-flight,
        #: silently dropping the whole group (CPython asyncio pitfall).
        self._tasks: set[asyncio.Task] = set()

    async def submit(self, request: SolveRequest) -> dict:
        """Resolve one request: cache, coalesce, or admit and await.

        Returns the JSON-ready response body with a ``"cached"`` field
        (``False``, ``"memory"`` or ``"store"``).  Raises
        :class:`~repro.exceptions.ServiceOverloadedError` when the
        request would exceed ``max_pending`` (nothing was enqueued).
        """
        self._requests.inc()
        if self.cache is not None:
            with span("cache.lookup", key=request.key) as lookup_span:
                response, tier = await self._cache_get(request.key)
                lookup_span.set(tier=tier or "miss")
            if response is not None:
                return dict(response, cached=tier)
        inflight = self._inflight.get(request.key)
        if inflight is not None:
            # Identical request already pending or mid-solve: one solve
            # serves both.
            self._coalesced.inc()
            with span("batcher.wait", key=request.key, coalesced=True):
                return dict(await asyncio.shield(inflight), cached=False)
        if self.max_pending is not None and len(self._inflight) >= self.max_pending:
            self._shed.inc()
            raise ServiceOverloadedError(
                f"solve queue is full ({self.max_pending} pending request(s)); "
                "retry later"
            )
        future = self._enqueue(request)
        with span("batcher.wait", key=request.key, coalesced=False):
            return dict(await asyncio.shield(future), cached=False)

    async def _cache_get(self, key: str) -> tuple[dict | None, str | None]:
        """Cache lookup; the persistent tier's file I/O stays off the loop.

        After the executor hop the in-flight table may have gained this
        key — :meth:`submit` re-checks it before enqueueing, so a miss
        here can still coalesce instead of re-solving.
        """
        if self.cache.store is None:
            return self.cache.get(key)
        return await asyncio.get_running_loop().run_in_executor(
            None, self.cache.get, key
        )

    def _enqueue(self, request: SolveRequest) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        group = self._open.get(request.signature)
        if group is None:
            group = _Group(request.signature)
            if tracing_active():
                # The group's trace is the first submitter's: later
                # members and coalesced joiners are attributed through
                # the group span's request_keys attribute.
                group.context = current_context()
                group.created = time.perf_counter()
            self._open[request.signature] = group
            self._queue.append(group)
            if self._busy < self.slots:
                # Next tick, not now: requests submitted in this tick
                # still join the group.
                loop.call_soon(self._dispatch)
        future = loop.create_future()
        group.requests.append(request)
        group.futures[request.key] = future
        self._inflight[request.key] = future
        if len(group.requests) >= self.max_batch:
            del self._open[request.signature]
        return future

    def _dispatch(self) -> None:
        """Flush the oldest pending groups into the free solve slots."""
        while self._queue and self._busy < self.slots:
            self._flush(self._queue.popleft())

    def _flush(self, group: _Group) -> None:
        """Close a group and hand it to a solver task."""
        if self._open.get(group.signature) is group:
            del self._open[group.signature]
        self._busy += 1
        self._flushes.inc()
        self._max_group.max(len(group.requests))
        task = asyncio.get_running_loop().create_task(self._solve_group(group))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _solve(
        self, requests: tuple[SolveRequest, ...]
    ) -> tuple[list[dict], bool]:
        """One flushed group's solve, off the event loop.

        :func:`~repro.service.requests.solve_group` runs through
        :func:`~repro.workers.run_traced` either way.  With a pool it is
        one frame on a worker's pipe (:meth:`WorkerPool.run
        <repro.workers.WorkerPool.run>`), awaited on a loop future that
        the pipe's ``add_reader`` callback resolves, so no thread sits
        between the loop and the worker; without one it runs on the
        asyncio thread executor.  With tracing active the current
        context crosses the boundary in the payload and the worker-side
        spans come back with the result.  Tests gate or fake the solve
        by patching this one attribute.
        """
        with span("pool.roundtrip", pooled=self.pool is not None):
            call = partial(
                run_traced,
                solve_group,
                (requests,),
                current_context(),
                "pool.worker_solve",
                requests=len(requests),
                heuristic=requests[0].heuristic,
            )
            if self.pool is not None:
                result, worker_spans = await self.pool.run(call)
            else:
                loop = asyncio.get_running_loop()
                result, worker_spans = await loop.run_in_executor(None, call)
        emit_spans(worker_spans)
        return result

    async def _solve_group(self, group: _Group) -> None:
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        with activate(group.context), span(
            "batcher.group",
            requests=len(group.requests),
            heuristic=group.requests[0].heuristic,
            request_keys=",".join(group.futures),
            queue_wait_ms=round((start - group.created) * 1000.0, 3)
            if group.created
            else 0.0,
        ) as group_span:
            try:
                responses, batched = await self._solve(tuple(group.requests))
            except BaseException as exc:  # noqa: BLE001 - fan the failure out
                group_span.set(failed=type(exc).__name__)
                for key, future in group.futures.items():
                    self._release(key, future)
                    if future.done():
                        # A waiter cancelled by its disconnecting client:
                        # nothing to deliver, and set_exception would raise.
                        continue
                    future.set_exception(exc)
                    # Mark the exception retrieved immediately: a waiter that
                    # disconnected *after* enqueueing (shielded future, not
                    # cancelled) never awaits it, and every such future would
                    # otherwise log "exception was never retrieved" at GC.
                    # Waiters that are still listening re-raise on await
                    # regardless.
                    future.exception()
                return
            finally:
                self._solve_seconds.inc(time.perf_counter() - start)
                # The slot is free: the oldest pending group takes it.
                self._busy -= 1
                self._dispatch()
            (self._batched if batched else self._fallback).inc(len(group.requests))
            group_span.set(batched=batched)
            if self.cache is not None:
                # Before resolving the futures, so a submitter that saw its
                # response can rely on the cache already holding it; the
                # persistent tier's appends stay off the loop.
                pairs = [
                    (request.key, response)
                    for request, response in zip(group.requests, responses)
                ]
                with span("cache.write", responses=len(pairs)) as write_span:
                    try:
                        if self.cache.store is None:
                            self._persist(pairs)
                        else:
                            await loop.run_in_executor(None, self._persist, pairs)
                    except Exception as exc:  # noqa: BLE001 - answer regardless
                        # A failed write (a full disk under --cache-dir)
                        # costs the cache entry, never the answer.
                        write_span.set(failed=type(exc).__name__)
            for request, response in zip(group.requests, responses):
                future = group.futures[request.key]
                self._release(request.key, future)
                if not future.done():
                    future.set_result(response)

    def stats_payload(self) -> dict:
        """The ``batcher`` section of ``/v1/stats``."""
        return {
            "requests": self._requests.value,
            "flushes": self._flushes.value,
            "batched_requests": self._batched.value,
            "fallback_requests": self._fallback.value,
            "coalesced": self._coalesced.value,
            "shed": self._shed.value,
            "max_group": self._max_group.value,
            "solve_seconds": round(self._solve_seconds.value, 6),
        }

    def _release(self, key: str, future: asyncio.Future) -> None:
        """Drop an in-flight entry (only if it is still *this* future)."""
        if self._inflight.get(key) is future:
            del self._inflight[key]

    def _persist(self, pairs: list[tuple[str, dict]]) -> None:
        for key, response in pairs:
            self.cache.put(key, response)

    def _flush_all(self) -> None:
        """Flush every pending group now, free slot or not."""
        groups = list(self._queue)
        self._queue.clear()
        for group in groups:
            self._flush(group)

    async def aclose(self) -> None:
        """Flush every pending group and wait for all in-flight solves.

        The shutdown path (:meth:`SolveService.stop
        <repro.service.server.SolveService.stop>` calls this): groups
        still waiting for a solve slot are flushed immediately, and the
        coroutine returns only once every solver task has finished —
        in-flight work is drained, never dropped.  Solver failures were
        already fanned out to the request futures, so they are not
        re-raised here.
        """
        self._flush_all()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
