"""Multi-process solve-worker pool behind the micro-batcher.

The micro-batcher's solves are pure CPU work — NumPy kernels plus
Python dispatch — so on the default asyncio thread executor they run
GIL-bound: one pathological request (a huge instance, a slow fallback
loop) stalls every other group, and total throughput is capped at one
core no matter how many requests arrive.  :class:`SolveWorkerPool`
moves the solve calls onto a :class:`concurrent.futures.ProcessPoolExecutor`
so groups of different signatures solve truly in parallel and the event
loop only ever waits, never computes.

The seam is deliberately narrow: :func:`solve_group` is the *entire*
unit of work shipped to a worker — a tuple of
:class:`~repro.service.requests.SolveRequest` (plain frozen dataclasses,
cheap to pickle) in, a list of JSON-ready response dicts out.  Workers
hold no service state, so responses are **bit-for-bit identical** to
in-process solves (the equivalence tests run the same groups through
both executors), and a crashed worker surfaces as an exception on the
group's futures instead of a wedged loop.

``--workers 0`` (the default) skips the pool entirely and keeps the
PR 5 in-process thread-executor behaviour.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, wait

from ..batch import InstanceStack
from ..heuristics.base import solve_stack, solves_in_batch
from ..obs import trace
from ..obs.instrument import timed_kernels
from .requests import SolveRequest, build_response

__all__ = ["solve_group", "solve_group_traced", "SolveWorkerPool"]


def solve_group(requests: tuple[SolveRequest, ...]) -> tuple[list[dict], bool]:
    """Solve one flushed group; ``(responses, batched)``.

    Pure — touches no batcher or service state — which is what lets the
    same function run on the in-process thread executor and inside pool
    workers interchangeably.  Group members share a batching signature,
    so their instances stack; :func:`~repro.heuristics.base.solve_stack`
    picks the lock-step kernel or the per-instance loop, and ``batched``
    reports its choice.
    """
    heuristic = requests[0].resolve_heuristic()
    instances = [request.sample() for request in requests]
    batched = solves_in_batch(heuristic, len(instances))
    assignments = solve_stack(
        heuristic,
        instances,
        lambda row: requests[row].rng() if heuristic.randomized else None,
    )
    stack = InstanceStack.from_instances(instances, require_uniform_types=False)
    periods = stack.periods(assignments)
    responses = [
        build_response(request, assignments[row], periods[row], batched=batched)
        for row, request in enumerate(requests)
    ]
    return responses, batched


def solve_group_traced(
    requests: tuple[SolveRequest, ...],
    context: trace.TraceContext | None,
) -> tuple[list[dict], bool, list[dict]]:
    """:func:`solve_group` plus span capture; ``(responses, batched, spans)``.

    The traced twin the batcher ships when tracing is on: the caller's
    :class:`~repro.obs.trace.TraceContext` rides along in the picklable
    payload, the solve runs under a worker-local capture buffer (a
    worker process must not append to the parent's trace file), and the
    buffered spans — the worker-side solve span plus aggregated
    per-kernel timings — come back with the result for the parent to
    emit.  The solve itself is byte-for-byte :func:`solve_group`, so
    responses stay identical to the untraced path.
    """
    with trace.capture() as spans:
        with trace.activate(context):
            with trace.span(
                "pool.worker_solve",
                pid=os.getpid(),
                requests=len(requests),
                heuristic=requests[0].heuristic,
            ) as solve_span:
                with timed_kernels():
                    responses, batched = solve_group(requests)
                solve_span.set(batched=batched)
    return responses, batched, spans


def _worker_ready() -> int:
    """Warm-up probe; also what :meth:`SolveWorkerPool.worker_pids` collects."""
    return os.getpid()


class SolveWorkerPool:
    """A warmed ``ProcessPoolExecutor`` sized for the solve service.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1; ``0`` is the caller's cue to
        not build a pool at all).

    The pool is warmed eagerly at construction — one probe per worker —
    so every process is forked/spawned *before* the service starts its
    event loop and helper threads, and the first real request never pays
    worker start-up latency.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"a worker pool needs >= 1 workers, got {workers}")
        self.workers = int(workers)
        self.executor = ProcessPoolExecutor(max_workers=self.workers)
        # Each submit spawns a new worker while the pool is below
        # max_workers, so `workers` probes start every process.
        wait([self.executor.submit(_worker_ready) for _ in range(self.workers)])

    def worker_pids(self) -> set[int]:
        """PIDs of the spawned worker processes (diagnostics, tests).

        Read from the executor's process table rather than by probing —
        a probe round is racy (one idle worker can answer every probe).
        """
        return set(self.executor._processes)

    def shutdown(self) -> None:
        """Stop the workers; queued work is cancelled, running work finishes."""
        self.executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SolveWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
