"""The one worker seam: a warmed process pool and one traced call.

Two parts of the system spread independent solves over worker
processes: the solve service (``serve --workers N``) ships each flushed
request group to a worker, and the block executor behind ``run``,
``dag run`` and ``shard run --workers N`` ships one figure block per
job.  Both go through this module:

* :class:`WorkerPool` is the ``ProcessPoolExecutor`` they run on,
  warmed at construction so no job pays worker start-up, with a
  :attr:`~WorkerPool.broken` flag once a worker died under it;
* :func:`run_traced` is the one call that crosses the thread/process
  boundary: it runs ``fn(*args)`` and, when the caller passed its
  :class:`~repro.obs.trace.TraceContext`, re-enters that context under a
  capture buffer (a worker must not append to the parent's trace file),
  times the call as one span plus per-kernel timings, and returns the
  buffered spans with the result for the caller to
  :func:`~repro.obs.trace.emit_spans`.

Workers hold no caller state, so a result is the same whichever side of
the boundary computed it; tracing only adds the spans.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, wait

from .obs import trace
from .obs.instrument import timed_kernels

__all__ = ["WorkerPool", "run_traced"]


def run_traced(fn, args, context, span_name: str, **attrs):
    """``fn(*args)`` and the spans it made: ``(result, spans)``.

    With ``context`` of ``None`` (tracing off at the caller) this is
    the bare call and ``spans`` is empty.  Otherwise the call runs under
    a span named ``span_name`` (attributes ``attrs`` plus the pid),
    parented at ``context``, with the active backend's kernels timed
    inside it; every span it produced is buffered and returned rather
    than written, so the caller emits them into its own trace.  The
    result is byte-for-byte the untraced call's.
    """
    if context is None:
        return fn(*args), []
    with trace.capture() as spans, trace.activate(context):
        with trace.span(span_name, pid=os.getpid(), **attrs), timed_kernels():
            result = fn(*args)
    return result, spans


def _worker_ready() -> int:
    """Warm-up probe: one per worker at construction."""
    return os.getpid()


class WorkerPool:
    """A warmed ``ProcessPoolExecutor`` of ``workers`` processes.

    The pool is warmed eagerly at construction — one probe per worker —
    so every process is forked/spawned before the caller starts its
    event loop or helper threads, and the first real job never pays
    worker start-up latency.  ``workers`` must be at least 1; callers
    that run in-process build no pool at all.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"a worker pool needs >= 1 workers, got {workers}")
        self.workers = int(workers)
        self.executor = ProcessPoolExecutor(max_workers=self.workers)
        # Each submit spawns a new worker while the pool is below
        # max_workers, so `workers` probes start every process.
        wait([self.executor.submit(_worker_ready) for _ in range(self.workers)])

    @property
    def broken(self) -> bool:
        """Whether a worker died abruptly: every later submit fails.

        The executor marks itself broken as soon as it notices a worker
        process gone (killed, crashed), before it fails the jobs that
        were in flight.
        """
        return bool(self.executor._broken)

    def worker_pids(self) -> set[int]:
        """PIDs of the spawned worker processes (diagnostics, tests).

        Read from the executor's process table rather than by probing —
        a probe round is racy (one idle worker can answer every probe).
        """
        return set(self.executor._processes)

    def shutdown(self) -> None:
        """Stop the workers; queued work is cancelled, running work finishes."""
        self.executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
