"""The one worker seam: forked solve workers on pipes, and one traced call.

Two parts of the system spread independent solves over worker
processes: the solve service (``serve --workers N``) ships each flushed
request group to a worker, and the block executor behind ``run``,
``dag run`` and ``shard run --workers N`` ships one sweep point per
job.  Both go through this module:

* :class:`WorkerPool` owns ``workers`` forked processes, one duplex
  pipe each.  A job is one pickled ``(fn, args)`` frame; the worker
  calls it and writes back one reply frame, so replies come back in the
  order their frames went out (FIFO per worker).  The event loop reads
  replies with ``add_reader`` (:meth:`WorkerPool.run`); a synchronous
  caller drives the same pipes with
  :func:`multiprocessing.connection.wait` (:meth:`WorkerPool.submit` and
  :meth:`WorkerPool.wait_any`).  No helper thread sits between the
  caller and a worker.  EOF on a worker's pipe means that worker died:
  its in-flight jobs, and every later one, fail with
  :class:`~concurrent.futures.process.BrokenProcessPool`, and
  :attr:`WorkerPool.broken` turns true;
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

import multiprocessing
import os
import pickle
import signal
import socket
import struct
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing.connection import wait as wait_readable
from typing import TYPE_CHECKING

from .obs import trace
from .obs.instrument import timed_kernels

if TYPE_CHECKING:
    import asyncio

__all__ = ["WorkerPool", "run_traced"]

#: The message a job of a dead worker fails with (the standard library's).
BROKEN_MESSAGE = (
    "A process in the process pool was terminated abruptly while the "
    "future was running or pending."
)

#: Parent-side pipe ends of every live pool in this process.  A forked
#: worker closes all of them first: a worker holding another worker's
#: parent end would keep that pipe open, and its worker would never see
#: EOF when the pool shuts down.
_PARENT_ENDS: set = set()


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


def _worker_main(conn) -> None:
    """A worker's loop: read a frame, call it, reply; exit on EOF.

    SIGINT is ignored (a terminal's Ctrl-C reaches the whole process
    group; the parent shuts its workers down by closing their pipes).
    A job that raises replies with its exception.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in _PARENT_ENDS:
        end.close()
    while True:
        try:
            frame = conn.recv_bytes()
        except EOFError:
            return
        try:
            fn, args = pickle.loads(frame)
            reply = pickle.dumps((True, fn(*args)), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the caller re-raises it
            try:
                reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            except Exception:  # noqa: BLE001 - an unpicklable exception
                reply = pickle.dumps((False, RuntimeError(repr(exc))))
        try:
            conn.send_bytes(reply)
        except OSError:  # the parent closed the pipe mid-job
            return


class _Worker:
    """One worker process and the parent's side of its pipe."""

    __slots__ = ("process", "conn", "sock", "pending", "outbox")

    def __init__(self, process, conn):
        self.process = process
        #: Replies are read through the :class:`~multiprocessing.connection.Connection`.
        self.conn = conn
        #: Frames are written through a socket on the same pipe, whose
        #: ``MSG_DONTWAIT`` sends never block the caller.
        self.sock: socket.socket | None = None
        #: Futures of the frames sent and not yet answered, oldest first.
        self.pending: deque = deque()
        #: Frame bytes the pipe has not taken yet (see ``WorkerPool._write``).
        self.outbox = bytearray()


class WorkerPool:
    """``workers`` forked worker processes, each on its own duplex pipe.

    The pool is warmed at construction (one probe per worker), so every
    process is forked before the caller starts its event loop or helper
    threads, and the first real job never pays worker start-up.  A job
    goes to the worker with the fewest unanswered frames.  ``workers``
    must be at least 1; callers that run in-process build no pool at all.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"a worker pool needs >= 1 workers, got {workers}")
        self.workers = int(workers)
        self._broken = False
        self._loop: asyncio.AbstractEventLoop | None = None
        context = multiprocessing.get_context("fork")
        self._workers: list[_Worker] = []
        for _ in range(self.workers):
            parent_end, child_end = context.Pipe(duplex=True)
            _PARENT_ENDS.add(parent_end)
            process = context.Process(target=_worker_main, args=(child_end,), daemon=True)
            process.start()
            child_end.close()
            self._workers.append(_Worker(process, parent_end))
        # After every fork, so no worker inherits another's send socket.
        for worker in self._workers:
            worker.sock = socket.socket(fileno=os.dup(worker.conn.fileno()))
            _PARENT_ENDS.add(worker.sock)
        for probe in [self.submit(_worker_ready) for _ in self._workers]:
            self.wait_any([probe])
            probe.result()

    @property
    def broken(self) -> bool:
        """Whether a worker died (EOF on its pipe): every later job fails."""
        return self._broken

    def worker_pids(self) -> set[int]:
        """PIDs of the forked worker processes (diagnostics, tests)."""
        return {worker.process.pid for worker in self._workers}

    # -- jobs ---------------------------------------------------------------------
    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Send ``fn(*args, **kwargs)`` to a worker; its future resolves in :meth:`wait_any`."""
        future = Future()
        self._send(future, fn, args, kwargs)
        return future

    def wait_any(self, futures) -> set[Future]:
        """Block until one of ``futures`` (from :meth:`submit`) is done; the done ones."""
        futures = list(futures)
        while True:
            done = {future for future in futures if future.done()}
            if done:
                return done
            busy = {worker.conn: worker for worker in self._workers if worker.pending}
            for conn in wait_readable(list(busy)):
                self._read(busy[conn])

    def call(self, fn, /, *args, **kwargs):
        """``fn(*args, **kwargs)`` in a worker, blocking for its result."""
        future = self.submit(fn, *args, **kwargs)
        self.wait_any([future])
        return future.result()

    async def run(self, fn, /, *args, **kwargs):
        """``fn(*args, **kwargs)`` in a worker, awaited on the running loop.

        The reply is read by an ``add_reader`` callback on the worker's
        pipe, which resolves a loop future: no thread hop on either way.
        """
        # Imported here: the block executor never needs asyncio (nor the
        # ssl module it loads), and every caller of run() has it already.
        import asyncio

        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._attach(loop)
        future = loop.create_future()
        self._send(future, fn, args, kwargs)
        return await future

    # -- pipes --------------------------------------------------------------------
    def _send(self, future, fn, args, kwargs) -> None:
        if self._broken:
            future.set_exception(BrokenProcessPool(BROKEN_MESSAGE))
            return
        if kwargs:
            fn = partial(fn, **kwargs)
        worker = min(self._workers, key=lambda w: len(w.pending))
        try:
            body = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - an unpicklable job fails alone
            future.set_exception(exc)
            return
        # The frame format of Connection.send_bytes: a 4-byte length, the body.
        frame = struct.pack("!i", len(body)) + body
        worker.pending.append(future)
        if self._loop is not None:
            self._write(worker, frame)
            return
        try:
            worker.sock.sendall(frame)
        except OSError:
            self._lose(worker)

    def _write(self, worker: _Worker, frame: bytes = b"") -> None:
        """Queue ``frame`` and write what the pipe takes now, never blocking.

        Bytes the pipe cannot take yet are written by this same method as
        the worker socket's ``add_writer`` callback.
        """
        worker.outbox += frame
        try:
            del worker.outbox[: worker.sock.send(worker.outbox, socket.MSG_DONTWAIT)]
        except BlockingIOError:
            pass
        except OSError:
            self._lose(worker)
            return
        if worker.outbox:
            self._loop.add_writer(worker.sock, self._write, worker)
        else:
            self._loop.remove_writer(worker.sock)

    def _read(self, worker: _Worker) -> None:
        """Read one reply and resolve the oldest pending future (FIFO)."""
        try:
            data = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._lose(worker)
            return
        future = worker.pending.popleft()
        if future.done():  # an awaiting task was cancelled
            return
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - e.g. an unloadable exception
            ok, value = False, exc
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _lose(self, worker: _Worker) -> None:
        """EOF on a worker's pipe: fail its jobs and break the pool."""
        self._broken = True
        self._unwatch(worker)
        self._close(worker)
        while worker.pending:
            future = worker.pending.popleft()
            if not future.done():
                future.set_exception(BrokenProcessPool(BROKEN_MESSAGE))

    def _attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Read every live worker's replies on ``loop`` from now on."""
        self._detach()
        self._loop = loop
        for worker in self._workers:
            if not worker.conn.closed:
                loop.add_reader(worker.conn.fileno(), self._read, worker)

    def _detach(self) -> None:
        for worker in self._workers:
            self._unwatch(worker)
        self._loop = None

    def _unwatch(self, worker: _Worker) -> None:
        """Drop the loop's reader and writer callbacks on a worker's pipe."""
        if self._loop is not None and not self._loop.is_closed() and not worker.conn.closed:
            self._loop.remove_reader(worker.conn.fileno())
            self._loop.remove_writer(worker.sock)

    def shutdown(self) -> None:
        """Stop the workers: close every pipe, then wait for each to exit.

        A running job finishes (its reply is dropped); a job not yet
        answered is cancelled.
        """
        self._detach()
        for worker in self._workers:
            self._close(worker)
            while worker.pending:
                worker.pending.popleft().cancel()
        for worker in self._workers:
            worker.process.join()

    @staticmethod
    def _close(worker: _Worker) -> None:
        """Close the parent's ends of a worker's pipe: the worker reads EOF."""
        worker.outbox.clear()
        for end in (worker.sock, worker.conn):
            _PARENT_ENDS.discard(end)
            end.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
