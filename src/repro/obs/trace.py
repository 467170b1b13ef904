"""Lightweight span tracing across tasks, threads and worker processes.

A *span* is one timed operation: ``{trace_id, span_id, parent_id, name,
start, duration, ...attrs}``.  Spans form a tree per trace — an HTTP
request's root span parents the batcher group span, which parents the
pool round-trip, which parents the worker-side solve span — and the
whole tree shares one ``trace_id`` even though its spans were produced
on the event loop, on executor threads and inside pool worker
processes.

Propagation model
-----------------
* **Within a process**, the current :class:`TraceContext` lives in a
  :mod:`contextvars` variable: ``async`` tasks inherit it at creation,
  and :func:`span` stacks child contexts automatically.
* **Across executor threads** (``run_in_executor`` does *not* copy
  context) and **across the process boundary**, the caller passes the
  picklable :class:`TraceContext` explicitly and the callee re-enters
  it with :func:`activate` — :func:`repro.workers.run_traced` is the
  one place that does, for the service's group solves and the block
  executor's jobs alike.
* **Out of worker processes**: a worker cannot append to the parent's
  trace file, so it records spans into an in-memory buffer
  (:func:`capture`) and returns them with its result; the parent
  forwards them with :func:`emit_spans`.

Tracing is **off by default** — :func:`span` then returns a shared
no-op context manager whose cost is one function call, benchmarked to
stay within noise on the sustained-mixed service benchmark.  It is
switched on per process with :func:`configure` (the ``--trace PATH``
CLI flag / ``REPRO_TRACE`` environment variable), which appends
finished spans to a :class:`TraceStore` — a plain append-only
``trace.jsonl`` in the given directory.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import re
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..jsonl_store import LineLog

__all__ = [
    "TraceContext",
    "TraceStore",
    "activate",
    "capture",
    "configure",
    "current_context",
    "disable",
    "emit_spans",
    "emit_timing",
    "new_id",
    "span",
    "trace_path",
    "tracing_active",
]

#: Environment variable naming the trace-store directory (same as --trace).
TRACE_ENV_VAR = "REPRO_TRACE"

_ID_PATTERN = re.compile(r"[a-z0-9._-]{1,64}")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The picklable coordinates of "where we are" in a trace."""

    trace_id: str
    span_id: str


_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)
#: When set, finished spans go to this list instead of the global
#: tracer — how worker processes (and the in-process traced solve path)
#: collect spans for their caller without sharing a file handle.
_sink: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "repro_trace_sink", default=None
)

_store: "TraceStore | None" = None


def new_id() -> str:
    """A fresh 16-hex-char trace/span id."""
    return uuid.uuid4().hex[:16]


def current_context() -> TraceContext | None:
    """The innermost active span's context, or ``None``."""
    return _current.get()


def tracing_active() -> bool:
    """Whether finished spans currently have somewhere to go."""
    return _store is not None or _sink.get() is not None


def trace_path() -> str | None:
    """Directory of the configured trace store, or ``None``."""
    return None if _store is None else str(_store.path)


class TraceStore:
    """Append-only span log: one JSON span per line of ``trace.jsonl``.

    Each span is appended in one write and nothing else is kept, so the
    cost of a span does not grow with the trace.  A final line torn by
    an interrupted or failed write gets its newline before the next
    append (:class:`~repro.jsonl_store.LineLog`), so the two records
    never merge; :func:`repro.obs.summary.load_spans` skips the torn
    line.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._log = LineLog(self.path / "trace.jsonl")
        self._lock = threading.Lock()

    def put_span(self, record: dict) -> None:
        line = (json.dumps(record, allow_nan=True) + "\n").encode("utf-8")
        with self._lock:
            self._log.append(line)


def configure(path: str | os.PathLike) -> TraceStore:
    """Switch tracing on: append finished spans under ``path``.

    Idempotent for the same path; a different path replaces the
    previous store.  Returns the active store.
    """
    global _store
    if _store is None or str(_store.path) != str(path):
        _store = TraceStore(path)
    return _store


def disable() -> None:
    """Switch tracing off (every span is already on disk)."""
    global _store
    _store = None


def _emit(record: dict) -> None:
    buffer = _sink.get()
    if buffer is not None:
        buffer.append(record)
        return
    store = _store
    if store is not None:
        store.put_span(record)


class activate:
    """Re-enter a :class:`TraceContext` received from another task/process.

    ``activate(None)`` is a no-op, so call sites can pass an optional
    context through unconditionally.
    """

    __slots__ = ("_context", "_token")

    def __init__(self, context: TraceContext | None):
        self._context = context
        self._token = None

    def __enter__(self) -> TraceContext | None:
        if self._context is not None:
            self._token = _current.set(self._context)
        return self._context

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()
    trace_id = None
    span_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


class _Span:
    """One live span: times itself and stacks the context while open."""

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
        "_wall",
        "_start",
    )

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        parent = _current.get()
        if parent is None:
            self.trace_id = new_id()
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = new_id()
        self._token = _current.set(TraceContext(self.trace_id, self.span_id))
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        _current.reset(self._token)
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self._wall,
            "duration": duration,
        }
        if exc_type is not None:
            record["error"] = f"{exc_type.__name__}: {exc}"
        record.update(self.attrs)
        _emit(record)
        return False


def span(name: str, **attrs):
    """A context manager timing one operation as a span.

    The hot-path entry point: while tracing is off (no store configured
    and no capture buffer active) it returns a shared no-op object
    without allocating, so instrumented code costs one call per site.
    """
    if _store is None and _sink.get() is None:
        return _NOOP
    return _Span(name, attrs)


@contextlib.contextmanager
def capture():
    """Collect this context's spans into a list instead of the store.

    Used on the far side of an executor/process hop: the callee runs
    its work under ``capture()``, returns the buffered span records
    with its result, and the caller forwards them via
    :func:`emit_spans`.  The buffer is context-local, so concurrent
    captures on different executor threads do not mix.
    """
    buffer: list[dict] = []
    token = _sink.set(buffer)
    try:
        yield buffer
    finally:
        _sink.reset(token)


def emit_spans(records) -> None:
    """Forward span records produced elsewhere (a worker) to the sink."""
    for record in records or ():
        _emit(record)


def emit_timing(name: str, duration: float, **attrs) -> None:
    """Emit a pre-measured span (aggregated timings, e.g. kernel totals).

    Parents at the current context and back-dates ``start`` so the
    synthetic span nests where the measured work actually ran.
    """
    if not tracing_active():
        return
    parent = _current.get()
    record = {
        "trace_id": parent.trace_id if parent is not None else new_id(),
        "span_id": new_id(),
        "parent_id": parent.span_id if parent is not None else None,
        "name": name,
        "start": time.time() - duration,
        "duration": duration,
    }
    record.update(attrs)
    _emit(record)


def request_id_or_new(raw: str | None) -> str:
    """A well-formed request id: the client's if sane, else a fresh one.

    The HTTP layer lower-cases header values, so validation is against
    the lower-cased alphabet; anything malformed (or absent) gets a
    generated id — the header is an attribution aid, never an input.
    """
    if raw is not None and _ID_PATTERN.fullmatch(raw):
        return raw
    return "r" + new_id()
