"""Unified observability: span tracing, metrics registry, exposition.

The telemetry layer every other subsystem reports into:

* :mod:`~repro.obs.trace` — lightweight span tracer
  (``contextvars``-propagated trace/span ids, explicit hand-off across
  executor threads and pool worker processes, spans appended to a
  :class:`~repro.obs.trace.TraceStore` on the shared
  :class:`~repro.experiments.store.JsonlStore` base).  Off by default;
  enabled via ``--trace PATH`` / ``REPRO_TRACE``.
* :mod:`~repro.obs.metrics` — :class:`~repro.obs.metrics.MetricsRegistry`
  of counters/gauges/histograms with Prometheus text exposition (the
  ``GET /v1/metrics`` body) plus the relocated
  :class:`~repro.obs.metrics.LatencyReservoir`.
* :mod:`~repro.obs.summary` — span-tree aggregation behind
  ``microrepro trace summarize`` (self/total-time hot-path table).
* :mod:`~repro.obs.instrument` — aggregated per-kernel timings
  for traced solves.

Deliberately a leaf package (it imports only ``repro.experiments.store``
and, from :mod:`~repro.obs.instrument`, ``repro.backend``), so the
service, DAG, campaign and live layers can all instrument through it
without import cycles.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    RESERVOIR_SIZE,
    Counter,
    Gauge,
    Histogram,
    LatencyReservoir,
    MetricsRegistry,
)
from .summary import format_table, format_tree, load_spans, summarize_spans
from .trace import (
    TRACE_ENV_VAR,
    TraceContext,
    TraceStore,
    activate,
    capture,
    configure,
    current_context,
    disable,
    emit_spans,
    emit_timing,
    request_id_or_new,
    span,
    trace_path,
    tracing_active,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyReservoir",
    "MetricsRegistry",
    "RESERVOIR_SIZE",
    "DEFAULT_BUCKETS",
    "TraceContext",
    "TraceStore",
    "TRACE_ENV_VAR",
    "activate",
    "capture",
    "configure",
    "current_context",
    "disable",
    "emit_spans",
    "emit_timing",
    "request_id_or_new",
    "span",
    "trace_path",
    "tracing_active",
    "format_table",
    "format_tree",
    "load_spans",
    "summarize_spans",
]
