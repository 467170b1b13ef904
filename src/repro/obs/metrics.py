"""Unified metrics: counters, gauges, histograms and Prometheus text.

One :class:`MetricsRegistry` per service process is the only store of
its counters and latencies.  Each layer (the server, the batcher, the
cache, the session manager) binds its families once at construction and
builds its ``/v1/stats`` section from them, so ``/v1/stats`` and
``GET /v1/metrics`` read the same samples and can never disagree.

The exposition format is the Prometheus text format (``# HELP`` /
``# TYPE`` headers, ``name{label="value"} sample`` lines, cumulative
histogram buckets) — scrapable by any Prometheus-compatible collector
without a client-library dependency.

A :class:`Histogram` child also keeps its running max and a ring of the
last :data:`RESERVOIR_SIZE` samples, from which :func:`nearest_rank`
takes the ``/v1/stats`` percentiles: one ``observe`` records a latency
for every surface.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RESERVOIR_SIZE",
    "DEFAULT_BUCKETS",
    "nearest_rank",
]

#: Most recent samples a histogram child keeps for its percentiles.
RESERVOIR_SIZE = 512

#: Histogram buckets tuned for solve/replan latencies (seconds).
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def nearest_rank(ordered, q: float) -> float:
    """Nearest-rank percentile (``0 < q <= 1``) of ascending ``ordered``.

    ``0.0`` when there are no samples.
    """
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Counter:
    """A monotonically increasing sample.

    Stays an ``int`` as long as only integer amounts are added, so JSON
    payloads built from counter values keep their historical shape.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """A sample that can go anywhere (sizes, high-water marks)."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def max(self, value: int | float) -> None:
        """Raise the gauge to ``value`` if it is a new high-water mark."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> int | float:
        return self._value


class Histogram:
    """Cumulative-bucket distribution (Prometheus ``histogram`` type).

    Besides the buckets it keeps the running max and the most recent
    :data:`RESERVOIR_SIZE` samples in a ring: O(1) per observation,
    fixed memory forever, and percentiles that track *current*
    behaviour instead of averaging this minute's overload away against
    last hour's idle.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_max", "_recent", "_lock")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._max = 0
        self._recent: deque[float] = deque(maxlen=RESERVOIR_SIZE)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value
            self._recent.append(value)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    @property
    def max(self) -> int | float:
        """Largest sample observed (``0`` before the first)."""
        return self._max

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the recent samples; ``0.0`` when empty."""
        with self._lock:
            recent = sorted(self._recent)
        return nearest_rank(recent, q)

    def bucket_counts(self) -> list[int]:
        """Cumulative counts per bucket boundary (ending with ``+Inf``)."""
        cumulative, total = [], 0
        with self._lock:
            counts = list(self._counts)
        for bucket_count in counts:
            total += bucket_count
            cumulative.append(total)
        return cumulative


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: int | float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_text(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class MetricFamily:
    """One named metric and its per-label-set children.

    An unlabeled family proxies the child API (``inc``/``set``/``max``/
    ``observe``/``value``) straight to its single default child, so
    ``registry.counter("x").inc()`` works without a ``labels()`` hop.
    """

    __slots__ = ("name", "help", "kind", "label_names", "_children", "_factory", "_lock")

    def __init__(self, name: str, help_text: str, kind: str, label_names, factory):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], object] = {}
        self._factory = factory
        self._lock = threading.Lock()
        if not self.label_names:
            self._children[()] = factory()

    def labels(self, **labels) -> object:
        """The child tracked under one label-value set (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    # -- unlabeled convenience proxies -------------------------------------------
    def _solo(self):
        if self.label_names:
            raise ValueError(f"metric {self.name!r} is labeled; use .labels()")
        return self._children[()]

    def inc(self, amount: int | float = 1) -> None:
        self._solo().inc(amount)

    def set(self, value: int | float) -> None:
        self._solo().set(value)

    def max(self, value: int | float) -> None:
        self._solo().max(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> int | float:
        return self._solo().value

    @property
    def sum(self) -> float:
        return self._solo().sum

    @property
    def count(self) -> int:
        return self._solo().count


class MetricsRegistry:
    """Name → :class:`MetricFamily` table with text exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (and raises if the second
    ask disagrees on kind or labels), so independent layers can bind to
    shared series without import-order coupling.
    """

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name, help_text, kind, label_names, factory) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(label_names):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.label_names}"
                    )
                return family
            family = MetricFamily(name, help_text, kind, label_names, factory)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labels=()) -> MetricFamily:
        return self._family(name, help_text, "counter", labels, Counter)

    def gauge(self, name: str, help_text: str = "", labels=()) -> MetricFamily:
        return self._family(name, help_text, "gauge", labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels=(),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(
            name, help_text, "histogram", labels, lambda: Histogram(buckets)
        )

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.children():
                labels = _label_text(family.label_names, values)
                if family.kind == "histogram":
                    cumulative = child.bucket_counts()
                    bounds = [*(f"{b:g}" for b in child.buckets), "+Inf"]
                    for bound, count in zip(bounds, cumulative):
                        bucket_names = family.label_names + ("le",)
                        bucket_values = values + (bound,)
                        bucket_labels = _label_text(bucket_names, bucket_values)
                        lines.append(f"{family.name}_bucket{bucket_labels} {count}")
                    lines.append(
                        f"{family.name}_sum{labels} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{labels} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-ready view of every family (the ``metrics`` stats section)."""
        out: dict[str, dict] = {}
        for family in self.families():
            entry: dict = {"kind": family.kind}
            if family.kind == "histogram":
                entry["samples"] = {
                    _label_text(family.label_names, values) or "": {
                        "count": child.count,
                        "sum": round(child.sum, 6),
                    }
                    for values, child in family.children()
                }
            else:
                entry["samples"] = {
                    _label_text(family.label_names, values) or "": child.value
                    for values, child in family.children()
                }
            out[family.name] = entry
        return out
