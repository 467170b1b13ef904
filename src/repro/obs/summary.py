"""Aggregate a trace file into a hot-path table (``trace summarize``).

Reads the spans of a trace directory (or a bare ``trace.jsonl`` file),
rebuilds the parent/child tree per trace, and reports per span *name*:

``count``
    How many spans carried the name.
``total``
    Wall-clock seconds inside those spans (children included).
``self``
    Seconds not covered by child spans — where the time actually went.
    Summed over a whole trace, ``self`` reproduces the root span's
    end-to-end latency (up to measurement noise), which is the
    invariant that makes the table trustworthy.

Pure functions over plain dicts, so the CLI, tests and notebooks share
one implementation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["SpanAggregate", "load_spans", "summarize_spans", "format_table", "format_tree"]


@dataclass(slots=True)
class SpanAggregate:
    """Per-name totals of one trace file."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0

    @property
    def mean_ms(self) -> float:
        return self.total_seconds / self.count * 1000.0 if self.count else 0.0


def load_spans(path: str | Path) -> list[dict]:
    """Every span record under ``path`` (a trace directory or JSONL file).

    Accepts the directory ``--trace`` was pointed at, the
    ``trace.jsonl`` inside it, or any bare JSONL file of span records;
    spans come back in append order, non-span lines and a torn line are
    skipped.  A directory without a trace log holds no spans.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "trace.jsonl"
        if not path.exists():
            return []
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("kind") == "span":
                record = record.get("data", {})
            if isinstance(record, dict) and "span_id" in record and "name" in record:
                spans.append(record)
    return spans


def summarize_spans(spans: list[dict]) -> list[SpanAggregate]:
    """Per-name aggregates, hottest ``self`` time first.

    ``self`` is a span's duration minus its direct children's durations
    (floored at zero — a child that outlives its parent, e.g. a
    deadline-abandoned solve, must not go negative).
    """
    child_seconds: dict[str, float] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + float(
                record.get("duration", 0.0)
            )
    by_name: dict[str, SpanAggregate] = {}
    for record in spans:
        aggregate = by_name.setdefault(record["name"], SpanAggregate(record["name"]))
        duration = float(record.get("duration", 0.0))
        aggregate.count += 1
        aggregate.total_seconds += duration
        aggregate.self_seconds += max(
            0.0, duration - child_seconds.get(record["span_id"], 0.0)
        )
    return sorted(by_name.values(), key=lambda a: a.self_seconds, reverse=True)


def format_table(aggregates: list[SpanAggregate]) -> str:
    """The ``trace summarize`` hot-path table."""
    if not aggregates:
        return "no spans recorded"
    total_self = sum(a.self_seconds for a in aggregates) or 1.0
    name_width = max(4, max(len(a.name) for a in aggregates))
    lines = [
        f"{'span':<{name_width}}  {'count':>6}  {'total_s':>9}  "
        f"{'self_s':>9}  {'self_%':>6}  {'mean_ms':>8}"
    ]
    for aggregate in aggregates:
        lines.append(
            f"{aggregate.name:<{name_width}}  {aggregate.count:>6}  "
            f"{aggregate.total_seconds:>9.4f}  {aggregate.self_seconds:>9.4f}  "
            f"{aggregate.self_seconds / total_self * 100.0:>6.1f}  "
            f"{aggregate.mean_ms:>8.3f}"
        )
    return "\n".join(lines)


def format_tree(spans: list[dict], trace_id: str | None = None) -> str:
    """An indented span tree of one trace (the newest one by default)."""
    if not spans:
        return "no spans recorded"
    if trace_id is None:
        trace_id = max(spans, key=lambda s: float(s.get("start", 0.0)))["trace_id"]
    trace = [s for s in spans if s.get("trace_id") == trace_id]
    if not trace:
        return f"no spans for trace {trace_id}"
    children: dict[str | None, list[dict]] = {}
    span_ids = {s["span_id"] for s in trace}
    for record in trace:
        parent = record.get("parent_id")
        # A parent emitted by a process whose spans never made it back
        # still gets its orphans shown, hung off the root.
        children.setdefault(parent if parent in span_ids else None, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda s: float(s.get("start", 0.0)))
    lines = [f"trace {trace_id}"]

    def walk(parent: str | None, depth: int) -> None:
        for record in children.get(parent, []):
            duration_ms = float(record.get("duration", 0.0)) * 1000.0
            lines.append(
                f"{'  ' * depth}- {record['name']} {duration_ms:.3f} ms"
                f" [{record['span_id']}]"
            )
            walk(record["span_id"], depth + 1)

    walk(None, 1)
    return "\n".join(lines)
