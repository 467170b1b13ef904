#!/usr/bin/env python3
"""Compare two benchmark result sets.

    python3 perfbench/compare.py before.jsonl after.jsonl

Each file holds the records ``perfbench/run.py --out FILE`` appends.  Per
workload the report gives, for every end-to-end metric, each side's
median and quartiles and whether the change is worse than the metric's
bound in ``BENCHMARK.json``; then the traced runs' per-layer self-time
deltas, largest ``|delta|`` first, so a regression names the layer that
moved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
if str(_HERE.parent) not in sys.path:
    sys.path.insert(0, str(_HERE.parent))

from perfbench.layers import LAYER_MAP  # noqa: E402

WORKLOADS = ("figures", "service", "live")


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _values(records: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _mapped(metric: str) -> str:
    for prefix, (moves, _) in LAYER_MAP.items():
        if metric.startswith(prefix):
            return moves
    return ""


def layer_deltas(a: list[dict], b: list[dict], spec: dict, workload: str) -> list[tuple]:
    """``[(metric, median A, median B, B - A)]`` of self times, by ``|delta|``."""
    rows = []
    for metric in spec["per_layer"]:
        if metric["unit"] != "s":
            continue
        va = _values(a, workload, 1, metric["name"])
        vb = _values(b, workload, 1, metric["name"])
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        if ma == 0.0 and mb == 0.0:
            continue
        rows.append((metric["name"], ma, mb, mb - ma))
    return sorted(rows, key=lambda row: abs(row[3]), reverse=True)


def compare(a: list[dict], b: list[dict], spec: dict) -> str:
    lines = []
    for workload in WORKLOADS:
        if not any(r["workload"] == workload for r in a + b):
            continue
        lines.append(f"== {workload} ==")
        lines.append(
            f"{'metric':<16} {'unit':<6} {'A median [q1, q3]':>32} "
            f"{'B median [q1, q3]':>32} {'change':>8}  verdict"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = _values(a, workload, 0, name), _values(b, workload, 0, name)
            if not va or not vb:
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(va), summary(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = -change if metric["better"] == "higher" else change
            verdict = (
                f"WORSE than bound {metric['bound']:.0%}" if worse > metric["bound"] else "ok"
            )
            lines.append(
                f"{name:<16} {metric['unit']:<6} "
                f"{f'{ma:.4g} [{a1:.4g}, {a3:.4g}] n={len(va)}':>32} "
                f"{f'{mb:.4g} [{b1:.4g}, {b3:.4g}] n={len(vb)}':>32} "
                f"{change:>+8.1%}  {verdict}"
            )
        ratio_a = _values(a, workload, 1, "tracing.ops_ratio")
        ratio_b = _values(b, workload, 1, "tracing.ops_ratio")
        if ratio_a and ratio_b:
            lines.append(
                f"tracing overhead (traced/untraced ops/s): A {statistics.median(ratio_a):.3f}"
                f"  B {statistics.median(ratio_b):.3f}"
            )
        deltas = layer_deltas(a, b, spec, workload)
        if deltas:
            lines.append("per-layer self-time deltas (s), largest first:")
            for name, ma, mb, delta in deltas:
                lines.append(
                    f"  {name:<32} A {ma:>10.4f}  B {mb:>10.4f}  delta {delta:>+10.4f}"
                    f"  -> {_mapped(name)}"
                )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    print(compare(load(argv[0]), load(argv[1]), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
