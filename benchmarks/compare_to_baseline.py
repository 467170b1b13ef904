#!/usr/bin/env python
"""Benchmark regression gate: compare a run against the committed baseline.

``benchmarks/baseline.json`` records, for a handful of *key* benchmarks,
the median wall-clock **normalized by a calibration benchmark** measured
in the same run.  Raw medians are useless across machines (a laptop and
a CI runner differ by integer factors), but the ratio of two benchmarks
of the same run cancels machine speed — so the gate compares normalized
medians and fails when any key benchmark regresses by more than the
baseline's tolerance (30%).

Usage
-----
Gate a run (exit 1 on regression)::

    python -m pytest -m bench --benchmark-json=bench-results.json
    python benchmarks/compare_to_baseline.py bench-results.json

Refresh the baseline after an intentional performance change::

    python benchmarks/compare_to_baseline.py bench-results.json --update

A per-benchmark delta table is printed on every gate run (pass or fail);
``--json`` emits the same comparison as a machine-readable document for
dashboards/CI annotations.

The module is also importable (``benchmarks.compare_to_baseline``) so the
comparison logic itself is unit-tested in tier 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Benchmark whose median defines "how fast is this machine" for a run.
#: A scalar Python-loop benchmark tracks interpreter + numpy dispatch
#: speed, the resource every key benchmark below also spends.
CALIBRATION = "benchmarks/test_batch_evaluation.py::test_bench_scalar_evaluation_loop"

#: The benchmarks the gate protects (the PR 1-5 speedup claims).
KEY_BENCHMARKS = (
    "benchmarks/test_batch_evaluation.py::test_bench_evaluate_batch",
    "benchmarks/test_batch_evaluation.py::test_bench_incremental_moves",
    "benchmarks/test_engine_block_scheduler.py::test_bench_block_scoring",
    "benchmarks/test_engine_block_scheduler.py::test_bench_block_pipeline",
    "benchmarks/test_engine_block_scheduler.py::test_bench_batch_solve_greedy",
    "benchmarks/test_engine_block_scheduler.py::test_bench_batch_solve_binary_search",
    "benchmarks/test_engine_block_scheduler.py::test_bench_batch_refine",
    "benchmarks/test_service_batching.py::test_bench_service_microbatch",
    "benchmarks/test_service_batching.py::test_bench_service_sustained_mixed",
    "benchmarks/test_engine_block_scheduler.py::test_bench_block_pipeline_cross_point",
    "benchmarks/test_live_replan.py::test_bench_live_replan",
    "benchmarks/test_dag_scheduler.py::test_bench_dag_pipeline",
    "benchmarks/test_solver_microbench.py::test_bench_bottleneck_assignment_100x100",
    "benchmarks/test_solver_microbench.py::test_bench_heuristic_h2_binary_search",
    "benchmarks/test_solver_microbench.py::test_bench_heuristic_h3_binary_search",
)

#: Default failure threshold: a key benchmark may be at most this much
#: slower (relative) than its baseline before the gate trips.
DEFAULT_MAX_REGRESSION = 0.30

DEFAULT_BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def load_medians(results: dict) -> dict[str, float]:
    """``{fullname: median seconds}`` from a pytest-benchmark JSON dump."""
    return {
        bench["fullname"]: float(bench["stats"]["median"])
        for bench in results.get("benchmarks", [])
    }


def normalize(medians: dict[str, float], calibration: str) -> dict[str, float]:
    """Divide every median by the calibration benchmark's median."""
    reference = medians[calibration]
    return {name: median / reference for name, median in medians.items()}


def evaluate(results: dict, baseline: dict) -> tuple[list[dict], list[str]]:
    """Per-benchmark delta rows plus the gate's failure messages.

    Each row: ``{name, baseline, current, delta, status}`` with status
    one of ``ok`` / ``regression`` / ``missing``.  ``failures`` is empty
    exactly when the gate passes.
    """
    medians = load_medians(results)
    calibration = baseline["calibration"]
    tolerance = float(baseline.get("max_regression", DEFAULT_MAX_REGRESSION))
    if calibration not in medians:
        return [], [f"calibration benchmark missing from results: {calibration}"]
    current = normalize(medians, calibration)
    rows: list[dict] = []
    failures: list[str] = []
    for name, entry in baseline["benchmarks"].items():
        reference = float(entry["normalized"])
        if name not in current:
            rows.append(
                {"name": name, "baseline": reference, "current": None,
                 "delta": None, "status": "missing"}
            )
            failures.append(f"key benchmark missing from results: {name}")
            continue
        value = current[name]
        delta = value / reference - 1.0
        status = "ok"
        if value > reference * (1.0 + tolerance):
            status = "regression"
            failures.append(
                f"{name}: normalized median {value:.4f} is "
                f"{delta:+.0%} vs baseline "
                f"{reference:.4f} (allowed {tolerance:+.0%})"
            )
        rows.append(
            {"name": name, "baseline": reference, "current": value,
             "delta": delta, "status": status}
        )
    return rows, failures


def compare(results: dict, baseline: dict) -> list[str]:
    """Failure messages for every key benchmark outside tolerance (empty = pass)."""
    return evaluate(results, baseline)[1]


def format_delta_table(rows: list[dict]) -> str:
    """Fixed-width rendition of :func:`evaluate`'s rows."""
    short = [row["name"].split("::")[-1] for row in rows]
    width = max((len(name) for name in short), default=4)
    lines = [
        f"{'benchmark'.ljust(width)}  {'baseline':>9}  {'current':>9}  "
        f"{'delta':>7}  status"
    ]
    for row, name in zip(rows, short):
        current = "-" if row["current"] is None else f"{row['current']:9.4f}"
        delta = "-" if row["delta"] is None else f"{row['delta']:+7.1%}"
        lines.append(
            f"{name.ljust(width)}  {row['baseline']:9.4f}  {current:>9}  "
            f"{delta:>7}  {row['status']}"
        )
    return "\n".join(lines)


def make_baseline(
    results: dict,
    *,
    calibration: str = CALIBRATION,
    keys: tuple[str, ...] = KEY_BENCHMARKS,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> dict:
    """Build a baseline document from one benchmark run.

    Every ``keys`` benchmark must be in the run.
    """
    medians = load_medians(results)
    missing = [name for name in (calibration, *keys) if name not in medians]
    if missing:
        raise KeyError(f"benchmarks missing from results: {missing}")
    normalized = normalize(medians, calibration)
    benchmarks = {
        name: {
            "median_seconds": medians[name],
            "normalized": normalized[name],
        }
        for name in keys
    }
    return {
        "calibration": calibration,
        "max_regression": max_regression,
        "benchmarks": benchmarks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE_PATH,
        help="baseline document (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the comparison as JSON (exit code still signals the gate)",
    )
    args = parser.parse_args(argv)

    results = json.loads(args.results.read_text())
    if args.update:
        baseline = make_baseline(results)
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text())
    rows, failures = evaluate(results, baseline)
    tolerance = float(baseline.get("max_regression", DEFAULT_MAX_REGRESSION))
    if args.json:
        print(
            json.dumps(
                {
                    "status": "fail" if failures else "pass",
                    "calibration": baseline["calibration"],
                    "max_regression": tolerance,
                    "benchmarks": rows,
                    "failures": failures,
                },
                indent=2,
            )
        )
        return 1 if failures else 0
    if rows:
        print(format_delta_table(rows))
    if failures:
        print("benchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"benchmark regression gate passed "
        f"({len(rows)} key benchmarks within {tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
