"""Shared helpers for the benchmark harness.

Every figure of the paper's evaluation has one benchmark module.  Each
benchmark:

* runs a scaled-down version of the figure's scenario (the paper's 30
  repetitions per point would take far too long under pytest-benchmark),
* records the wall-clock time of the whole sweep as the benchmark value,
* prints the regenerated series (the same rows the paper plots) so that
  ``pytest benchmarks/ --benchmark-only -s`` doubles as the figure
  generator, and
* writes the CSV and the text report into ``benchmarks/results/``.

Scaling can be tuned with environment variables without editing code:

``REPRO_BENCH_REPETITIONS``
    Repetitions per sweep point (default 2).
``REPRO_BENCH_MAX_POINTS``
    Number of sweep points kept from the paper's x axis (default 3).
``REPRO_BENCH_FULL``
    Set to ``1`` to run every figure at the paper's full scale (slow).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import figure_report, run_figure
from repro.experiments.runner import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench``.

    The default addopts (``-m "not slow and not bench"``) then keep the
    tier-1 run free of benchmark workloads; run them explicitly with
    ``python -m pytest -m bench [--benchmark-only]``.
    """
    here = Path(__file__).parent
    for item in items:
        try:
            in_benchmarks = Path(str(item.fspath)).is_relative_to(here)
        except ValueError:  # pragma: no cover - non-path items
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.bench)


def _scale() -> dict:
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return {"repetitions": None, "max_points": None}
    return {
        "repetitions": int(os.environ.get("REPRO_BENCH_REPETITIONS", "2")),
        "max_points": int(os.environ.get("REPRO_BENCH_MAX_POINTS", "3")),
    }


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    """The (repetitions, max_points) scaling applied to every figure."""
    return _scale()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def run_figure_benchmark(
    benchmark,
    results_dir: Path,
    figure_id: str,
    *,
    seed: int = 0,
    milp_time_limit: float = 20.0,
    repetitions: int | None = None,
    max_points: int | None = None,
) -> ExperimentResult:
    """Run one figure under the benchmark timer and persist its series."""
    scale = _scale()
    if repetitions is None:
        repetitions = scale["repetitions"]
    if max_points is None:
        max_points = scale["max_points"]

    result = benchmark.pedantic(
        run_figure,
        kwargs=dict(
            figure_id=figure_id,
            seed=seed,
            repetitions=repetitions,
            max_points=max_points,
            milp_time_limit=milp_time_limit,
        ),
        rounds=1,
        iterations=1,
    )
    report = figure_report(result)
    print()
    print(report)
    (results_dir / f"{figure_id}.csv").write_text(result.to_csv())
    (results_dir / f"{figure_id}.txt").write_text(report)
    return result
