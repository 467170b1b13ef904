"""``figures``: serial, in-process regeneration of three paper figures.

Each pass runs ``run_figure`` (no MIP) for

* fig5 with all six heuristics,
* fig6 with its optional ``H4ls`` curve,
* fig9 with H2/H3/H4w plus the one-to-one optimum,

scaled so that every batchable heuristic clears its batch/loop
crossover depth.  This is the only workload where the lock-step
``solve_batch`` path, cross-point stacking, stacked scoring, the H4ls
batch refine and ``exact``'s one-to-one solver do real work.

One op is one instance-curve solution (a repetition of a sweep point of
one curve); throughput is a pass's ops over the median pass time.
Latency is per ``run_figure`` call.  Both are in reference seconds of
:mod:`perfbench.clock` (untraced runs).  Every pass is checked
against a per-instance ``Heuristic.solve`` / ``optimal_one_to_one``
oracle computed once per seed, after the timed phase.
"""

from __future__ import annotations

import math
import time
from statistics import median

from .clock import ReferenceClock
from .common import Deadline, Result, percentile, self_peak_rss_mb

#: ``(figure, repetitions, max_points, include_optional)`` of one pass.
#: Every batch solve gets at least six rows, which clears each
#: heuristic's crossover depth (``heuristics/thresholds.json``: at most
#: 6, for H2); fig9's two points stack into eight rows.  The sizes give
#: the three figures similar costs, so the latency percentiles do not
#: sit between two figures' clusters.
PASS = (
    ("fig5", 6, 3, False),
    ("fig6", 6, 4, True),
    ("fig9", 4, 2, False),
)


def setup() -> None:
    """Import the engine and run each figure once at the smallest size."""
    from repro.experiments.runner import run_figure

    for figure_id, _, _, optional in PASS:
        run_figure(
            figure_id,
            seed=0,
            repetitions=1,
            max_points=1,
            include_milp=False,
            include_optional=optional,
        )


def _series(result) -> dict[str, dict[int, list[float]]]:
    return {
        label: {x: list(values) for x, values in series.samples.items()}
        for label, series in result.series.items()
    }


def _ops(series: dict) -> int:
    return sum(len(values) for curve in series.values() for values in curve.values())


def run_pass(seed: int, scale: tuple) -> list[tuple[str, float, float, dict]]:
    """One pass: ``[(figure, start, end, series)]`` with ``perf_counter`` stamps."""
    from repro.experiments.runner import run_figure

    out = []
    for figure_id, repetitions, max_points, optional in scale:
        start = time.perf_counter()
        result = run_figure(
            figure_id,
            seed=seed,
            repetitions=repetitions,
            max_points=max_points,
            include_milp=False,
            include_optional=optional,
        )
        out.append((figure_id, start, time.perf_counter(), _series(result)))
    return out


def oracle(seed: int, scale: tuple) -> dict[str, dict]:
    """Expected series per figure from per-instance scalar solves."""
    from repro.exact.one_to_one import optimal_one_to_one
    from repro.exceptions import SolverError
    from repro.experiments.figures import FIGURES
    from repro.experiments.runner import OTO_LABEL
    from repro.generators.scenarios import sample_instance
    from repro.heuristics import get_heuristic
    from repro.simulation.rng import RandomStreamFactory

    expected = {}
    for figure_id, repetitions, max_points, optional in scale:
        spec = FIGURES[figure_id]
        scenario = spec.scenario.scaled(repetitions=repetitions, max_points=max_points)
        labels = list(scenario.heuristics) + (list(spec.optional_curves) if optional else [])
        curves: dict[str, dict[int, list[float]]] = {label: {} for label in labels}
        if scenario.include_one_to_one:
            curves[OTO_LABEL] = {}
        streams = RandomStreamFactory(seed)
        for x in scenario.sweep_values:
            for repetition in range(scenario.repetitions):
                instance = sample_instance(scenario, x, repetition, streams)
                for label in labels:
                    rng = streams.stream(f"heuristic/{label}/{x}", repetition)
                    period = get_heuristic(label).solve(instance, rng).period
                    curves[label].setdefault(x, []).append(period)
                if OTO_LABEL in curves:
                    try:
                        period = optimal_one_to_one(instance).period
                    except SolverError:
                        period = math.nan
                    curves[OTO_LABEL].setdefault(x, []).append(period)
        expected[figure_id] = curves
    return expected


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def wrong_values(series: dict, expected: dict) -> int:
    """Values of ``series`` that differ from ``expected`` (missing count too)."""
    wrong = 0
    for label, curve in expected.items():
        for x, values in curve.items():
            got = series.get(label, {}).get(x, [])
            wrong += sum(
                1 for i, value in enumerate(values) if i >= len(got) or not _same(got[i], value)
            )
    return wrong + max(0, _ops(series) - _ops(expected))


def _timed_passes(seed: int, seconds: float, scale: tuple) -> tuple[list, float]:
    # Whole passes only, so every run measures the same mix of figures;
    # stop at the pass count that lands closest to ``seconds``.
    deadline = Deadline(seconds)
    calls = []
    while True:
        start = time.perf_counter()
        calls.extend(run_pass(seed, scale))
        last = time.perf_counter() - start
        if deadline.elapsed() + last / 2 >= seconds:
            return calls, deadline.elapsed()


def _check(result: Result, calls: list, expected: dict) -> None:
    for figure_id, _, _, series in calls:
        result.attempted += _ops(series)
        result.failed += wrong_values(series, expected[figure_id])


def run(seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run (set-up already done by the caller)."""
    result = Result("figures")
    scale = PASS
    if trace:
        calls, wall = _timed_passes(seed, seconds / 2, scale)
        durations = [end - start for _, start, end, _ in calls]
    else:
        with ReferenceClock() as clock:
            calls, wall = _timed_passes(seed, seconds, scale)
        durations = [clock.reference(start, end) for _, start, end, _ in calls]
    # Every pass does the same work; the median pass resists the odd
    # pass slowed by a noisy neighbour.
    width = len(scale)
    pass_ops = sum(_ops(series) for _, _, _, series in calls[:width])
    ops_per_s = pass_ops / median(
        [sum(durations[i : i + width]) for i in range(0, len(durations), width)]
    )
    if not trace:
        latencies = [duration * 1000.0 for duration in durations]
        result.set("ops_per_s", ops_per_s, "ops/s")
        result.set("latency_p50_ms", percentile(latencies, 0.50), "ms")
        result.set("latency_p90_ms", percentile(latencies, 0.90), "ms")
        result.set("peak_rss_mb", self_peak_rss_mb(), "MB")
        result.notes.append(
            f"{len(calls)} run_figure calls ({len(calls) // width} passes) in {wall:.2f} s wall, "
            f"{sum(durations):.2f} reference s"
        )
    else:
        from .layers import LayerClock

        with LayerClock() as clock:
            start = time.perf_counter()
            traced = run_pass(seed, scale)
            traced_wall = time.perf_counter() - start
        calls.extend(traced)
        traced_ops = sum(_ops(series) for _, _, _, series in traced)
        for name, (value, unit) in clock.metrics().items():
            result.set(name, value, unit)
        attributed = clock.attributed_seconds()
        result.set("figures.coverage", attributed / traced_wall, "share")
        result.set("figures.unattributed_s", traced_wall - attributed, "s")
        result.set("tracing.ops_ratio", (traced_ops / traced_wall) / ops_per_s, "ratio")
        result.notes.append(f"traced pass: {traced_wall:.2f} s, {traced_ops} ops")
    _check(result, calls, oracle(seed, scale))
    return result
