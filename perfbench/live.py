"""``live``: seeded fail/recover timelines replanned in process.

Timeline ``k`` of a run is ``LiveConfig(seed=seed * 1000 + k)`` with
n=50, p=5, m=25, heuristic H2, mtbf 600, mttr 60 and horizon 300; each
timeline draws its own instance and failure process.  (At n=100, m=50 a
timeline is ~40 replans of up to 400 ms, so a 10 s run holds only four
instances and its figures swung 19-38% from seed to seed.  At this size
a 15 s run replays 30-45 instances and ~800 replans; a horizon of 600
halved the instances and its latency p90 spread 12% from seed to seed.)
The benchmark
drives ``build_replanner`` + ``generate_timeline`` itself and times each
``Replanner.apply``.  This is the only workload where
``batch.incremental.MappingEvaluator`` mutates state
(``reassign``/``best_move``/``move``) instead of scoring stacks; cold
re-solves are single R=1 solves on shrinking sub-platforms.

One op is one replan (a ``fail`` or ``recover`` event); untraced runs
time it in reference seconds of :mod:`perfbench.clock`.  Every timeline
played is checked with ``compare_reports`` against
``run_timeline(config, warm=False)`` after the timed phase.
"""

from __future__ import annotations

import time

from .clock import ReferenceClock
from .common import Deadline, Result, percentile, self_peak_rss_mb

#: The live scenario every timeline shares (``seed`` varies).
SCENARIO = dict(
    tasks=50,
    types=5,
    machines=25,
    heuristic="H2",
    duration=300.0,
    mtbf=600.0,
    mttr=60.0,
    arrival_rate=0.0,
)
#: Timelines replayed by the traced phase (fixed, so its counts repeat).
TRACED_TIMELINES = 16
_REPLAN_KINDS = ("fail", "recover")


def config(seed: int, index: int, scenario: dict):
    from repro.live.timeline import LiveConfig

    return LiveConfig(seed=seed * 1000 + index, **scenario)


def setup() -> None:
    """Import the live stack and replay one small timeline."""
    from repro.live.runner import run_timeline
    from repro.live.timeline import LiveConfig

    run_timeline(LiveConfig(heuristic=SCENARIO["heuristic"], seed=0, arrival_rate=0.0))


def play(cfg):
    """Replay one timeline: ``(report, [(via, start, end)])``, one per replan."""
    from repro.live.runner import LiveReport, build_replanner
    from repro.live.timeline import generate_timeline

    replanner = build_replanner(cfg)
    records = [replanner.initial.to_dict()]
    replans = []
    clock = time.perf_counter
    for event in generate_timeline(cfg):
        start = clock()
        record = replanner.apply(event.time, event.kind, event.machine)
        end = clock()
        records.append(record.to_dict())
        if event.kind in _REPLAN_KINDS:
            replans.append((record.via, start, end))
    availability = replanner.finish(cfg.duration)
    report = LiveReport(
        config=cfg,
        mode="warm",
        records=records,
        availability=availability,
        counters=replanner.counters.as_dict(),
        latency_ms={},
    )
    return report, replans


def _timed_timelines(seed: int, seconds: float, scenario: dict) -> tuple[list, float]:
    deadline = Deadline(seconds)
    played = []
    index = 0
    while True:
        played.append((index, *play(config(seed, index, scenario))))
        index += 1
        if deadline.passed():
            return played, deadline.elapsed()


def _check(result: Result, seed: int, played: list, scenario: dict) -> None:
    from repro.exceptions import ExperimentError
    from repro.live.runner import compare_reports, run_timeline

    references = {}
    for index, report, replans in played:
        result.attempted += len(replans)
        if index not in references:
            references[index] = run_timeline(config(seed, index, scenario), warm=False)
        try:
            compare_reports(references[index], report)
        except ExperimentError as exc:
            result.failed += len(replans)
            result.notes.append(f"timeline {index}: {exc}")


def run(seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run (set-up already done by the caller)."""
    result = Result("live")
    scenario, traced_timelines = SCENARIO, TRACED_TIMELINES
    if not trace:
        with ReferenceClock() as clock:
            start = time.perf_counter()
            played, wall = _timed_timelines(seed, seconds, scenario)
            end = time.perf_counter()
        replans = [entry for _, _, timeline in played for entry in timeline]
        reference = clock.reference(start, end)
        latencies = [clock.reference(begin, stop) * 1000.0 for _, begin, stop in replans]
        result.set("ops_per_s", len(replans) / reference, "ops/s")
        result.set("latency_p50_ms", percentile(latencies, 0.50), "ms")
        result.set("latency_p90_ms", percentile(latencies, 0.90), "ms")
        result.set("peak_rss_mb", self_peak_rss_mb(), "MB")
        result.notes.append(
            f"{len(played)} timelines, {len(replans)} replans in {wall:.2f} s wall, "
            f"{reference:.2f} reference s"
        )
    else:
        from .layers import LayerClock

        played, wall = _timed_timelines(seed, seconds / 2, scenario)
        ops_per_s = sum(len(timeline) for _, _, timeline in played) / wall

        with LayerClock() as clock:
            start = time.perf_counter()
            traced = [
                (index, *play(config(seed, index, scenario)))
                for index in range(traced_timelines)
            ]
            traced_wall = time.perf_counter() - start
        played.extend(traced)
        traced_replans = [entry for _, _, timeline in traced for entry in timeline]
        for name, (value, unit) in clock.metrics().items():
            result.set(name, value, unit)
        for tier in ("cache", "warm", "cold", "infeasible"):
            count = sum(1 for via, _, _ in traced_replans if via == tier)
            result.set(f"live.replans.{tier}", count, "count")
        for tier in ("warm", "cold"):
            samples = [(end - begin) * 1000.0 for via, begin, end in traced_replans if via == tier]
            result.set(f"live.{tier}_p50_ms", percentile(samples, 0.50), "ms")
        result.set("live.coverage", clock.attributed_seconds() / traced_wall, "share")
        result.set(
            "tracing.ops_ratio", (len(traced_replans) / traced_wall) / ops_per_s, "ratio"
        )
        result.notes.append(
            f"traced: {traced_timelines} timelines, {len(traced_replans)} replans "
            f"in {traced_wall:.2f} s"
        )
    _check(result, seed, played, scenario)
    return result
