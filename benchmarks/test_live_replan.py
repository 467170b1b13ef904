"""Benchmark: warm-start live replanning vs a from-scratch cold solve.

Acceptance criterion of the live-replanning PR: at **m = 50 machines**
(n = 30 tasks, p = 5 types, H4ls), a warm replan — the persistent
:class:`~repro.batch.MappingEvaluator` descent the
:class:`~repro.live.replanner.Replanner` runs on a platform event —
must answer in **<= 1/2** the latency of the cold solve the service
would otherwise run (a from-scratch H4ls solve of the same platform
state).  Bit-for-bit equality of a warm run against the ``warm=False``
cold re-solve reference is asserted first: the speed comparison only
counts because both paths return identical mappings.

The measured cycle fails and recovers a machine the initial solution
leaves *unassigned*, with the plan cache cleared before every event, so
each apply goes through the warm tier's full work — move-mask
construction, best-move probing, evaluator resync — never the O(1)
cache tier.  The initial H4ls mapping is a single-move local optimum of
the full platform, so the cycle is a steady state: every replan returns
the initial mapping and the spare machine never gets a task.

``test_bench_live_replan`` pins the warm replan's wall-clock in the CI
regression gate (``benchmarks/baseline.json``).  Two more key benches
pin one replan of each tier at the live workload's scale (n = 50,
m = 25, H2): ``test_bench_live_cold_replan`` the cold tier (the H2
re-solve of the full platform under the up-mask, on walk inputs the
replanner built once) and ``test_bench_live_warm_replan`` the warm tier
(one full best-single-move descent from the H2 mapping).
"""

from __future__ import annotations

import time

from repro.heuristics import get_heuristic
from repro.heuristics.base import solve_one
from repro.live import LiveConfig, Replanner, build_replanner, compare_reports, run_timeline

#: The acceptance scale: m = 50 machines.
CONFIG = LiveConfig(
    tasks=30,
    types=5,
    machines=50,
    heuristic="H4ls",
    seed=0,
    duration=40.0,
    mtbf=25.0,
    mttr=8.0,
    arrival_rate=0.1,
)

#: fail/recover pairs per measured round (2 warm replans each).
PAIRS_PER_ROUND = 10


def _spare_machine(replanner: Replanner) -> int:
    """A machine the initial mapping leaves unassigned."""
    assigned = set(replanner.initial.mapping)
    return next(
        u for u in range(replanner.instance.num_machines) if u not in assigned
    )


def _warm_round(replanner: Replanner, spare: int) -> None:
    """Fail + recover the spare machine, forcing the warm tier each time.

    Clearing the plan cache before every event keeps the replans off the
    O(1) cache tier — each one runs the real warm-start work.
    """
    for _ in range(PAIRS_PER_ROUND):
        replanner._plans.clear()
        replanner.apply(replanner.clock, "fail", spare)
        replanner._plans.clear()
        replanner.apply(replanner.clock, "recover", spare)


def _time(fn, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_live_replan_speedup_at_m50():
    """Acceptance: warm replan >= 2x faster than a cold solve at m=50."""
    # Bit-for-bit first: a warm timeline run must equal the cold
    # re-solve reference at this exact scale.
    compare_reports(run_timeline(CONFIG, warm=False), run_timeline(CONFIG, warm=True))

    replanner = build_replanner(CONFIG)
    spare = _spare_machine(replanner)
    initial = replanner.initial.mapping
    _warm_round(replanner, spare)  # warm-up + steady-state check
    assert replanner.mapping is not None
    assert tuple(int(u) for u in replanner.mapping) == initial
    cold_before = replanner.counters.cold

    warm_seconds = _time(lambda: _warm_round(replanner, spare)) / (
        2 * PAIRS_PER_ROUND
    )
    assert replanner.counters.cold == cold_before  # warm tier only

    heuristic = get_heuristic(CONFIG.heuristic)
    instance = replanner.instance
    cold_seconds = _time(lambda: solve_one(heuristic, instance))

    speedup = cold_seconds / warm_seconds
    print(
        f"\nm={CONFIG.machines}: warm replan {warm_seconds * 1e3:.2f} ms, "
        f"cold solve {cold_seconds * 1e3:.2f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 2.0


def test_bench_live_replan(benchmark):
    """Key benchmark: warm fail/recover replan round at m=50."""
    replanner = build_replanner(CONFIG)
    spare = _spare_machine(replanner)
    _warm_round(replanner, spare)  # warm up the persistent evaluator
    benchmark(lambda: _warm_round(replanner, spare))


#: The live workload's scale, where every cold tier is an R=1 H2 solve.
COLD_CONFIG = LiveConfig(tasks=50, types=5, machines=25, heuristic="H2", seed=0)


def test_bench_live_cold_replan(benchmark):
    """Key benchmark: one cold-tier replan (an assigned machine fails).

    Between timed rounds the failed machine recovers and the plan cache
    is cleared, so every timed failure of an assigned machine re-solves
    the surviving machines from scratch.
    """
    replanner = build_replanner(COLD_CONFIG)
    failed: list[int] = []

    def next_failure():
        if failed:
            replanner.apply(replanner.clock, "recover", failed[-1])
        replanner._plans.clear()
        failed.append(int(replanner.mapping[0]))
        return (replanner.clock, "fail", failed[-1]), {}

    record = benchmark.pedantic(replanner.apply, setup=next_failure, rounds=200)
    assert record.via == "cold"
    assert replanner.counters.cold == 1 + len(failed)  # the initial solve + every round


def test_bench_live_warm_replan(benchmark):
    """Key benchmark: one warm-tier replan (an unassigned machine fails).

    Each round's setup runs the cold H2 solve of a fresh replanner (so
    its plan cache holds only the full platform), and the timed failure
    of a machine that mapping leaves unassigned is one full descent from
    the H2 mapping on the surviving machines.
    """
    instance = build_replanner(COLD_CONFIG).instance
    spare = _spare_machine(Replanner(instance, COLD_CONFIG.heuristic))
    current: list[Replanner] = []

    def fresh_replanner():
        current[:] = [Replanner(instance, COLD_CONFIG.heuristic)]
        return (current[0].clock, "fail", spare), {}

    def fail(*args):
        return current[0].apply(*args)

    record = benchmark.pedantic(fail, setup=fresh_replanner, rounds=200)
    assert record.via == "warm"
    assert record.mapping != current[0].initial.mapping  # the descent moved


def test_bench_live_cold_solve(benchmark):
    """Companion: the from-scratch cold solve at the same scale."""
    replanner = build_replanner(CONFIG)
    heuristic = get_heuristic(CONFIG.heuristic)
    instance = replanner.instance
    benchmark(lambda: solve_one(heuristic, instance))
