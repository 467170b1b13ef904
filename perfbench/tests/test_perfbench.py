"""Fast checks of the benchmark itself, at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import compare, figures, live, service
from perfbench import run as bench
from perfbench.clock import NOMINAL_S, ReferenceClock
from perfbench.common import ROOT, WORK
from perfbench.layers import LayerClock

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_FIGURES = (("fig5", 6, 1, False), ("fig6", 3, 1, True), ("fig9", 2, 1, False))
TINY_LIVE = dict(
    tasks=12,
    types=3,
    machines=8,
    heuristic="H2",
    duration=100.0,
    mtbf=60.0,
    mttr=15.0,
    arrival_rate=0.0,
)


@pytest.fixture
def tiny(monkeypatch):
    bench.use_checkout_sources()
    monkeypatch.setattr(figures, "PASS", TINY_FIGURES)
    monkeypatch.setattr(live, "SCENARIO", TINY_LIVE)
    monkeypatch.setattr(live, "TRACED_TIMELINES", 2)
    monkeypatch.setattr(service, "SHAPES", (("H2", 12, 3, 6), ("H4ls", 10, 2, 5)))
    monkeypatch.setattr(service, "TRACED_REQUESTS", 16)


def _traced_record(workload: str, seed: int) -> dict:
    result = bench.run_workload(workload, seed, 0.0, True)
    return bench.record(workload, seed, 0.0, True, result.payload())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_declared_metric_is_present_finite_and_has_a_unit(tiny, workload, trace):
    result = bench.run_workload(workload, seed=3, seconds=0.2, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result.metrics) == [metric["name"] for metric in declared]
    for metric in declared:
        value, unit = result.metrics[metric["name"]]
        assert math.isfinite(value), metric["name"]
        assert unit == metric["unit"] and unit
        if not trace:
            assert value > 0, metric["name"]
    # Unmodified code: every op attempted is correct.
    assert result.attempted > 0
    assert result.failed == 0 and result.error_rate == 0.0


def test_a_different_valid_mapping_counts_in_the_error_rate(tiny, monkeypatch):
    from repro.heuristics import get_heuristic

    figures.setup()
    h4 = get_heuristic("H4")
    monkeypatch.setattr(
        type(get_heuristic("H4w")), "solve_batch", lambda self, instances: h4.solve_batch(instances)
    )
    result = figures.run(seed=3, seconds=0.0, trace=False)
    assert result.attempted > 0
    assert 0 < result.failed <= result.attempted
    assert not result.correct


def test_compare_names_the_layer_with_a_planted_sleep(tiny, monkeypatch):
    from repro.batch.evaluation import InstanceStack

    before = [_traced_record("figures", 3)]
    periods = InstanceStack.periods

    def slow_periods(self, assignments):
        time.sleep(0.02)
        return periods(self, assignments)

    monkeypatch.setattr(InstanceStack, "periods", slow_periods)
    after = [_traced_record("figures", 3)]

    deltas = compare.layer_deltas(before, after, SPEC, "figures")
    assert deltas[0][0] == "batch.score_s" and deltas[0][3] > 0.1
    report = compare.compare(before, after, SPEC)
    first_layer = report.split("largest first:\n", 1)[1].splitlines()[0]
    assert first_layer.split()[0] == "batch.score_s"


def test_reference_clock_scales_by_the_mean_kernel_time_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with ReferenceClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert clock.ticks > 10
    # A 0.3 s interval is widened to a 1 s window, which holds every tick.
    everything = clock.kernel_seconds(float("-inf"), float("inf"))
    scale = NOMINAL_S * clock.ticks / everything
    assert clock.scale(start, end) == pytest.approx(scale)
    inside = clock.kernel_seconds(start, end)
    assert 0 < inside < end - start
    assert clock.reference(start, end) == pytest.approx((end - start - inside) * scale)
    assert clock.reference(start, end, exclusive=False) == pytest.approx((end - start) * scale)


def test_layer_clock_charges_nested_time_to_the_inner_layer():
    clock = LayerClock()
    inner = clock.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    clock.wrap("outer", outer_body)()
    outer = clock.times["outer"]
    assert outer.total >= 0.03
    assert 0.009 <= outer.self_time < 0.02
    assert clock.times["inner"].self_time >= 0.02
    assert clock.attributed_seconds() == pytest.approx(outer.total)


def test_layer_clock_puts_the_program_back(tiny):
    from repro.backend import get_backend
    from repro.batch.evaluation import InstanceStack
    from repro.experiments import providers
    from repro.heuristics import base

    def state():
        return (
            base.solve_one,
            providers.solve_stack,
            InstanceStack.__dict__["periods"],
            providers.CellBlock.__dict__["sample"],
            get_backend(),
        )

    before = state()
    with LayerClock():
        assert base.solve_one is not before[0]
        assert get_backend() is not before[-1]
    assert all(a is b for a, b in zip(state(), before))


def test_refuses_to_run_without_the_program():
    checkout = WORK / "bare-checkout"
    shutil.rmtree(checkout, ignore_errors=True)
    checkout.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
        shutil.copytree(
            ROOT / "perfbench",
            checkout / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "figures",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=checkout,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
