"""Micro-benchmarks of the individual solvers and of the evaluation kernel.

These benchmarks time the building blocks (rather than whole figures) so
that performance regressions in the hot paths — period evaluation, the
greedy heuristics, the bisection heuristics, the Hungarian and bottleneck
assignment solvers and the MIP — show up individually in ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import evaluate
from repro.exact.hungarian import bottleneck_assignment, min_cost_assignment
from repro.exact.milp import solve_specialized_milp
from repro.generators.scenarios import ScenarioConfig, sample_instance
from repro.heuristics import get_heuristic
from repro.simulation.rng import RandomStreamFactory
from tests.helpers import make_random_instance


@pytest.fixture(scope="module")
def medium_instance():
    """Paper-scale instance for heuristic timing: n=100, p=5, m=50."""
    return make_random_instance(100, 5, 50, seed=7)


def test_bench_sample_instance(benchmark):
    """Key benchmark: draw and validate one n=100, p=5, m=50 instance.

    Most of it is setting the instance up: the application, the platform
    with its type-consistency check, and the failure model.
    """
    config = ScenarioConfig(
        name="bench-sample", num_machines=50, num_types=5, sweep="tasks", sweep_values=(100,)
    )
    streams = RandomStreamFactory(7)
    instance = benchmark(sample_instance, config, 100, 0, streams)
    assert (instance.num_tasks, instance.num_types, instance.num_machines) == (100, 5, 50)


def test_bench_evaluate_mapping(benchmark, medium_instance):
    mapping = get_heuristic("H4w").solve(medium_instance).mapping
    result = benchmark(evaluate, medium_instance, mapping)
    assert result.period > 0


def test_bench_heuristic_h4w(benchmark, medium_instance):
    heuristic = get_heuristic("H4w")
    result = benchmark(heuristic.solve, medium_instance)
    assert result.period > 0


def test_bench_heuristic_h4(benchmark, medium_instance):
    heuristic = get_heuristic("H4")
    result = benchmark(heuristic.solve, medium_instance)
    assert result.period > 0


def test_bench_heuristic_h2_binary_search(benchmark, medium_instance):
    heuristic = get_heuristic("H2")
    result = benchmark(heuristic.solve, medium_instance)
    assert result.period > 0


def test_bench_heuristic_h3_binary_search(benchmark, medium_instance):
    heuristic = get_heuristic("H3")
    result = benchmark(heuristic.solve, medium_instance)
    assert result.period > 0


def test_bench_heuristic_h1_random(benchmark, medium_instance):
    heuristic = get_heuristic("H1")
    rng = np.random.default_rng(0)
    result = benchmark(heuristic.solve, medium_instance, rng)
    assert result.period > 0


def test_bench_hungarian_100x100(benchmark):
    rng = np.random.default_rng(3)
    cost = rng.uniform(0.0, 1.0, size=(100, 100))
    columns = benchmark(min_cost_assignment, cost)
    assert len(set(columns.tolist())) == 100


def test_bench_bottleneck_assignment_100x100(benchmark):
    """Figure 9's one-to-one optimum: a bottleneck assignment at n = m = 100."""
    rng = np.random.default_rng(3)
    cost = rng.uniform(0.0, 1.0, size=(100, 100))
    columns = benchmark(bottleneck_assignment, cost)
    assert len(set(columns.tolist())) == 100


def test_bench_milp_small_instance(benchmark):
    instance = make_random_instance(8, 2, 4, seed=9)
    result = benchmark.pedantic(
        solve_specialized_milp, args=(instance,), kwargs={"time_limit": 30.0}, rounds=1, iterations=1
    )
    assert result.is_optimal
