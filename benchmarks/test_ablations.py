"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify the impact of three design
decisions:

* **Traversal direction** — the paper assigns tasks sinks-first so that the
  expected product counts are exact during assignment; the ablation
  compares H4 against its forward-traversal variant.
* **Bisection granularity** — H2 bisects integer millisecond values (as in
  the paper); the ablation compares against a relative-tolerance bisection
  of the same greedy walk, written out here (the library has one mode).
* **Analytic vs simulated period** — the stochastic simulator must agree
  with expression (1); the ablation measures the deviation across mappings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Mapping, evaluate
from repro.heuristics import get_heuristic
from repro.heuristics.binary_search import (
    MAX_BISECTION_STEPS,
    greedy_walk,
    worst_case_period_bound,
)
from repro.simulation import simulate_mapping
from tests.helpers import make_random_instance


def _instances(count: int, *, num_tasks: int = 40, num_types: int = 5, num_machines: int = 10):
    return [make_random_instance(num_tasks, num_types, num_machines, seed=seed) for seed in range(count)]


def test_ablation_traversal_direction(benchmark):
    """Backward (paper) vs forward greedy traversal for the H4 criterion."""
    instances = _instances(10)

    def run() -> tuple[float, float]:
        backward = [get_heuristic("H4").solve(inst).period for inst in instances]
        forward = [get_heuristic("H4-forward").solve(inst).period for inst in instances]
        return float(np.mean(backward)), float(np.mean(forward))

    backward_mean, forward_mean = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation traversal: backward={backward_mean:.1f} ms, forward={forward_mean:.1f} ms")
    # The paper's backward traversal should not lose to the forward variant.
    assert backward_mean <= forward_mean * 1.05


def _relative_bisection(instance, rel_tol: float = 1e-4) -> tuple[float, int]:
    """``(period, iterations)`` of H2's walk bisected to a relative tolerance."""
    tables, preference = get_heuristic("H2").walk_inputs(instance)
    low, high = 0.0, worst_case_period_bound(instance)
    best, _ = greedy_walk(tables, preference, high)
    assert best is not None  # the worst-case bound is always feasible
    iterations = 0
    while iterations < MAX_BISECTION_STEPS and high - low > rel_tol * max(high, 1.0):
        mid = (low + high) / 2.0
        iterations += 1
        candidate, _ = greedy_walk(tables, preference, mid)
        if candidate is not None:
            best, high = candidate, mid
        else:
            low = mid
    mapping = Mapping(np.asarray(best, dtype=np.int64), instance.num_machines)
    return evaluate(instance, mapping).period, iterations


def test_ablation_bisection_granularity(benchmark):
    """Integer-millisecond bisection (paper) vs relative-tolerance bisection."""
    instances = _instances(8, num_tasks=30)

    def run() -> dict:
        integer = [get_heuristic("H2").solve(inst) for inst in instances]
        relative = [_relative_bisection(inst) for inst in instances]
        return {
            "integer_period": float(np.mean([r.period for r in integer])),
            "relative_period": float(np.mean([period for period, _ in relative])),
            "integer_iterations": float(np.mean([r.iterations for r in integer])),
            "relative_iterations": float(np.mean([steps for _, steps in relative])),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation bisection: {stats}")
    # Both bisections land on essentially the same mapping quality.
    assert stats["integer_period"] == pytest.approx(stats["relative_period"], rel=0.02)


def test_ablation_simulation_validates_analytic_period(benchmark):
    """The stochastic simulator agrees with the analytic period model."""
    instances = _instances(4, num_tasks=12, num_types=3, num_machines=6)

    def run() -> float:
        deviations = []
        for index, inst in enumerate(instances):
            mapping = get_heuristic("H4w").solve(inst).mapping
            analytic = evaluate(inst, mapping).period
            metrics = simulate_mapping(
                inst, mapping, 300, rng=np.random.default_rng(index), max_events=2_000_000
            )
            deviations.append(abs(metrics.empirical_period - analytic) / analytic)
        return float(np.mean(deviations))

    mean_deviation = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation simulation: mean |simulated - analytic| / analytic = {mean_deviation:.3%}")
    assert mean_deviation < 0.10
