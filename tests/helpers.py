"""Shared helpers importable from any test module (``from tests.helpers import ...``)."""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.stats import Series
from repro.core import FailureModel, Platform, ProblemInstance
from repro.exact.milp import solve_specialized_milp
from repro.exact.one_to_one import optimal_one_to_one
from repro.exceptions import SolverError
from repro.experiments.providers import MIP_LABEL, OTO_LABEL
from repro.generators import (
    random_chain_application,
    random_failure_rates,
    random_processing_times,
)
from repro.generators.scenarios import ScenarioConfig, sample_instance
from repro.heuristics import get_heuristic
from repro.simulation.rng import RandomStreamFactory

__all__ = [
    "dfs_bottleneck_assignment",
    "lexsort_first_feasible",
    "make_random_instance",
    "per_instance_series",
]


def make_random_instance(
    num_tasks: int,
    num_types: int,
    num_machines: int,
    seed: int = 0,
    *,
    f_low: float = 0.005,
    f_high: float = 0.02,
    task_dependent: bool = False,
) -> ProblemInstance:
    """Build a random paper-style linear-chain instance."""
    generator = np.random.default_rng(seed)
    app = random_chain_application(num_tasks, num_types, generator)
    w = random_processing_times(app.types, num_machines, generator)
    f = random_failure_rates(
        num_tasks,
        num_machines,
        generator,
        low=f_low,
        high=f_high,
        task_dependent=task_dependent,
    )
    return ProblemInstance(app, Platform(w, types=app.types), FailureModel(f))


def per_instance_series(
    scenario: ScenarioConfig,
    seed: int,
    *,
    include_milp: bool | None = None,
    include_one_to_one: bool | None = None,
    milp_time_limit: float = 30.0,
) -> tuple[dict[str, Series], int]:
    """The engine's equivalence oracle: every cell solved per instance.

    Each (sweep point, repetition) instance is solved by every heuristic
    on that cell's own stream (``Heuristic.solve``), then by the optimal
    one-to-one mapping and the MIP (NaN, plus one failure, on any
    non-optimal result).  Returns ``({curve label: Series},
    milp_failures)``; the block engine must match it bit for bit.
    """
    use_milp = scenario.include_milp if include_milp is None else include_milp
    use_oto = (
        scenario.include_one_to_one if include_one_to_one is None else include_one_to_one
    )
    series = {name: Series(label=name) for name in scenario.heuristics}
    if use_oto:
        series[OTO_LABEL] = Series(label=OTO_LABEL)
    if use_milp:
        series[MIP_LABEL] = Series(label=MIP_LABEL)
    streams = RandomStreamFactory(seed)
    milp_failures = 0
    for x in scenario.sweep_values:
        for repetition in range(scenario.repetitions):
            instance = sample_instance(scenario, x, repetition, streams)
            for name in scenario.heuristics:
                rng = streams.stream(f"heuristic/{name}/{x}", repetition)
                series[name].add(x, get_heuristic(name).solve(instance, rng).period)
            if use_oto:
                try:
                    period = optimal_one_to_one(instance).period
                except SolverError:
                    period = math.nan
                series[OTO_LABEL].add(x, period)
            if use_milp:
                milp = solve_specialized_milp(instance, time_limit=milp_time_limit)
                milp_failures += not milp.is_optimal
                series[MIP_LABEL].add(x, milp.period if milp.is_optimal else math.nan)
    return series, milp_failures


def lexsort_first_feasible(
    feasible: np.ndarray, primary: np.ndarray, secondary: np.ndarray
) -> np.ndarray:
    """The greedy pick by sorting, the oracle of the ``first_feasible`` kernel.

    Per row of the ``(R, m)`` arguments: sort the machines by ascending
    ``(primary, secondary, index)`` with a stable ``np.lexsort``, then
    take the first feasible one (the order's head when none is).
    """
    index = np.broadcast_to(np.arange(feasible.shape[1]), feasible.shape)
    order = np.lexsort((index, secondary, primary))
    first = np.argmax(np.take_along_axis(feasible, order, axis=1), axis=1)
    return np.take_along_axis(order, first[:, np.newaxis], axis=1)[:, 0]


def dfs_bottleneck_assignment(cost: np.ndarray) -> np.ndarray:
    """Bottleneck assignment by threshold bisection and DFS augmenting paths.

    A pure-Python oracle for :func:`repro.exact.hungarian.bottleneck_assignment`:
    the same ``np.unique`` threshold bisection, each threshold decided by
    Kuhn's recursive augmenting-path matching.
    """
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape

    def perfect_matching(adjacency: np.ndarray) -> np.ndarray | None:
        match_col = np.full(m, -1, dtype=np.int64)
        match_row = np.full(n, -1, dtype=np.int64)

        def augment(row: int, visited: np.ndarray) -> bool:
            for col in np.flatnonzero(adjacency[row]):
                if visited[col]:
                    continue
                visited[col] = True
                if match_col[col] == -1 or augment(int(match_col[col]), visited):
                    match_col[col] = row
                    match_row[row] = col
                    return True
            return False

        for row in range(n):
            if not augment(row, np.zeros(m, dtype=bool)):
                return None
        return match_row

    thresholds = np.unique(c)
    lo, hi = 0, thresholds.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        matching = perfect_matching(c <= thresholds[mid])
        if matching is not None:
            best, hi = matching, mid - 1
        else:
            lo = mid + 1
    assert best is not None
    return best
