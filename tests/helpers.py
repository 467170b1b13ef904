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
from repro.heuristics.base import AssignmentState
from repro.heuristics.binary_search import worst_case_period_bound
from repro.simulation.rng import RandomStreamFactory

__all__ = [
    "dfs_bottleneck_assignment",
    "lexsort_first_feasible",
    "make_random_instance",
    "per_instance_series",
    "reference_bisection",
    "reference_try_period",
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


def _reference_order(name: str, instance: ProblemInstance, state, task: int) -> np.ndarray:
    """H2's or H3's full machine preference for ``task``, by sorting.

    H2: ascending ``(rank[task, u], w[task, u], u)`` where ``rank[i, u]``
    is task ``i``'s position in the stable ascending sort of column
    ``w[:, u]``.  H3: ascending ``(-heterogeneity[u], exec[u], u)`` with
    the state's projected completion times.
    """
    w = instance.processing_times
    if name == "H2":
        column_order = np.argsort(w, axis=0, kind="stable")
        ranks = np.empty_like(column_order)
        for u in range(w.shape[1]):
            ranks[column_order[:, u], u] = np.arange(w.shape[0])
        return np.lexsort((w[task], ranks[task]))
    if name == "H3":
        return np.lexsort(
            (
                np.arange(instance.num_machines),
                state.candidate_exec_vector(task),
                -instance.platform.machine_heterogeneity(),
            )
        )
    raise ValueError(f"no reference order for {name!r}")


def reference_try_period(
    name: str, instance: ProblemInstance, target_period: float
) -> np.ndarray | None:
    """One greedy probe of H2/H3 on an :class:`AssignmentState`.

    Sinks first, each task goes to the first machine of the heuristic's
    sorted preference that is eligible and whose completion time stays
    ``<= target_period``.  Returns the ``(n,)`` assignment, or ``None``
    when some task has no such machine.
    """
    state = AssignmentState(instance)
    while not state.is_complete():
        task = state.next_task()
        feasible = state.eligible_mask(task) & (
            state.candidate_exec_vector(task) <= target_period
        )
        if not feasible.any():
            return None
        order = _reference_order(name, instance, state, task)
        ranked = np.flatnonzero(feasible[order])
        state.assign(task, int(order[ranked[0]]))
    return state.assignment.copy()


def reference_bisection(
    name: str,
    instance: ProblemInstance,
    *,
    integer_search: bool = True,
    rel_tol: float = 1e-4,
    max_iterations: int = 128,
    bound: float | None = None,
) -> tuple[np.ndarray | None, int, float, float, int]:
    """The H2/H3 bisection with a full probe at every midpoint.

    The oracle of ``BinarySearchHeuristic.solve_mapping``: returns
    ``(assignment, iterations, final_low, final_high, probes)``, with a
    ``None`` assignment when even the doubled upper bound fails.
    ``probes`` counts the greedy placements run; ``bound`` replaces the
    worst-case upper bound the bisection starts from.
    """
    low = 0.0
    high = worst_case_period_bound(instance) if bound is None else bound
    best = reference_try_period(name, instance, high)
    probes = 1
    if best is None:
        high *= 2.0
        best = reference_try_period(name, instance, high)
        probes += 1
        if best is None:
            return None, 0, low, high, probes
    iterations = 0
    while iterations < max_iterations:
        if integer_search:
            if high - low <= 1.0:
                break
            mid = low + math.floor((high - low) / 2.0)
        else:
            if high - low <= rel_tol * max(high, 1.0):
                break
            mid = (low + high) / 2.0
        iterations += 1
        candidate = reference_try_period(name, instance, mid)
        probes += 1
        if candidate is not None:
            best, high = candidate, mid
        else:
            low = mid
    return best, iterations, low, high, probes
