"""Additional baseline mapping strategies (not from the paper).

The paper compares its heuristics against H1 (random grouping) and against
exact solvers.  For sanity checking and ablation we provide three further
baselines that downstream users of the library may find handy:

* :class:`UniformRandomSpecialized` — a *uniform* random valid specialized
  mapping (H1 is biased towards opening new groups; this one samples a
  machine for each type uniformly first, then assigns every task of the
  type to one of the machines dedicated to it uniformly);
* :class:`RoundRobinHeuristic` — deterministic round-robin of types over
  machines, then of tasks over the machines of their type;
* :class:`GreedyLoadBalanceHeuristic` — a forward (sources-first) variant
  of H4 used by the traversal-direction ablation benchmark.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..exceptions import ReproError
from .base import Heuristic, register_heuristic, start_owners, worst_case_products

__all__ = [
    "UniformRandomSpecialized",
    "RoundRobinHeuristic",
    "GreedyLoadBalanceHeuristic",
]


def _partition_machines_among_types(
    instance: ProblemInstance, rng: np.random.Generator | None, up: np.ndarray | None
) -> dict[int, list[int]]:
    """Split the up machines into non-empty groups, one per used task type.

    Every used type receives at least one machine; remaining machines are
    spread (randomly when an RNG is given, round-robin otherwise).
    """
    used_types = instance.application.types.used_types()
    if up is None:
        machine_indices = list(range(instance.num_machines))
    else:
        machine_indices = np.flatnonzero(up).tolist()
    if len(used_types) > len(machine_indices):
        raise ReproError("more task types than machines; no specialized mapping exists")
    if rng is not None:
        rng.shuffle(machine_indices)
    groups: dict[int, list[int]] = {t: [] for t in used_types}
    # One machine per type first, then distribute the rest.
    for i, t in enumerate(used_types):
        groups[t].append(machine_indices[i])
    rest = machine_indices[len(used_types) :]
    for i, machine in enumerate(rest):
        if rng is not None:
            t = used_types[int(rng.integers(len(used_types)))]
        else:
            t = used_types[i % len(used_types)]
        groups[t].append(machine)
    return groups


@register_heuristic
class UniformRandomSpecialized(Heuristic):
    """Uniform random specialized mapping (baseline, not in the paper)."""

    name = "RandomUniform"
    randomized = True

    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        if rng is None:  # pragma: no cover - Heuristic.solve always passes one
            rng = np.random.default_rng()
        groups = _partition_machines_among_types(instance, rng, up)
        assignment = np.empty(instance.num_tasks, dtype=np.int64)
        for task in range(instance.num_tasks):
            machines = groups[instance.type_of(task)]
            assignment[task] = machines[int(rng.integers(len(machines)))]
        return Mapping(assignment, instance.num_machines), 1, {}


@register_heuristic
class RoundRobinHeuristic(Heuristic):
    """Deterministic round-robin specialized mapping (baseline)."""

    name = "RoundRobin"

    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        groups = _partition_machines_among_types(instance, None, up)
        cursor: dict[int, int] = defaultdict(int)
        assignment = np.empty(instance.num_tasks, dtype=np.int64)
        for task in range(instance.num_tasks):
            task_type = instance.type_of(task)
            machines = groups[task_type]
            assignment[task] = machines[cursor[task_type] % len(machines)]
            cursor[task_type] += 1
        return Mapping(assignment, instance.num_machines), 1, {}


@register_heuristic
class GreedyLoadBalanceHeuristic(Heuristic):
    """Forward-traversal variant of H4 (used by the traversal ablation).

    Walks the tasks sources-first; because the downstream expected-product
    counts are then unknown, the criterion uses the worst-case attempts
    factor of the path below each task as an estimate.  Comparing this
    heuristic against H4 quantifies the value of the paper's backward
    traversal.
    """

    name = "H4-forward"

    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        app = instance.application
        # Estimate of x_i assuming worst-case failures downstream.
        x_estimate = worst_case_products(instance, up)
        types = app.types.as_array.tolist()
        w = instance.processing_times.tolist()
        attempts = instance.failures.attempts_factors.tolist()
        # The backward walks' start state and free-machine guard (see
        # repro.heuristics.base).
        machine_type = start_owners(up, instance.num_machines, max(types) + 1)
        accumulated = [0.0] * instance.num_machines
        assignment = [-1] * instance.num_tasks
        has_machine = [False] * (max(types) + 1)
        free, pending = machine_type.count(-1), len(set(types))
        for task in app.topological_order():
            task_type = types[task]
            free_ok = free > (pending if has_machine[task_type] else pending - 1)
            w_row, attempts_row = w[task], attempts[task]
            best, best_cost = -1, math.inf
            for u, owner in enumerate(machine_type):
                if owner != task_type and (owner >= 0 or not free_ok):
                    continue
                cost = accumulated[u] + x_estimate[task] * w_row[u] * attempts_row[u]
                if cost < best_cost:
                    best, best_cost = u, cost
            if best < 0:
                raise ReproError("no eligible machine; instance has more types than machines")
            if machine_type[best] < 0:
                machine_type[best] = task_type
                if not has_machine[task_type]:
                    has_machine[task_type] = True
                    pending -= 1
                free -= 1
            accumulated[best] += x_estimate[task] * w_row[best] * attempts_row[best]
            assignment[task] = best

        return Mapping(np.asarray(assignment, dtype=np.int64), instance.num_machines), 1, {}
