"""H2 and H3 — binary-search heuristics (Algorithms 2 and 3).

Both heuristics perform a bisection on the target period:

* the lower bound starts at 0, the upper bound at the worst-case period
  (every task executed sequentially on the slowest machine, weighted by the
  worst-case expected product counts);
* for a candidate period, tasks are assigned greedily (sinks first); a task
  may only go to a machine that is type-compatible and whose completion
  time would not exceed the candidate period;
* if every task can be placed the candidate period is feasible and the
  upper bound shrinks, otherwise the lower bound grows.

They differ only in how candidate machines are *ranked* for a task:

* **H2 (potential optimization)** ranks machines by ``rank[i, u]`` — the
  rank of task ``Ti`` in the ascending ordering of column ``w[:, u]`` — and
  breaks ties by smaller ``w[i, u]``: a machine is preferred when the task
  is among the operations it performs fastest *relatively to its other
  tasks*.
* **H3 (heterogeneity)** prefers the most *heterogeneous* eligible machine
  (largest standard deviation of its ``w[:, u]`` column), keeping the more
  homogeneous machines in reserve for later (earlier) tasks; among equally
  heterogeneous machines it takes the smallest completion time.

Both rankings are static, so each heuristic states its preference once
per solve as ordered *tie groups* of machines (a
:class:`MachinePreference`), and every probe is one plain-Python
:func:`greedy_walk` over per-solve tables.  A walk also returns a proof
interval of target periods on which its outcome cannot change, which
lets :meth:`BinarySearchHeuristic.solve_mapping` settle many bisection
steps without walking.

The paper bisects integer millisecond values (``while max - min > 1``);
:class:`BinarySearchHeuristic` reproduces that behaviour but also accepts a
relative tolerance for ablation studies.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.instance import ProblemInstance, shared_successor_table
from ..core.mapping import Mapping
from ..exceptions import ReproError
from .base import Heuristic, backward_task_order, register_heuristic

__all__ = [
    "BinarySearchHeuristic",
    "RankBinarySearchHeuristic",
    "HeterogeneityBinarySearchHeuristic",
    "MachinePreference",
    "WalkTables",
    "greedy_walk",
]


def worst_case_period_bound(instance: ProblemInstance) -> float:
    """Upper bound used to initialise the bisection.

    Every task is charged its worst-case expected product count (computed
    with the *largest* failure rate over machines, cf. the ``MAXx_i`` bound
    of the MIP) and its slowest processing time, all on one machine.
    """
    worst_attempts = instance.failures.worst_case_attempts().tolist()
    app = instance.application
    # Worst-case x_i: product of worst attempt factors along the path to the sink.
    x_max = [1.0] * instance.num_tasks
    for task in app.reverse_topological_order():
        succ = app.successor(task)
        downstream = 1.0 if succ is None else x_max[succ]
        x_max[task] = downstream * worst_attempts[task]
    slowest_w = instance.processing_times.max(axis=1)
    return float(np.sum(np.asarray(x_max) * slowest_w))


@dataclass(frozen=True, slots=True)
class MachinePreference:
    """A heuristic's static machine preference: ordered tie groups per task.

    ``orders[i]`` lists every machine, most preferred first, tie groups
    contiguous and ascending by index inside a group.  ``mates[i][u]``
    holds the machines after ``u`` in ``u``'s tie group (empty for a
    singleton group).  Tasks with the same preference may share lists.
    """

    orders: Sequence[Sequence[int]]
    mates: Sequence[Sequence[Sequence[int]]]

    @classmethod
    def uniform(cls, groups: Sequence[Sequence[int]], num_tasks: int) -> "MachinePreference":
        """One list of tie groups shared by every task."""
        order = [u for group in groups for u in group]
        mates: list[tuple[int, ...]] = [()] * len(order)
        for group in groups:
            for position, u in enumerate(group):
                mates[u] = tuple(group[position + 1 :])
        return cls(orders=[order] * num_tasks, mates=[mates] * num_tasks)


@dataclass(frozen=True, slots=True)
class WalkTables:
    """The per-solve inputs of :func:`greedy_walk`, as plain Python lists.

    Built once per solve with ``.tolist()``, so a walk's inner loop
    touches only Python floats and ints.  ``keep[i][u]`` is
    ``1.0 - f[i, u]``.
    """

    order: tuple[int, ...]
    successors: list[int]
    types: list[int]
    keep: list[list[float]]
    w: list[list[float]]
    preference: MachinePreference
    num_machines: int
    num_types: int

    @classmethod
    def build(cls, instance: ProblemInstance, preference: MachinePreference) -> "WalkTables":
        successors = shared_successor_table([instance])
        types = instance.application.types.as_array.tolist()
        return cls(
            order=backward_task_order(instance),
            successors=[-1 if succ is None else succ for succ in successors],
            types=types,
            keep=(1.0 - instance.failure_rates).tolist(),
            w=instance.processing_times.tolist(),
            preference=preference,
            num_machines=instance.num_machines,
            num_types=len(set(types)),
        )


def greedy_walk(tables: WalkTables, target: float) -> tuple[list[int] | None, float]:
    """One greedy placement under period ``target``, with its proof.

    Tasks go sinks first.  Each task takes the first tie group of its
    preference holding an eligible machine whose completion time is
    ``<= target``, and in it the smallest completion time (lowest index
    on ties).  Eligibility is :meth:`AssignmentState.eligible_mask`'s
    ``nbFreeMachines / nbTypesToGo`` guard, and the arithmetic is
    :class:`AssignmentState`'s operation for operation, so the result
    is the sorted-preference probe's bit for bit.

    Returns ``(assignment, lo)`` when every task is placed: ``lo`` is the
    largest completion time accepted, and every target in ``[lo,
    target]`` yields the same assignment (accepted machines stay
    feasible, skipped ones stay infeasible).  Returns ``(None, hi)`` on
    failure: ``hi`` is the smallest completion time among the eligible
    machines rejected before each pick, the failing step included, and
    every target in ``[target, hi)`` fails the same way.
    """
    successors, types, keep, w = tables.successors, tables.types, tables.keep, tables.w
    orders, mates = tables.preference.orders, tables.preference.mates
    machine_type = [-1] * tables.num_machines
    accumulated = [0.0] * tables.num_machines
    x = [0.0] * len(types)
    assignment = [-1] * len(types)
    has_machine = [False] * (max(types) + 1)
    free, pending = tables.num_machines, tables.num_types
    lo, hi = -math.inf, math.inf
    for task in tables.order:
        succ = successors[task]
        demand = 1.0 if succ < 0 else x[succ]
        task_type = types[task]
        free_ok = free > (pending if has_machine[task_type] else pending - 1)
        keep_row, w_row = keep[task], w[task]
        # The first feasible machine in preference order opens its group.
        for pick in orders[task]:
            owner = machine_type[pick]
            if owner != task_type and (owner >= 0 or not free_ok):
                continue
            best = accumulated[pick] + demand / keep_row[pick] * w_row[pick]
            if best <= target:
                break
            if best < hi:
                hi = best
        else:
            return None, hi
        # The rest of its tie group may finish sooner.
        for u in mates[task][pick]:
            owner = machine_type[u]
            if owner != task_type and (owner >= 0 or not free_ok):
                continue
            completion = accumulated[u] + demand / keep_row[u] * w_row[u]
            if completion < best:
                pick, best = u, completion
        if best > lo:
            lo = best
        if machine_type[pick] < 0:
            machine_type[pick] = task_type
            if not has_machine[task_type]:
                has_machine[task_type] = True
                pending -= 1
            free -= 1
        products = demand / keep_row[pick]
        x[task] = products
        accumulated[pick] += products * w_row[pick]
        assignment[task] = pick
    return assignment, lo


class BinarySearchHeuristic(Heuristic):
    """Common bisection driver for H2 and H3.

    Parameters
    ----------
    integer_search:
        When true (paper behaviour) the bisection operates on integer
        period values and stops when ``max - min <= 1``; otherwise it stops
        when the relative gap drops below ``rel_tol``.
    rel_tol:
        Relative tolerance of the non-integer bisection.
    max_iterations:
        Hard cap on bisection steps (safety net).
    """

    def __init__(
        self,
        *,
        integer_search: bool = True,
        rel_tol: float = 1e-4,
        max_iterations: int = 128,
    ) -> None:
        self.integer_search = bool(integer_search)
        self.rel_tol = float(rel_tol)
        self.max_iterations = int(max_iterations)
        self._period_bound: float | None = None

    # -- machine ranking (heuristic-specific) -----------------------------------------
    @abc.abstractmethod
    def machine_preference(self, instance: ProblemInstance) -> MachinePreference:
        """The static machine preference of every task, as tie groups.

        Called after :meth:`prepare`.  A walk places a task in the first
        group holding a feasible machine, on that group's smallest
        completion time.
        """

    def prepare(self, instance: ProblemInstance) -> None:
        """Per-instance precomputation run once per solve.

        Caches the bisection's worst-case upper bound so the driver and
        any introspection share one value; subclasses extend it with
        their ranking data (ranks, heterogeneity) and must call
        ``super()``.
        """
        self._period_bound = worst_case_period_bound(instance)

    def walk_tables(self, instance: ProblemInstance) -> WalkTables:
        """The prepared instance's :func:`greedy_walk` inputs."""
        return WalkTables.build(instance, self.machine_preference(instance))

    # -- Heuristic API ------------------------------------------------------------------
    def solve_mapping(
        self, instance: ProblemInstance, rng: np.random.Generator | None = None
    ) -> tuple[Mapping, int, dict]:
        """Bisect the target period, walking only where no proof decides.

        The midpoints, iteration count, ``max_iterations`` cap and final
        bracket are those of a bisection that walks at every midpoint.
        A midpoint inside the current best walk's proof interval ``[lo,
        T]`` has the best's mapping, so it sets ``high`` unwalked; one
        inside the last failed walk's ``[T, hi)`` fails, so it sets
        ``low``.  ``metadata["walks"]`` counts the walks that ran.
        """
        self.prepare(instance)
        low = 0.0
        # The base prepare() caches the bound; recompute lazily if a
        # subclass overrode prepare() without extending it.
        if self._period_bound is None:
            self._period_bound = worst_case_period_bound(instance)
        high = self._period_bound
        tables = self.walk_tables(instance)
        best, best_lo = greedy_walk(tables, high)
        walks = 1
        failed_at, failed_below = math.inf, -math.inf
        if best is None:
            # The guard in AssignmentState guarantees eligibility whenever a
            # specialized mapping exists, so the upper bound is always
            # feasible; keep a defensive fallback nonetheless.
            failed_at, failed_below = high, best_lo
            high *= 2.0
            best, best_lo = greedy_walk(tables, high)
            walks += 1
            if best is None:
                raise ReproError(
                    "binary search failed to place every task even at the "
                    "doubled worst-case bound"
                )
        best_at = high
        iterations = 0
        while iterations < self.max_iterations:
            if self.integer_search:
                if high - low <= 1.0:
                    break
                mid = low + math.floor((high - low) / 2.0)
            else:
                if high - low <= self.rel_tol * max(high, 1.0):
                    break
                mid = (low + high) / 2.0
            iterations += 1
            if best_lo <= mid <= best_at:
                high = mid
                continue
            if failed_at <= mid < failed_below:
                low = mid
                continue
            candidate, proof = greedy_walk(tables, mid)
            walks += 1
            if candidate is not None:
                best, best_lo, best_at = candidate, proof, mid
                high = mid
            else:
                failed_at, failed_below = mid, proof
                low = mid
        mapping = Mapping(np.asarray(best, dtype=np.int64), instance.num_machines)
        return mapping, iterations, {"final_low": low, "final_high": high, "walks": walks}


@register_heuristic
class RankBinarySearchHeuristic(BinarySearchHeuristic):
    """Paper heuristic H2: binary search with per-machine rank priority."""

    name = "H2"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._ranks: np.ndarray | None = None

    def prepare(self, instance: ProblemInstance) -> None:
        super().prepare(instance)
        w = instance.processing_times
        # rank[i, u] = position of task i when the column w[:, u] is sorted
        # ascending (0 = the task this machine performs fastest).
        order = np.argsort(w, axis=0, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(w.shape[0])[:, np.newaxis], axis=0)
        self._ranks = ranks

    def machine_preference(self, instance: ProblemInstance) -> MachinePreference:
        assert self._ranks is not None
        # Singleton groups in (rank, w[task, u], u) order: lexsort's last
        # key is primary, and the sort is stable.
        order = np.lexsort((instance.processing_times, self._ranks), axis=1)
        singletons = [()] * instance.num_machines
        return MachinePreference(
            orders=order.tolist(), mates=[singletons] * instance.num_tasks
        )


@register_heuristic
class HeterogeneityBinarySearchHeuristic(BinarySearchHeuristic):
    """Paper heuristic H3: binary search preferring heterogeneous machines."""

    name = "H3"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._heterogeneity: np.ndarray | None = None

    def prepare(self, instance: ProblemInstance) -> None:
        super().prepare(instance)
        self._heterogeneity = instance.platform.machine_heterogeneity()

    def machine_preference(self, instance: ProblemInstance) -> MachinePreference:
        assert self._heterogeneity is not None
        # Most heterogeneous first, in groups of exactly equal
        # heterogeneity (float ==, so -0.0 ties 0.0 as in a sort); the
        # walk breaks ties inside a group by completion time, then index.
        keys = (-self._heterogeneity).tolist()
        groups: list[list[int]] = []
        for u in sorted(range(instance.num_machines), key=keys.__getitem__):
            if groups and keys[u] == keys[groups[-1][0]]:
                groups[-1].append(u)
            else:
                groups.append([u])
        return MachinePreference.uniform(groups, instance.num_tasks)
