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

Both rankings are static and computed one machine column at a time, so
each heuristic states its preference once per instance as ordered *tie
groups* of machines (a :class:`MachinePreference`, kept with the walk
tables by :meth:`~repro.heuristics.base.Heuristic.walk_inputs`), and
every probe is one plain-Python :func:`greedy_walk` over those tables.
H2's order is computed per distinct ``w`` row, not per task
(:func:`rank_orders`): a task's rank adds, in every column, the same
count of earlier tasks sharing its row, which cannot reorder the
machines, so the tasks of one type share one order unless their row
ties another row in some column.
Only the bisection's upper bound depends on which machines are up.  A
walk also returns a proof interval of target periods on which its
outcome cannot change, which lets
:meth:`BinarySearchHeuristic.solve_mapping` settle many bisection steps
without walking.

The paper bisects integer millisecond values (``while max - min > 1``),
and so does :class:`BinarySearchHeuristic`, for at most
:data:`MAX_BISECTION_STEPS` steps.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..exceptions import ReproError
from .base import Heuristic, WalkTables, register_heuristic, worst_case_products

__all__ = [
    "BinarySearchHeuristic",
    "RankBinarySearchHeuristic",
    "HeterogeneityBinarySearchHeuristic",
    "MachinePreference",
    "greedy_walk",
    "MAX_BISECTION_STEPS",
]

#: Hard cap on bisection steps, a safety net: the integer bracket
#: closes in about ``log2`` of the worst-case bound steps.
MAX_BISECTION_STEPS = 128


def worst_case_period_bound(
    instance: ProblemInstance, up: np.ndarray | None = None
) -> float:
    """Upper bound used to initialise the bisection.

    Every task is charged its worst-case expected product count
    (:func:`~repro.heuristics.base.worst_case_products`, cf. the
    ``MAXx_i`` bound of the MIP) and its slowest processing time, all on
    one machine.  With an up-mask ``up``, both maxima run over the up
    machines only.
    """
    w = instance.processing_times if up is None else instance.processing_times[:, up]
    return float(np.sum(np.asarray(worst_case_products(instance, up)) * w.max(axis=1)))


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


def greedy_walk(
    tables: WalkTables,
    preference: MachinePreference,
    target: float,
    owners: Sequence[int] | None = None,
) -> tuple[list[int] | None, float]:
    """One greedy placement under period ``target``, with its proof.

    The walk starts from ``owners``, a :meth:`WalkTables.owners` row
    (every machine free when ``None``).  Tasks go sinks first.  Each
    task takes the first tie group of its ``preference`` holding an
    eligible machine whose completion time is ``<= target``, and in it
    the smallest completion time (lowest index on ties).  Eligibility is
    the walks' ``nbFreeMachines / nbTypesToGo`` guard (see
    :mod:`repro.heuristics.base`), so the result is that of a probe that
    sorts every machine by the preference and takes the first eligible
    one meeting ``target``.

    Returns ``(assignment, lo)`` when every task is placed: ``lo`` is the
    largest completion time accepted, and every target in ``[lo,
    target]`` yields the same assignment (accepted machines stay
    feasible, skipped ones stay infeasible).  Returns ``(None, hi)`` on
    failure: ``hi`` is the smallest completion time among the eligible
    machines rejected before each pick, the failing step included, and
    every target in ``[target, hi)`` fails the same way.
    """
    successors, types, keep, w = tables.successors, tables.types, tables.keep, tables.w
    orders, mates = preference.orders, preference.mates
    machine_type = [-1] * tables.num_machines if owners is None else list(owners)
    accumulated = [0.0] * tables.num_machines
    x = [0.0] * len(types)
    assignment = [-1] * len(types)
    has_machine = [False] * (max(types) + 1)
    free, pending = machine_type.count(-1), tables.num_types
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

    The bisection operates on integer period values and stops when
    ``max - min <= 1`` (the paper's behaviour), or after
    :data:`MAX_BISECTION_STEPS` steps.
    """

    # -- machine ranking (heuristic-specific) -----------------------------------------
    @abc.abstractmethod
    def machine_preference(
        self, instance: ProblemInstance, tables: WalkTables
    ) -> MachinePreference:
        """The static machine preference of every task, as tie groups.

        Called after :meth:`prepare`, with the solve's walk tables.  A
        walk places a task in the first group holding a feasible machine,
        on that group's smallest completion time.
        """

    def prepare(self, instance: ProblemInstance) -> None:
        """Per-instance ranking data (ranks, heterogeneity) for
        :meth:`machine_preference`; a hook for subclasses."""

    def build_walk_inputs(
        self, instance: ProblemInstance
    ) -> tuple[WalkTables, MachinePreference]:
        self.prepare(instance)
        tables = WalkTables.build(instance)
        return tables, self.machine_preference(instance, tables)

    # -- Heuristic API ------------------------------------------------------------------
    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        """Bisect the target period, walking only where no proof decides.

        The midpoints, iteration count, step cap and final
        bracket are those of a bisection that walks at every midpoint and
        stops after a step that leaves the bracket unchanged.
        A midpoint inside the current best walk's proof interval ``[lo,
        T]`` has the best's mapping, so it sets ``high`` unwalked; one
        inside the last failed walk's ``[T, hi)`` fails, so it sets
        ``low``.  ``metadata["walks"]`` counts the walks that ran.
        """
        tables, preference = self.walk_inputs(instance)
        owners = tables.owners(up)
        low = 0.0
        high = worst_case_period_bound(instance, up)
        best, best_lo = greedy_walk(tables, preference, high, owners)
        walks = 1
        failed_at, failed_below = math.inf, -math.inf
        if best is None:
            # The walk's free-machine guard guarantees eligibility whenever
            # a specialized mapping exists, so the upper bound is always
            # feasible; keep a defensive fallback nonetheless.
            failed_at, failed_below = high, best_lo
            high *= 2.0
            best, best_lo = greedy_walk(tables, preference, high, owners)
            walks += 1
            if best is None:
                raise ReproError(
                    "binary search failed to place every task even at the "
                    "doubled worst-case bound"
                )
        best_at = high
        iterations = 0
        while iterations < MAX_BISECTION_STEPS and high - low > 1.0:
            mid = low + math.floor((high - low) / 2.0)
            iterations += 1
            bracket = (low, high)
            if best_lo <= mid <= best_at:
                high = mid
            elif failed_at <= mid < failed_below:
                low = mid
            else:
                candidate, proof = greedy_walk(tables, preference, mid, owners)
                walks += 1
                if candidate is not None:
                    best, best_lo, best_at = candidate, proof, mid
                    high = mid
                else:
                    failed_at, failed_below = mid, proof
                    low = mid
            if (low, high) == bracket:
                # The same midpoint again (an integer ``low`` with ``1 <
                # high - low < 2``): every later step would repeat this one.
                break
        mapping = Mapping(np.asarray(best, dtype=np.int64), instance.num_machines)
        return mapping, iterations, {"final_low": low, "final_high": high, "walks": walks}


def rank_orders(w: np.ndarray, tables: WalkTables) -> list[list[int]]:
    """H2's machine order of every task: ascending ``(rank[i, u], w[i, u], u)``.

    ``rank[i, u]`` is task ``i``'s position in the stable ascending sort
    of column ``w[:, u]``: the count of tasks ``j`` with ``w[j, u] < w[i,
    u]``, plus those with ``j < i`` and ``w[j, u] == w[i, u]``.  When no
    other distinct row of ``tables`` ties task ``i``'s row in any column,
    the second term counts only tasks sharing ``i``'s row, the same in
    every column, so it cannot change the order: all tasks of one row
    (a type, on a type-consistent platform) share one order, sorted by
    the first term alone.  Only tasks whose row ties another in some
    column need their own ranks.
    """
    distinct = w[tables.rows]
    counts = np.bincount(tables.row_of, minlength=len(tables.rows))
    by_value = np.argsort(distinct, axis=0, kind="stable")
    weights = counts[by_value]
    # below[k, u]: the tasks whose rows sort before row k in column u.
    below = np.empty_like(weights)
    np.put_along_axis(below, by_value, np.cumsum(weights, axis=0) - weights, axis=0)
    values = np.take_along_axis(distinct, by_value, axis=0)
    tie = values[1:] == values[:-1]
    tied = np.zeros(len(tables.rows), dtype=bool)
    tied[by_value[1:][tie]] = True
    tied[by_value[:-1][tie]] = True
    # Singleton groups in (rank, w[task, u], u) order: lexsort's last
    # key is primary, and the sort is stable.
    shared = np.lexsort((distinct, below), axis=1).tolist()
    orders = [shared[k] for k in tables.row_of.tolist()]
    if tied.any():
        order = np.argsort(w, axis=0, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(w.shape[0])[:, np.newaxis], axis=0)
        tasks = np.flatnonzero(tied[tables.row_of])
        own = np.lexsort((w[tasks], ranks[tasks]), axis=1).tolist()
        for task, task_order in zip(tasks.tolist(), own):
            orders[task] = task_order
    return orders


@register_heuristic
class RankBinarySearchHeuristic(BinarySearchHeuristic):
    """Paper heuristic H2: binary search with per-machine rank priority."""

    name = "H2"

    def machine_preference(
        self, instance: ProblemInstance, tables: WalkTables
    ) -> MachinePreference:
        singletons = [()] * instance.num_machines
        return MachinePreference(
            orders=rank_orders(instance.processing_times, tables),
            mates=[singletons] * instance.num_tasks,
        )


@register_heuristic
class HeterogeneityBinarySearchHeuristic(BinarySearchHeuristic):
    """Paper heuristic H3: binary search preferring heterogeneous machines."""

    name = "H3"

    def __init__(self) -> None:
        self._heterogeneity: np.ndarray | None = None

    def prepare(self, instance: ProblemInstance) -> None:
        self._heterogeneity = instance.platform.machine_heterogeneity()

    def machine_preference(
        self, instance: ProblemInstance, tables: WalkTables
    ) -> MachinePreference:
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
