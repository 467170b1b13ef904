"""H4, H4w and H4f — single-pass greedy heuristics (Algorithms 4, 5, 6).

All three walk the tasks sinks-first and assign each task to the machine
minimising a local *completion score* ``accu_u + criterion(i, u)`` among the
type-compatible machines, where ``accu_u`` is the expected busy time already
accumulated on machine ``u``.  They differ only in the criterion:

* **H4  (best performance)** — ``x_down * w[i, u] * F[i, u]``: expected time
  per finished product, accounting for both speed and reliability;
* **H4w (fastest machine)** — ``x_down * w[i, u]``: speed only, failures are
  ignored during selection (the paper's overall winner);
* **H4f (most reliable machine)** — ``x_down * F[i, u]``: reliability only,
  speed is ignored (the paper's weakest heuristic together with H1).

``x_down`` is the number of products required by the successor of ``Ti``
(known exactly because the traversal is sinks-first), and
``F[i, u] = 1 / (1 - f[i, u])``.  Whatever criterion is used for the
*choice*, the accumulated load and the final mapping are always evaluated
with the true failure-aware expected product counts.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence

import numpy as np

from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..exceptions import ReproError
from .base import BatchAssignmentState, Heuristic, WalkTables, register_heuristic

__all__ = [
    "GreedyCompletionHeuristic",
    "BestPerformanceHeuristic",
    "FastestMachineHeuristic",
    "ReliableMachineHeuristic",
]


class GreedyCompletionHeuristic(Heuristic):
    """Shared single-pass greedy driver for the H4 family.

    A solve is one plain-Python walk over per-instance lists (the
    :class:`~repro.heuristics.base.WalkTables` and the criterion rows):
    each task scans the machines in index order and keeps the eligible
    one of smallest score, the lowest index on exact ties.
    """

    def build_walk_inputs(
        self, instance: ProblemInstance
    ) -> tuple[WalkTables, list[list[float]]]:
        tables = WalkTables.build(instance)
        return tables, self.criterion_rows(instance, tables)

    @abc.abstractmethod
    def criterion_matrix(self, instance: ProblemInstance) -> np.ndarray:
        """The ``(n, m)`` matrix ``C``: scoring ``task`` on ``machine``
        adds ``downstream_demand * C[task, machine]`` to ``accu_u``."""

    def criterion_rows(
        self, instance: ProblemInstance, tables: WalkTables
    ) -> list[list[float]]:
        """:meth:`criterion_matrix` as the walk's row lists."""
        return self.criterion_matrix(instance).tolist()

    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        tables, criterion = self.walk_inputs(instance)
        successors, types, keep, w = tables.successors, tables.types, tables.keep, tables.w
        machine_type = tables.owners(up)
        accumulated = [0.0] * tables.num_machines
        x = [0.0] * len(types)
        assignment = [-1] * len(types)
        has_machine = [False] * (max(types) + 1)
        free, pending = machine_type.count(-1), tables.num_types
        for task in tables.order:
            succ = successors[task]
            demand = 1.0 if succ < 0 else x[succ]
            task_type = types[task]
            free_ok = free > (pending if has_machine[task_type] else pending - 1)
            criterion_row = criterion[task]
            pick, best = -1, math.inf
            for u, owner in enumerate(machine_type):
                if owner != task_type and (owner >= 0 or not free_ok):
                    continue
                score = accumulated[u] + demand * criterion_row[u]
                if score < best:
                    pick, best = u, score
            if pick < 0:
                raise ReproError(
                    f"no machine may receive task {task} under the specialized rule"
                )
            if machine_type[pick] < 0:
                machine_type[pick] = task_type
                if not has_machine[task_type]:
                    has_machine[task_type] = True
                    pending -= 1
                free -= 1
            products = demand / keep[task][pick]
            x[task] = products
            accumulated[pick] += products * w[task][pick]
            assignment[task] = pick
        return Mapping(np.asarray(assignment, dtype=np.int64), tables.num_machines), 1, {}

    def solve_batch(self, instances: Sequence[ProblemInstance]) -> np.ndarray:
        """Solve all ``R`` instances lock-step; row ``r`` equals the
        sequential :meth:`solve_mapping` on ``instances[r]`` bit for bit.

        Every greedy step scores the current task on all machines of all
        repetitions in one ``(R, m)`` expression — the per-repetition
        Python loop of the per-instance path collapses into ``n``
        vectorized steps.
        """
        state = BatchAssignmentState(instances)
        criterion = np.stack([self.criterion_matrix(inst) for inst in instances])
        for task in state.order:
            demand = state.downstream_demand(task)
            scores = np.where(
                state.eligible_mask(task),
                state.accumulated + demand[:, np.newaxis] * criterion[:, task, :],
                np.inf,
            )
            state.assign(task, np.argmin(scores, axis=1))
        return state.assignment


@register_heuristic
class BestPerformanceHeuristic(GreedyCompletionHeuristic):
    """Paper heuristic H4: minimise expected time per finished product."""

    name = "H4"

    def criterion_matrix(self, instance: ProblemInstance) -> np.ndarray:
        return instance.processing_times * instance.failures.attempts_factors


@register_heuristic
class FastestMachineHeuristic(GreedyCompletionHeuristic):
    """Paper heuristic H4w: minimise processing time, ignore failures."""

    name = "H4w"

    def criterion_matrix(self, instance: ProblemInstance) -> np.ndarray:
        return instance.processing_times

    def criterion_rows(
        self, instance: ProblemInstance, tables: WalkTables
    ) -> list[list[float]]:
        return tables.w


@register_heuristic
class ReliableMachineHeuristic(GreedyCompletionHeuristic):
    """Paper heuristic H4f: minimise failure impact, ignore speed."""

    name = "H4f"

    def criterion_matrix(self, instance: ProblemInstance) -> np.ndarray:
        return instance.failures.attempts_factors
