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

Because only the criterion differs, one lock-step kernel serves the
whole family: :meth:`GreedyCompletionHeuristic.solve_batch` advances
``k`` of these heuristics over ``R`` stacked instances as ``k * R``
rows of one :class:`~repro.heuristics.base.BatchAssignmentState`, with
``w`` and ``f`` held once per instance and only the criterion stacked
per heuristic.  A lone heuristic's batch solve is the ``k = 1`` case,
and :func:`solve_family` is the experiment engine's entry, which solves
a chunk's H4-family curves (and H4ls's H4w seeds) in one pass.
"""

from __future__ import annotations

import abc
import itertools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..exceptions import ReproError
from .base import (
    BatchAssignmentState,
    Heuristic,
    WalkTables,
    register_heuristic,
    solves_in_batch,
    validate_assignments,
)

__all__ = [
    "GreedyCompletionHeuristic",
    "solve_family",
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

    def solve_batch(
        self,
        instances: Sequence[ProblemInstance],
        *,
        fused: Sequence["GreedyCompletionHeuristic"] = (),
    ) -> np.ndarray:
        """Solve all ``R`` instances lock-step, for this heuristic and
        each of ``fused`` in one pass; ``(k * R, n)`` for ``k`` heuristics.

        Rows ``h * R`` to ``(h + 1) * R - 1`` are heuristic ``h``'s
        (this one first, then ``fused`` in order), and row ``h * R + r``
        equals its sequential :meth:`solve_mapping` on ``instances[r]``
        bit for bit.  Every greedy step scores the current task on all
        machines of all ``k * R`` rows in one ``(k * R, m)`` expression,
        so the per-step cost of the lock-step kernel is paid once for
        the whole family rather than once per heuristic.  Only the
        criterion is stacked per heuristic; ``w`` and ``f`` are held
        once per instance.
        """
        heuristics = (self, *fused)
        state = BatchAssignmentState(instances, copies=len(heuristics))
        # Task-major (n, k * R, m), filled one matrix at a time so no
        # heuristic's R matrices are alive at once besides the stack.
        n, m = instances[0].num_tasks, instances[0].num_machines
        criterion = np.empty((n, len(heuristics) * len(instances), m), dtype=np.float64)
        for row, (heuristic, instance) in enumerate(itertools.product(heuristics, instances)):
            criterion[:, row, :] = heuristic.criterion_matrix(instance)
        for task in state.order:
            state.step(task, criterion[task])
        return state.assignment


def solve_family(
    heuristics: Iterable[GreedyCompletionHeuristic],
    instances: Sequence[ProblemInstance],
) -> dict[str, np.ndarray]:
    """Every distinct heuristic's ``(R, n)`` assignments from one lock-step pass.

    The experiment engine's fused solve of a chunk's greedy curves: one
    feasibility-checked, validated :meth:`~GreedyCompletionHeuristic.solve_batch`
    call for the distinct (by name) ``heuristics``, keyed by name.  Each
    block equals that heuristic's own ``solve_batch(instances)`` bit for
    bit, since the kernel's rows are independent.  A heuristic whose
    class overrides ``solve_batch`` keeps its own kernel and is left
    out, as is everything when :func:`solves_in_batch` does not hold at
    this depth: those curves then solve on their own.
    """
    shared = GreedyCompletionHeuristic.solve_batch
    heuristics = list({h.name: h for h in heuristics if type(h).solve_batch is shared}.values())
    if not heuristics or not solves_in_batch(heuristics[0], len(instances)):
        return {}
    first, *fused = heuristics
    for instance in instances:
        first.check_feasible(instance)
    # A single heuristic is the plain BatchHeuristic call.
    rows = first.solve_batch(instances, fused=fused) if fused else first.solve_batch(instances)
    validate_assignments(tuple(instances) * len(heuristics), rows)
    depth = len(instances)
    return {h.name: rows[i * depth : (i + 1) * depth] for i, h in enumerate(heuristics)}


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
