"""Incremental mapping evaluation under single-task reassignment.

Moving one task ``Ti`` from machine ``a(i)`` to machine ``u`` changes the
attempt factor ``F[i, a(i)] = 1 / (1 - f[i, a(i)])``.  Because ``x_j`` is
the product of the attempt factors along the path from ``Tj`` to its
sink, every *upstream* task ``Tj`` (every task whose path to the sink
passes through ``Ti``, including ``Ti`` itself) sees its ``x_j`` scaled
by the same ratio ``r = F[i, u] / F[i, a(i)]`` — no other task changes.
A single-task move therefore only touches ``|upstream(i)|`` task
contributions and the machines hosting them, which
:class:`MappingEvaluator` exploits to keep the full evaluation (period,
machine periods, ``x``, critical machines) up to date in vectorized
O(upstream) work instead of re-evaluating from scratch.

This is the building block for local-search procedures and for any loop
that probes many single-task reassignments (e.g. "what is the best
machine for task ``i`` given everything else?", answered in one call by
:meth:`MappingEvaluator.candidate_periods`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..backend import get_backend
from ..core.instance import ProblemInstance, shared_successor_table
from ..core.mapping import Mapping
from ..core.period import MappingEvaluation
from ..exceptions import InvalidMappingError
from .evaluation import _graph_arrays

__all__ = ["MappingEvaluator", "StackMappingEvaluator"]


def _coerce_assignment(
    instance: ProblemInstance, mapping: Mapping | np.ndarray
) -> np.ndarray:
    """Validated ``(n,)`` int64 copy of an allocation vector."""
    arr = mapping.as_array if isinstance(mapping, Mapping) else np.asarray(mapping)
    arr = arr.astype(np.int64, copy=True)
    if arr.shape != (instance.num_tasks,):
        raise InvalidMappingError(
            f"assignment must have shape ({instance.num_tasks},), got {arr.shape}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= instance.num_machines):
        raise InvalidMappingError(
            f"assignment uses machine indices outside 0..{instance.num_machines - 1}"
        )
    return arr


def _upstream_sets(instance: ProblemInstance) -> list[np.ndarray]:
    """For each task, the array of tasks whose sink path passes through it.

    Entry ``i`` lists ``i`` first, then every transitive predecessor of
    ``i``, in ascending index order after the leading ``i``.
    """
    app = instance.application
    collected: dict[int, list[int]] = {}
    for task in app.topological_order():
        members: list[int] = []
        for pred in app.predecessors(task):
            members.extend(collected[pred])
        members.sort()
        collected[task] = [task] + members
    return [np.asarray(collected[i], dtype=np.int64) for i in range(instance.num_tasks)]


class MappingEvaluator:
    """Evaluation of one mapping that stays current under task moves.

    Parameters
    ----------
    instance:
        The problem instance.
    mapping:
        Initial allocation (a :class:`~repro.core.Mapping` or an
        assignment vector).

    Notes
    -----
    Updates are multiplicative, so a very long chain of moves can drift a
    few ulps from a fresh evaluation; call :meth:`refresh` to resync when
    exact agreement with :func:`repro.core.period.evaluate` matters after
    thousands of moves.
    """

    __slots__ = (
        "instance",
        "_assignment",
        "_x",
        "_contrib",
        "_periods",
        "_upstream",
        "_f",
        "_w",
    )

    def __init__(self, instance: ProblemInstance, mapping: Mapping | np.ndarray):
        self.instance = instance
        self._assignment = _coerce_assignment(instance, mapping)
        self._f = instance.failure_rates
        self._w = instance.processing_times
        self._upstream = _upstream_sets(instance)
        self.refresh()

    # -- state ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute ``x``, contributions and periods from scratch.

        Runs as a depth-1 stack through the batch kernels — the
        same kernels the batched evaluators use, so the scalar and
        stacked states stay bit-for-bit interchangeable.
        """
        backend = get_backend()
        order, succ = _graph_arrays(self.instance.application)
        n = self.instance.num_tasks
        tasks = np.arange(n)
        f_used = self._f[tasks, self._assignment]
        x = backend.propagate_x(order, succ, f_used[np.newaxis, :])[0]
        self._x = x
        self._contrib = x * self._w[tasks, self._assignment]
        self._periods = backend.scatter_periods(
            self._assignment[np.newaxis, :],
            self._contrib[np.newaxis, :],
            self.instance.num_machines,
        )[0]

    def reassign(self, mapping: Mapping | np.ndarray) -> None:
        """Replace the whole allocation and resync state from scratch.

        The per-task ``move`` path is the right tool for *one* changed
        task; when a caller swaps in an unrelated mapping (the live
        replanner deploying a cached or cold plan), a validated
        assignment swap plus one :meth:`refresh` is cheaper and — unlike
        a chain of moves — lands in exactly the numeric state a freshly
        constructed evaluator would hold, because :meth:`refresh`
        recomputes everything from the assignment alone.  Only the
        upstream sets (fixed by the precedence graph, O(n²) to rebuild)
        are carried over.
        """
        self._assignment = _coerce_assignment(self.instance, mapping)
        self.refresh()

    @property
    def assignment(self) -> np.ndarray:
        """Copy of the current allocation vector."""
        return self._assignment.copy()

    @property
    def mapping(self) -> Mapping:
        """The current allocation as an immutable :class:`~repro.core.Mapping`."""
        return Mapping(self._assignment, self.instance.num_machines)

    @property
    def expected_products(self) -> np.ndarray:
        """Copy of the current ``x`` vector."""
        return self._x.copy()

    @property
    def machine_periods(self) -> np.ndarray:
        """Copy of the current per-machine period vector."""
        return self._periods.copy()

    @property
    def period(self) -> float:
        """Current application period."""
        return float(self._periods.max())

    @property
    def throughput(self) -> float:
        """Current throughput ``1 / period``."""
        p = self.period
        return math.inf if p == 0.0 else 1.0 / p

    def critical_machines(self, *, rel_tol: float = 1e-9) -> tuple[int, ...]:
        """Machines currently attaining the period."""
        top = self._periods.max()
        if top == 0.0:
            return ()
        return tuple(
            int(u) for u in np.flatnonzero(self._periods >= top * (1.0 - rel_tol))
        )

    def evaluation(self) -> MappingEvaluation:
        """Immutable snapshot matching :func:`repro.core.period.evaluate`."""
        return MappingEvaluation(
            mapping=self.mapping,
            period=self.period,
            throughput=self.throughput,
            machine_periods=tuple(float(v) for v in self._periods),
            expected_products=tuple(float(v) for v in self._x),
            critical_machines=self.critical_machines(),
        )

    # -- delta queries -----------------------------------------------------------
    def _check_move(self, task: int, machine: int) -> None:
        if not 0 <= task < self.instance.num_tasks:
            raise InvalidMappingError(f"unknown task index {task}")
        if not 0 <= machine < self.instance.num_machines:
            raise InvalidMappingError(f"unknown machine index {machine}")

    def candidate_period(self, task: int, machine: int) -> float:
        """Period the mapping would have with ``task`` moved to ``machine``.

        Does not mutate the evaluator; costs O(upstream(task) + m).
        """
        self._check_move(task, machine)
        old_machine = int(self._assignment[task])
        if machine == old_machine:
            return self.period
        ups = self._upstream[task]
        ratio = (1.0 - self._f[task, old_machine]) / (1.0 - self._f[task, machine])
        delta = np.zeros(self.instance.num_machines, dtype=np.float64)
        old_c = self._contrib[ups]
        np.add.at(delta, self._assignment[ups], -old_c)
        # Upstream contributions scale by the ratio; the moved task also
        # changes machine (new w) in addition to the scaling.
        np.add.at(delta, self._assignment[ups[1:]], old_c[1:] * ratio)
        delta[machine] += self._x[task] * ratio * self._w[task, machine]
        return float((self._periods + delta).max())

    def candidate_periods(self, task: int) -> np.ndarray:
        """Period for every possible destination of ``task``, vectorized.

        Entry ``u`` equals ``candidate_period(task, u)``; entry
        ``a(task)`` is the current period.  Costs O(upstream(task) + m^2),
        far cheaper than ``m`` full evaluations.
        """
        self._check_move(task, 0)
        backend = get_backend()
        m = self.instance.num_machines
        old_machine = int(self._assignment[task])
        ups = self._upstream[task]
        old_c = self._contrib[ups]
        removed = np.zeros((1, m), dtype=np.float64)
        backend.scatter_add_rows(
            removed, self._assignment[ups][np.newaxis, :], old_c[np.newaxis, :]
        )
        base = self._periods[np.newaxis, :] - removed
        # Unscaled re-add pattern for the unmoved upstream tasks.
        rest = np.zeros((1, m), dtype=np.float64)
        backend.scatter_add_rows(
            rest, self._assignment[ups[1:]][np.newaxis, :], old_c[1:][np.newaxis, :]
        )
        ratios = (1.0 - self._f[task, old_machine]) / (1.0 - self._f[task, :])
        return backend.probe_candidates(
            base,
            rest,
            ratios[np.newaxis, :],
            self._x[task : task + 1],
            self._w[task][np.newaxis, :],
        )[0]

    def best_move(
        self,
        *,
        allowed: np.ndarray | None = None,
        rel_tol: float = 1e-12,
    ) -> tuple[int, int, float] | None:
        """The single-task move that lowers the period the most, if any.

        Scans every (task, destination) pair through
        :meth:`candidate_periods` and returns ``(task, machine,
        new_period)`` for the best strictly improving move, or ``None``
        when the mapping is a local optimum of the single-move
        neighbourhood.  Ties are broken by lowest task index, then lowest
        machine index, so the result is deterministic.

        Parameters
        ----------
        allowed:
            Optional boolean ``(n, m)`` mask restricting the destinations
            considered for each task (e.g. to the moves that keep a
            mapping specialized).  ``None`` allows every destination.
        rel_tol:
            A move must beat the current period by this relative margin to
            count as improving — the guard that keeps local-search loops
            from cycling on floating-point noise.
        """
        n, m = self.instance.num_tasks, self.instance.num_machines
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)
            if allowed.shape != (n, m):
                raise InvalidMappingError(
                    f"allowed mask must have shape ({n}, {m}), got {allowed.shape}"
                )
        current = self.period
        threshold = current * (1.0 - rel_tol)
        best: tuple[int, int, float] | None = None
        for task in range(n):
            candidates = self.candidate_periods(task)
            if allowed is not None:
                candidates = np.where(allowed[task], candidates, np.inf)
            machine = int(np.argmin(candidates))
            value = float(candidates[machine])
            if value < threshold and (best is None or value < best[2]):
                best = (task, machine, value)
        return best

    # -- mutation ---------------------------------------------------------------
    def move(self, task: int, machine: int) -> float:
        """Reassign ``task`` to ``machine`` and return the new period.

        Only the upstream tasks' ``x``/contributions and the machines
        hosting them are touched (vectorized O(upstream)).
        """
        self._check_move(task, machine)
        old_machine = int(self._assignment[task])
        if machine == old_machine:
            return self.period
        ups = self._upstream[task]
        ratio = (1.0 - self._f[task, old_machine]) / (1.0 - self._f[task, machine])
        old_c = self._contrib[ups]
        np.add.at(self._periods, self._assignment[ups], -old_c)
        self._x[ups] *= ratio
        self._assignment[task] = machine
        self._contrib[ups] = self._x[ups] * self._w[ups, self._assignment[ups]]
        np.add.at(self._periods, self._assignment[ups], self._contrib[ups])
        return self.period


class StackMappingEvaluator:
    """``R`` independent :class:`MappingEvaluator` states advanced lock-step.

    One evaluator per repetition of an instance stack, sharing the
    precedence graph (and therefore the upstream sets) but each with its
    own ``w``/``f`` matrices and mapping.  The batched probe
    :meth:`candidate_periods` answers "best destination for task ``i``"
    for *every* row in one vectorized pass — the building block that lets
    local-search refinement run across a whole repetition block without
    re-entering Python per repetition.

    Row ``r``'s arithmetic (including the ``np.add.at`` scatter order)
    mirrors a scalar :class:`MappingEvaluator` on instance ``r``
    operation for operation, so probes and moves are bit-for-bit
    identical to ``R`` sequential evaluators.
    """

    __slots__ = (
        "instances",
        "_assignment",
        "_x",
        "_contrib",
        "_periods",
        "_upstream",
        "_f",
        "_w",
        "_rows",
    )

    def __init__(
        self,
        instances: Sequence[ProblemInstance],
        mappings: np.ndarray,
    ):
        if not instances:
            raise InvalidMappingError("cannot evaluate an empty instance stack")
        first = instances[0]
        n, m = first.num_tasks, first.num_machines
        shared_successor_table(instances)
        arr = np.asarray(mappings, dtype=np.int64).copy()
        if arr.shape != (len(instances), n):
            raise InvalidMappingError(
                f"mappings must have shape ({len(instances)}, {n}), got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= m):
            raise InvalidMappingError(
                f"mappings use machine indices outside 0..{m - 1}"
            )
        self.instances = tuple(instances)
        self._assignment = arr
        self._w = np.stack([inst.processing_times for inst in instances])
        self._f = np.stack([inst.failure_rates for inst in instances])
        self._upstream = _upstream_sets(first)
        self._rows = np.arange(len(instances))
        self.refresh()

    # -- state ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Stack depth ``R``."""
        return int(self._assignment.shape[0])

    @property
    def num_machines(self) -> int:
        """Platform size ``m``."""
        return int(self._w.shape[2])

    @property
    def assignment(self) -> np.ndarray:
        """Copy of the current ``(R, n)`` allocation array."""
        return self._assignment.copy()

    @property
    def periods(self) -> np.ndarray:
        """Current per-row application periods (``(R,)``)."""
        return self._periods.max(axis=1)

    @property
    def machine_periods(self) -> np.ndarray:
        """Copy of the current ``(R, m)`` machine-period matrix."""
        return self._periods.copy()

    def refresh(self) -> None:
        """Recompute every row's ``x``, contributions and periods."""
        backend = get_backend()
        order, succ = _graph_arrays(self.instances[0].application)
        n = self._assignment.shape[1]
        tasks = np.arange(n)
        f_used = self._f[self._rows[:, np.newaxis], tasks[np.newaxis, :], self._assignment]
        x = backend.propagate_x(order, succ, f_used)
        self._x = x
        w_used = self._w[self._rows[:, np.newaxis], tasks[np.newaxis, :], self._assignment]
        self._contrib = x * w_used
        self._periods = backend.scatter_periods(
            self._assignment, self._contrib, self.num_machines
        )

    def subset(self, rows: np.ndarray) -> "StackMappingEvaluator":
        """A new evaluator holding only ``rows``, state carried over as is.

        Every per-row array is sliced (not recomputed), so row ``rows[j]``
        of this evaluator and row ``j`` of the subset are in *identical*
        numeric state — probes and moves on the subset are bit-for-bit
        what the full stack would produce for those rows, because every
        batched operation here is row-independent.  This is what lets
        local-search descents drop converged rows instead of paying
        full-stack probes to the end (see
        :func:`repro.heuristics.local_search.refine_specialized_batch`).
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0:
            raise InvalidMappingError("subset needs a non-empty 1-d row selection")
        if rows.min() < 0 or rows.max() >= self.num_rows:
            raise InvalidMappingError(
                f"subset rows outside 0..{self.num_rows - 1}"
            )
        clone = object.__new__(StackMappingEvaluator)
        clone.instances = tuple(self.instances[int(row)] for row in rows)
        clone._assignment = self._assignment[rows]
        clone._x = self._x[rows]
        clone._contrib = self._contrib[rows]
        clone._periods = self._periods[rows]
        clone._upstream = self._upstream  # shared precedence graph
        clone._f = self._f[rows]
        clone._w = self._w[rows]
        clone._rows = np.arange(rows.size)
        return clone

    # -- batched delta queries -----------------------------------------------------
    def candidate_periods(self, task: int) -> np.ndarray:
        """Rowwise :meth:`MappingEvaluator.candidate_periods` (``(R, m)``).

        Entry ``[r, u]`` is row ``r``'s period with ``task`` moved to
        machine ``u``; entry ``[r, a_r(task)]`` is row ``r``'s current
        period.  One vectorized pass over all rows and destinations.
        """
        if not 0 <= task < self._assignment.shape[1]:
            raise InvalidMappingError(f"unknown task index {task}")
        backend = get_backend()
        m = self.num_machines
        old_machine = self._assignment[:, task]
        ups = self._upstream[task]
        old_c = self._contrib[:, ups]
        removed = np.zeros((self.num_rows, m), dtype=np.float64)
        backend.scatter_add_rows(removed, self._assignment[:, ups], old_c)
        base = self._periods - removed
        # Unscaled re-add pattern for the unmoved upstream tasks.
        rest = np.zeros((self.num_rows, m), dtype=np.float64)
        backend.scatter_add_rows(rest, self._assignment[:, ups[1:]], old_c[:, 1:])
        ratios = (1.0 - self._f[self._rows, task, old_machine])[:, np.newaxis] / (
            1.0 - self._f[:, task, :]
        )
        # Fused probe: every destination's candidate period in one call.
        return backend.probe_candidates(
            base, rest, ratios, self._x[:, task], self._w[:, task, :]
        )

    def best_moves(
        self,
        *,
        allowed: np.ndarray | None = None,
        rel_tol: float = 1e-12,
        active: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rowwise :meth:`MappingEvaluator.best_move` in one batched scan.

        Returns ``(tasks, machines, has_move)``: row ``r``'s best strictly
        improving single-task move is ``tasks[r] -> machines[r]`` when
        ``has_move[r]``, with the same lowest-task / lowest-machine tie
        breaking as the scalar scan.  ``allowed`` optionally masks
        destinations per row (``(R, n, m)`` boolean); ``active`` restricts
        the probe work to a subset of rows (others report no move).
        """
        R, n = self._assignment.shape
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)
            if allowed.shape != (R, n, self.num_machines):
                raise InvalidMappingError(
                    f"allowed mask must have shape ({R}, {n}, {self.num_machines}), "
                    f"got {allowed.shape}"
                )
        best_value = np.full(R, np.inf)
        best_task = np.zeros(R, dtype=np.int64)
        best_machine = np.zeros(R, dtype=np.int64)
        threshold = self.periods * (1.0 - rel_tol)
        for task in range(n):
            candidates = self.candidate_periods(task)
            if allowed is not None:
                candidates = np.where(allowed[:, task, :], candidates, np.inf)
            machine = np.argmin(candidates, axis=1)
            value = candidates[self._rows, machine]
            # Strict improvement over the running best keeps the scalar
            # scan's first-task tie break.
            better = value < best_value
            if active is not None:
                better &= active
            best_value[better] = value[better]
            best_task[better] = task
            best_machine[better] = machine[better]
        has_move = best_value < threshold
        if active is not None:
            has_move &= active
        return best_task, best_machine, has_move

    # -- mutation ---------------------------------------------------------------
    def move(self, row: int, task: int, machine: int) -> None:
        """Reassign ``task`` to ``machine`` in one row (scalar delta update).

        Rowwise moves differ in their upstream sets, so applying them is
        per-row work — the cost that matters, the candidate scan, is the
        batched :meth:`best_moves`.
        """
        old_machine = int(self._assignment[row, task])
        if machine == old_machine:
            return
        ups = self._upstream[task]
        ratio = (1.0 - self._f[row, task, old_machine]) / (
            1.0 - self._f[row, task, machine]
        )
        old_c = self._contrib[row, ups]
        np.add.at(self._periods[row], self._assignment[row, ups], -old_c)
        self._x[row, ups] *= ratio
        self._assignment[row, task] = machine
        self._contrib[row, ups] = self._x[row, ups] * self._w[
            row, ups, self._assignment[row, ups]
        ]
        np.add.at(self._periods[row], self._assignment[row, ups], self._contrib[row, ups])
