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
O(upstream) work instead of re-evaluating from scratch.  The upstream
sets and their flat pairs depend on the precedence graph alone; they
live in the graph's shared :class:`~repro.batch.graph.GraphTables`.

This is the building block for local-search procedures and for any loop
that probes many single-task reassignments: "what is the period with
task ``i`` on machine ``u``?" is one
:meth:`MappingEvaluator.candidate_period` call, and "what is the best
single move of any task?" is one :meth:`MappingEvaluator.best_move`
call, which scores every (task, destination) cell its mask admits in
one ``probe_candidates`` kernel call.
"""

from __future__ import annotations

import math

import numpy as np

from ..backend import get_backend
from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..core.period import MappingEvaluation
from ..exceptions import InvalidMappingError
from .graph import graph_tables

__all__ = ["MappingEvaluator"]


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
        "_graph",
        "_f",
        "_keep",
        "_ratios",
        "_w",
    )

    def __init__(self, instance: ProblemInstance, mapping: Mapping | np.ndarray):
        self.instance = instance
        self._assignment = _coerce_assignment(instance, mapping)
        self._f = instance.failure_rates
        # Per-attempt success rates; a move's ratio is keep[t, a(t)] / keep[t, u].
        self._keep = 1.0 - self._f
        self._w = instance.processing_times
        self._graph = graph_tables(instance.application)
        self.refresh()

    # -- state ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute ``x``, contributions and periods from the assignment alone.

        ``x`` comes from the ``propagate_x`` kernel (one accumulate per
        path of the graph's shared split) and the periods from the
        ``scatter_periods`` kernel, each as a depth-1 stack: the kernels
        the batched evaluators use, so the scalar and stacked states stay
        bit-for-bit interchangeable, and both equal the scalar
        :func:`repro.core.period.evaluate`.
        """
        backend = get_backend()
        tasks = np.arange(self.instance.num_tasks)
        f_used = self._f[tasks, self._assignment]
        x = backend.propagate_x(self._graph.paths, f_used[np.newaxis, :])[0]
        self._x = x
        self._contrib = x * self._w[tasks, self._assignment]
        # Every move's ratio keep[t, a(t)] / keep[t, u], row t rewritten when t moves.
        self._ratios = self._keep[tasks, self._assignment][:, np.newaxis] / self._keep
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
        recomputes everything from the assignment alone.
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
        ups = self._graph.upstream[task]
        ratio = self._ratios[task, machine]
        delta = np.zeros(self.instance.num_machines, dtype=np.float64)
        old_c = self._contrib[ups]
        np.add.at(delta, self._assignment[ups], -old_c)
        # Upstream contributions scale by the ratio; the moved task also
        # changes machine (new w) in addition to the scaling.
        np.add.at(delta, self._assignment[ups[1:]], old_c[1:] * ratio)
        delta[machine] += self._x[task] * ratio * self._w[task, machine]
        return float((self._periods + delta).max())

    def best_move(
        self,
        *,
        allowed: np.ndarray | None = None,
        rel_tol: float = 1e-12,
    ) -> tuple[int, int, float] | None:
        """The single-task move that lowers the period the most, if any.

        Scores every allowed (task, destination) cell and returns ``(task,
        machine, new_period)`` for the best strictly improving move, or
        ``None`` when the mapping is a local optimum of the (allowed)
        single-move neighbourhood.  Ties are broken by lowest task index,
        then lowest machine index, so the result is deterministic.

        Each cell is the per-task probe bit for bit (take task ``i``'s
        upstream contributions off their machines, re-add the unmoved ones
        scaled by the move's ratio, add task ``i`` at its destination, take
        the max), but the whole step is one scatter and one probe.  The
        scatter fills a machine-major ``(2m, n)`` array from the graph's
        flat ``(task, upstream)`` pairs: column ``t`` of rows ``[0, m)``
        is what moving task ``t`` takes off each machine (``removed``,
        its whole upstream set), of rows ``[m, 2m)`` the unscaled re-add
        of its unmoved upstream tasks (``rest``).  Each cell sums the same
        terms in the same order as a per-task scatter.  The allowed cells
        are gathered by their flat index ``t * m + u`` (row-major), with
        their ratios from the evaluator's ``(n, m)`` ratio table (row
        ``t`` rewritten when task ``t`` moves), one ``probe_candidates``
        call scores them, and the first cell holding the minimum is the
        lowest task's lowest machine.

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
        if allowed is None:
            allowed = np.ones((n, m), dtype=bool)
        else:
            allowed = np.asarray(allowed, dtype=bool)
            if allowed.shape != (n, m):
                raise InvalidMappingError(
                    f"allowed mask must have shape ({n}, {m}), got {allowed.shape}"
                )
        cells = np.flatnonzero(allowed)
        if not cells.size:
            return None
        tasks, dests = np.divmod(cells, m)
        backend = get_backend()
        pair_task, pair_up, count = self._graph.pairs
        rows = self._assignment[pair_up]
        rows[count:] += m
        sums = backend.scatter_add_rows(
            rows, pair_task, self._contrib[pair_up], (2 * m, n)
        )
        # Rows [0, m) become ``base``: the periods with task t's upstream set removed.
        np.subtract(self._periods[:, np.newaxis], sums[:m], out=sums[:m])
        ratios = self._ratios.ravel()[cells]
        values = backend.probe_candidates(sums, ratios, self._x, self._w, tasks, dests)
        best = int(np.argmin(values))
        value = float(values[best])
        if not value < self.period * (1.0 - rel_tol):
            return None
        return int(tasks[best]), int(dests[best]), value

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
        ups = self._graph.upstream[task]
        ratio = self._ratios[task, machine]
        old_c = self._contrib[ups]
        np.add.at(self._periods, self._assignment[ups], -old_c)
        self._x[ups] *= ratio
        self._assignment[task] = machine
        self._ratios[task] = self._keep[task, machine] / self._keep[task]
        self._contrib[ups] = self._x[ups] * self._w[ups, self._assignment[ups]]
        np.add.at(self._periods, self._assignment[ups], self._contrib[ups])
        return self.period
