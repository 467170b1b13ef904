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
  homogeneous machines in reserve for later (earlier) tasks.

The paper bisects integer millisecond values (``while max - min > 1``);
:class:`BinarySearchHeuristic` reproduces that behaviour but also accepts a
relative tolerance for ablation studies.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence

import numpy as np

from ..backend import get_backend
from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..exceptions import ReproError
from .base import (
    AssignmentState,
    BatchAssignmentState,
    Heuristic,
    backward_task_order,
    register_heuristic,
)

__all__ = ["BinarySearchHeuristic", "RankBinarySearchHeuristic", "HeterogeneityBinarySearchHeuristic"]

#: Open-row count up to which a ``solve_batch`` round speculates.  A
#: speculative pass carries three probes per open row and settles two
#: bisection steps.  Measured at n=100, m=50 (numpy backend, 2-vCPU x86
#: host) it wins up to R = 12 (H2 R=2: 93 -> 51 ms, R=12: 161 -> 121
#: ms), is neutral at R = 24 and loses at R = 48 (H3: 236 -> 282 ms),
#: where the wider pass costs more than the pass it saves.
SPECULATION_MAX_ROWS = 24


def worst_case_period_bound(instance: ProblemInstance) -> float:
    """Upper bound used to initialise the bisection.

    Every task is charged its worst-case expected product count (computed
    with the *largest* failure rate over machines, cf. the ``MAXx_i`` bound
    of the MIP) and its slowest processing time, all on one machine.
    """
    worst_attempts = instance.failures.worst_case_attempts()
    app = instance.application
    # Worst-case x_i: product of worst attempt factors along the path to the sink.
    x_max = np.ones(instance.num_tasks)
    for task in app.reverse_topological_order():
        succ = app.successor(task)
        downstream = 1.0 if succ is None else x_max[succ]
        x_max[task] = downstream * worst_attempts[task]
    slowest_w = instance.processing_times.max(axis=1)
    return float(np.sum(x_max * slowest_w))


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
        self._period_bounds: np.ndarray | None = None

    # -- machine ranking (heuristic-specific) -----------------------------------------
    @abc.abstractmethod
    def machine_order(
        self, instance: ProblemInstance, state: AssignmentState, task: int
    ) -> np.ndarray:
        """Permutation of *all* machine indices, most preferred first.

        The bisection driver intersects this order with the eligibility
        and period-feasibility masks; returning a full permutation lets
        the ranking itself be computed with vectorized NumPy sorts.
        """

    @abc.abstractmethod
    def pick_keys_batch(
        self,
        state: BatchAssignmentState,
        task: int,
        rows: np.ndarray,
        exec_times: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(primary, secondary)`` sort keys of the batched greedy pick.

        Both are ``(len(rows), m)``: row ``k`` prefers machines by
        ascending ``(primary, secondary, index)``, the order
        :meth:`machine_order` returns on instance ``rows[k]``.  ``rows``
        indexes the original instance list so stacked precomputations
        from :meth:`prepare_batch` can be sliced; ``exec_times`` is the
        step's :meth:`BatchAssignmentState.candidate_exec`.
        """

    def machine_priority(
        self, instance: ProblemInstance, state: AssignmentState, task: int, machines: list[int]
    ) -> list[int]:
        """Order the given eligible machines from most to least preferred.

        Convenience wrapper restricting :meth:`machine_order` to a subset;
        kept for introspection and tests.
        """
        keep = set(machines)
        return [int(u) for u in self.machine_order(instance, state, task) if int(u) in keep]

    def prepare(self, instance: ProblemInstance) -> None:
        """Per-instance precomputation run once per solve.

        Caches the bisection's worst-case upper bound (previously
        recomputed by every solve entry point) so the driver and any
        introspection share one value; subclasses extend it with their
        ranking data (ranks, heterogeneity) and must call ``super()``.
        """
        self._period_bound = worst_case_period_bound(instance)

    def prepare_batch(
        self, instances: Sequence[ProblemInstance], state: BatchAssignmentState
    ) -> None:
        """Stacked counterpart of :meth:`prepare` for the batched driver.

        Caches the per-row period bounds; subclasses stack their ranking
        data and must call ``super()``.
        """
        self._period_bounds = np.asarray(
            [worst_case_period_bound(inst) for inst in instances], dtype=np.float64
        )

    # -- one greedy assignment round ---------------------------------------------------
    def _try_period(
        self, instance: ProblemInstance, target_period: float
    ) -> Mapping | None:
        """Attempt to place every task under ``target_period``; ``None`` on failure."""
        state = AssignmentState(instance, backward_task_order(instance))
        while not state.is_complete():
            task = state.next_task()
            assert task is not None
            # One vectorized pass: eligibility, projected completion times
            # and the preference order are all (m,) arrays; the chosen
            # machine is the first of the order that satisfies both masks.
            feasible = state.eligible_mask(task) & (
                state.candidate_exec_vector(task) <= target_period
            )
            if not feasible.any():
                return None
            order = self.machine_order(instance, state, task)
            ranked = np.flatnonzero(feasible[order])
            state.assign(task, int(order[ranked[0]]))
        return state.to_mapping()

    # -- one batched greedy assignment round -------------------------------------------
    def _try_period_batch(
        self,
        template: BatchAssignmentState,
        rows: np.ndarray,
        targets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Attempt every row's candidate period in one lock-step pass.

        Row ``k`` runs the same greedy placement as :meth:`_try_period`
        on instance ``rows[k]`` under period ``targets[k]``; a row whose
        placement becomes infeasible is marked dead and its assignment
        is meaningless from then on.  ``rows`` may repeat an instance.
        Returns ``(ok, assignments)`` where ``ok[k]`` says whether row
        ``k`` placed every task.
        """
        state = template.subset(rows)
        backend = get_backend()
        alive = np.ones(rows.size, dtype=bool)
        targets_col = targets[:, np.newaxis]
        for task in state.order:
            exec_times = state.candidate_exec(task)
            feasible = state.eligible_mask(task) & (exec_times <= targets_col)
            alive &= feasible.any(axis=1)
            if not alive.any():
                break
            # First machine of each row's preference order that satisfies
            # both masks — the batched form of order[ranked[0]], selected
            # by the active kernel backend without sorting.  Dead rows get
            # an arbitrary machine; their assignments are discarded.
            primary, secondary = self.pick_keys_batch(state, task, rows, exec_times)
            state.assign(task, backend.first_feasible(feasible, primary, secondary))
        return alive, state.assignment

    # -- Heuristic API ------------------------------------------------------------------
    def _open(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Rowwise: does the bracket ``(low, high)`` still need a probe?"""
        if self.integer_search:
            return high - low > 1.0
        return high - low > self.rel_tol * np.maximum(high, 1.0)

    def _midpoint(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Rowwise probe of the bracket, exactly the sequential ``mid``."""
        if self.integer_search:
            return low + np.floor((high - low) / 2.0)
        return (low + high) / 2.0

    def solve_batch(self, instances: Sequence[ProblemInstance]) -> np.ndarray:
        """Bisect all ``R`` instances lock-step; row ``r`` equals the
        sequential :meth:`solve_mapping` on ``instances[r]`` bit for bit.

        Every row keeps its own ``(low, high)`` bracket and converges on
        its own schedule — converged rows leave the active set while the
        rest keep bisecting, and each round's feasibility checks run as
        one vectorized greedy pass over the still-active rows.

        A round with at most :data:`SPECULATION_MAX_ROWS` open rows
        speculates: one pass tries each row's midpoint and both child
        midpoints, then the walk keeps the child on the side the
        midpoint's outcome selects.  Each probe is the sequential
        solve's next ``mid`` (same bracket, same arithmetic, same
        ``max_iterations`` cap), so speculation changes only how many
        passes run.
        """
        template = BatchAssignmentState(instances)
        self.prepare_batch(instances, template)
        if self._period_bounds is None:  # prepare_batch overridden without super()
            self._period_bounds = np.asarray(
                [worst_case_period_bound(inst) for inst in instances], dtype=np.float64
            )
        num_tasks = template.assignment.shape[1]
        all_rows = np.arange(template.num_rows)
        high = self._period_bounds.copy()
        low = np.zeros_like(high)
        best = np.full((template.num_rows, num_tasks), -1, dtype=np.int64)

        ok, assignments = self._try_period_batch(template, all_rows, high)
        best[ok] = assignments[ok]
        if not ok.all():
            # Defensive fallback mirroring the sequential driver: the
            # feasibility guard makes the worst-case bound feasible
            # whenever m >= p, but double it once just in case.
            retry = all_rows[~ok]
            high[retry] *= 2.0
            ok, assignments = self._try_period_batch(template, retry, high[retry])
            best[retry[ok]] = assignments[ok]
        iterations = np.zeros(template.num_rows, dtype=np.int64)

        def settle(rows, targets, ok, assignments) -> None:
            # One sequential bisection step for each of ``rows`` (distinct).
            iterations[rows] += 1
            best[rows[ok]] = assignments[ok]
            high[rows[ok]] = targets[ok]
            low[rows[~ok]] = targets[~ok]

        while True:
            rows = all_rows[self._open(low, high) & (iterations < self.max_iterations)]
            if rows.size == 0:
                break
            mid = self._midpoint(low[rows], high[rows])
            # The bracket after a feasible mid is (low, mid), after an
            # infeasible one (mid, high); a narrow round also probes each
            # child midpoint the sequential solve could reach next.
            deeper = (iterations[rows] + 1 < self.max_iterations) & (
                rows.size <= SPECULATION_MAX_ROWS
            )
            left = deeper & self._open(low[rows], mid)
            right = deeper & self._open(mid, high[rows])
            targets = np.concatenate(
                (
                    mid,
                    self._midpoint(low[rows[left]], mid[left]),
                    self._midpoint(mid[right], high[rows[right]]),
                )
            )
            probes = np.concatenate((rows, rows[left], rows[right]))
            ok, assignments = self._try_period_batch(template, probes, targets)
            k, num_left = rows.size, np.count_nonzero(left)
            settle(rows, mid, ok[:k], assignments[:k])
            left_at = np.full(k, -1)
            left_at[left] = k + np.arange(num_left)
            right_at = np.full(k, -1)
            right_at[right] = k + num_left + np.arange(np.count_nonzero(right))
            child = np.where(ok[:k], left_at, right_at)
            walked = child >= 0
            picks = child[walked]
            settle(rows[walked], targets[picks], ok[picks], assignments[picks])
        if (best < 0).any():
            raise ReproError(
                "batched binary search failed to place some repetitions even "
                "at the doubled worst-case bound"
            )
        return best

    def solve_mapping(
        self, instance: ProblemInstance, rng: np.random.Generator | None = None
    ) -> tuple[Mapping, int, dict]:
        self.prepare(instance)
        low = 0.0
        # The base prepare() caches the bound; recompute lazily if a
        # subclass overrode prepare() without extending it.
        if self._period_bound is None:
            self._period_bound = worst_case_period_bound(instance)
        high = self._period_bound
        best = self._try_period(instance, high)
        if best is None:
            # The guard in AssignmentState guarantees eligibility whenever a
            # specialized mapping exists, so the upper bound is always
            # feasible; keep a defensive fallback nonetheless.
            high *= 2.0
            best = self._try_period(instance, high)
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
            candidate = self._try_period(instance, mid)
            if candidate is not None:
                best = candidate
                high = mid
            else:
                low = mid
        assert best is not None
        return best, iterations, {"final_low": low, "final_high": high}


@register_heuristic
class RankBinarySearchHeuristic(BinarySearchHeuristic):
    """Paper heuristic H2: binary search with per-machine rank priority."""

    name = "H2"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._ranks: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._orders_of: np.ndarray | None = None
        self._rank_keys: np.ndarray | None = None

    def prepare(self, instance: ProblemInstance) -> None:
        super().prepare(instance)
        w = instance.processing_times
        # rank[i, u] = position of task i when the column w[:, u] is sorted
        # ascending (0 = the task this machine performs fastest).
        order = np.argsort(w, axis=0, kind="stable")
        ranks = np.empty_like(order)
        n = w.shape[0]
        rows = np.arange(n)
        for u in range(w.shape[1]):
            ranks[order[:, u], u] = rows
        self._ranks = ranks

    def prepare_batch(
        self, instances, state: BatchAssignmentState
    ) -> None:
        super().prepare_batch(instances, state)
        # Stacked rank matrices: a stable argsort along the task axis of
        # the (R, n, m) stack equals R independent per-instance argsorts.
        order = np.argsort(state.w, axis=1, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(
            ranks,
            order,
            np.broadcast_to(
                np.arange(order.shape[1])[np.newaxis, :, np.newaxis], order.shape
            ),
            axis=1,
        )
        # Float keys (exact: ranks are < 2**53) so the pick's masked
        # minimum needs no per-step conversion.
        self._rank_keys = ranks.astype(np.float64)

    def machine_order(
        self, instance: ProblemInstance, state: AssignmentState, task: int
    ) -> np.ndarray:
        assert self._ranks is not None
        # The order depends only on w and the ranks, never on the state or
        # the period: sort every task's row once per prepared instance
        # (keyed on the ranks array, so a prepare() override that sets
        # only the ranks still gets fresh orders).  lexsort: last key is
        # primary — rank, then w[task, u], then u (the sort is stable).
        if self._orders_of is not self._ranks:
            self._orders = np.lexsort((instance.processing_times, self._ranks), axis=1)
            self._orders_of = self._ranks
        return self._orders[task]

    def pick_keys_batch(
        self,
        state: BatchAssignmentState,
        task: int,
        rows: np.ndarray,
        exec_times: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self._rank_keys is not None
        return self._rank_keys[rows, task], state.w[:, task, :]


@register_heuristic
class HeterogeneityBinarySearchHeuristic(BinarySearchHeuristic):
    """Paper heuristic H3: binary search preferring heterogeneous machines."""

    name = "H3"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._heterogeneity: np.ndarray | None = None
        self._heterogeneity_keys: np.ndarray | None = None

    def prepare(self, instance: ProblemInstance) -> None:
        super().prepare(instance)
        self._heterogeneity = instance.platform.machine_heterogeneity()

    def prepare_batch(
        self, instances, state: BatchAssignmentState
    ) -> None:
        super().prepare_batch(instances, state)
        # Stacked per-instance (not axis-reduced on the stack) so each
        # row's std reduction is the exact float sequence of the scalar
        # path — heterogeneity feeds a sort key, where one ulp flips ties.
        self._heterogeneity_keys = -np.stack(
            [inst.platform.machine_heterogeneity() for inst in instances]
        )

    def machine_order(
        self, instance: ProblemInstance, state: AssignmentState, task: int
    ) -> np.ndarray:
        assert self._heterogeneity is not None
        # Most heterogeneous first; break ties with the smaller projected
        # completion time, then the machine index for determinism.
        return np.lexsort(
            (
                np.arange(instance.num_machines),
                state.candidate_exec_vector(task),
                -self._heterogeneity,
            )
        )

    def pick_keys_batch(
        self,
        state: BatchAssignmentState,
        task: int,
        rows: np.ndarray,
        exec_times: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self._heterogeneity_keys is not None
        # The same keys as machine_order; the projected completion times
        # are the ones the feasibility test already computed.
        return self._heterogeneity_keys[rows], exec_times
