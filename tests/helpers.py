"""Shared helpers importable from any test module (``from tests.helpers import ...``)."""

from __future__ import annotations

import errno
import math
import os
from collections.abc import Sequence

import numpy as np

from repro.analysis.stats import Series
from repro.batch import MappingEvaluator
from repro.core import FailureModel, Mapping, Platform, ProblemInstance
from repro.exact.milp import solve_specialized_milp
from repro.exact.one_to_one import optimal_one_to_one
from repro.exceptions import ReproError, SolverError
from repro.experiments.providers import MIP_LABEL, OTO_LABEL
from repro.generators import (
    random_chain_application,
    random_failure_rates,
    random_processing_times,
)
from repro.generators.scenarios import ScenarioConfig, sample_instance
from repro.heuristics import get_heuristic
from repro.heuristics.base import backward_task_order, solve_one, supports_batch
from repro.heuristics.binary_search import worst_case_period_bound
from repro.heuristics.local_search import specialized_move_mask
from repro.simulation.rng import RandomStreamFactory

__all__ = [
    "AssignmentState",
    "dfs_bottleneck_assignment",
    "kernel_assignments",
    "lexsort_first_feasible",
    "loop_assignments",
    "make_random_instance",
    "per_instance_series",
    "reference_best_move",
    "reference_bisection",
    "reference_candidate_periods",
    "reference_greedy",
    "reference_h1",
    "reference_try_period",
    "sub_instance",
]


class _HalfWrite:
    """A file handle whose ``write`` puts half its bytes, then fails with ENOSPC."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self) -> "_HalfWrite":
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def tell(self) -> int:
        return self._handle.tell()

    def write(self, data: bytes) -> int:
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def fail_next_append(monkeypatch) -> None:
    """Make the next log append write half its line, then raise ``ENOSPC``.

    Every append-only log (``JsonlStore``, ``TraceStore``) appends
    through :class:`repro.jsonl_store.LineLog`, so this patches ``open``
    in that module: the first ``"ab"`` open returns a failing handle,
    and every later open (reads, further appends) is the real one.
    """
    import repro.jsonl_store

    pending = [True]

    def failing_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if mode == "ab" and pending:
            pending.clear()
            return _HalfWrite(handle)
        return handle

    monkeypatch.setattr(repro.jsonl_store, "open", failing_open, raising=False)


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


def sub_instance(
    instance: ProblemInstance, up: np.ndarray
) -> tuple[ProblemInstance, np.ndarray]:
    """The instance restricted to the up machines, plus the column map.

    The oracle of every solve under an up-mask: returns ``(sub, cols)``
    where ``sub`` keeps the full application but only the up machines'
    ``w`` / ``f`` columns, and ``cols[j]`` is the full-platform index of
    sub-machine ``j`` (so a sub-assignment ``a`` maps back as
    ``cols[a]``).
    """
    cols = np.flatnonzero(np.asarray(up, dtype=bool))
    if cols.size == 0:
        raise ReproError("cannot build a sub-instance with no up machines")
    platform = Platform(
        instance.processing_times[:, cols], types=instance.application.types
    )
    failures = FailureModel(instance.failure_rates[:, cols])
    return ProblemInstance(instance.application, platform, failures), cols


def loop_assignments(heuristic, instances) -> np.ndarray:
    """``(R, n)`` assignments through the per-instance path, one
    ``solve_one`` per row (deterministic heuristics only)."""
    return np.stack([solve_one(heuristic, instance) for instance in instances])


def kernel_assignments(heuristic, instances) -> np.ndarray:
    """``(R, n)`` assignments through the lock-step ``solve_batch``
    kernel at any depth; heuristics without one (H2, H3) take the
    per-instance path."""
    if supports_batch(heuristic):
        return heuristic.solve_batch(instances)
    return loop_assignments(heuristic, instances)


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

    A pure-Python oracle for :func:`repro.exact.hungarian.bottleneck_assignment`,
    built independently of it: bisect the distinct cost values
    (``np.unique``) and decide each threshold with Kuhn's recursive
    augmenting-path matching.  The two may return different matchings,
    but always the same bottleneck value.
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


def _reference_upstream(evaluator: MappingEvaluator, task: int) -> list[int]:
    """``task`` first, then every task whose sink path passes through it, ascending."""
    successors = evaluator.instance.application.successors
    upstream = []
    for start in range(evaluator.instance.num_tasks):
        node = start
        while node is not None and node != task:
            node = successors[node]
        if node == task and start != task:
            upstream.append(start)
    return [task] + upstream


def reference_candidate_periods(evaluator: MappingEvaluator, task: int) -> np.ndarray:
    """Period for every destination of ``task``: the per-task probe, written out.

    Entry ``u`` is the period with ``task`` moved to machine ``u``.  The
    evaluator's upstream contributions are scattered with ``np.add.at``
    (upstream-set order), and the full ``(m, m)`` candidate tensor is
    broadcast and reduced — the math ``MappingEvaluator.best_move``'s
    kernels must reproduce bit for bit, built here from the evaluator's
    public state only.
    """
    instance = evaluator.instance
    m = instance.num_machines
    f, w = instance.failure_rates, instance.processing_times
    assignment = evaluator.assignment
    x = evaluator.expected_products
    ups = np.asarray(_reference_upstream(evaluator, task), dtype=np.int64)
    old_c = x[ups] * w[ups, assignment[ups]]
    removed = np.zeros(m)
    np.add.at(removed, assignment[ups], old_c)
    base = evaluator.machine_periods - removed
    rest = np.zeros(m)
    np.add.at(rest, assignment[ups[1:]], old_c[1:])
    ratios = (1.0 - f[task, assignment[task]]) / (1.0 - f[task, :])
    candidates = rest[np.newaxis, :] * ratios[:, np.newaxis]
    candidates += base[np.newaxis, :]
    diag = np.arange(m)
    candidates[diag, diag] += x[task] * ratios * w[task]
    return candidates.max(axis=1)


def reference_best_move(
    evaluator: MappingEvaluator,
    *,
    allowed: np.ndarray | None = None,
    rel_tol: float = 1e-12,
) -> tuple[int, int, float] | None:
    """The single-move scan ``MappingEvaluator.best_move`` must reproduce.

    One :func:`reference_candidate_periods` probe per task, in task
    order: the best strictly improving ``(task, machine, new_period)``,
    ties to the lowest task and then the lowest machine, or ``None`` at a
    local optimum.
    """
    threshold = evaluator.period * (1.0 - rel_tol)
    best: tuple[int, int, float] | None = None
    for task in range(evaluator.instance.num_tasks):
        candidates = reference_candidate_periods(evaluator, task)
        if allowed is not None:
            candidates = np.where(allowed[task], candidates, np.inf)
        machine = int(np.argmin(candidates))
        value = float(candidates[machine])
        if value < threshold and (best is None or value < best[2]):
            best = (task, machine, value)
    return best


def reference_descend(
    evaluator: MappingEvaluator,
    *,
    up: np.ndarray | None = None,
    max_moves: int | None = None,
    rel_tol: float = 1e-12,
) -> list[tuple[int, int]]:
    """The descent ``local_search.descend`` must reproduce, move for move.

    Rebuilds :func:`~repro.heuristics.local_search.specialized_move_mask`
    from the evaluator's assignment before every step (restricted to
    ``up``) and applies each ``best_move`` in place; returns the
    ``(task, machine)`` moves.
    """
    instance = evaluator.instance
    cap = max_moves if max_moves is not None else 100 * instance.num_tasks
    moves: list[tuple[int, int]] = []
    while len(moves) < cap:
        allowed = specialized_move_mask(instance, evaluator.assignment)
        if up is not None:
            allowed &= up
        best = evaluator.best_move(allowed=allowed, rel_tol=rel_tol)
        if best is None:
            break
        evaluator.move(best[0], best[1])
        moves.append((best[0], best[1]))
    return moves


class AssignmentState:
    """Incremental state of a backward greedy assignment, on numpy arrays.

    The oracle of every greedy walk in :mod:`repro.heuristics`: it keeps
    the walks' bookkeeping (dedicated machines, accumulated busy time,
    expected products, the ``nbFreeMachines / nbTypesToGo`` guard) in
    its own form and checks every assignment it is given.
    :func:`reference_h1`, :func:`reference_greedy` and
    :func:`reference_try_period` drive it.

    Parameters
    ----------
    instance:
        The problem instance being solved.
    order:
        The task order used by the heuristic (defaults to the backward
        order).  The state tracks which types still have unassigned tasks
        to implement the free-machine feasibility guard.
    """

    __slots__ = (
        "instance",
        "_order",
        "_position",
        "assignment",
        "machine_type",
        "accumulated",
        "x",
        "_remaining_type_counts",
        "_free_machines",
        "_machine_type_arr",
        "_types_with_machine",
        "_pending_types",
    )

    def __init__(self, instance: ProblemInstance, order: Sequence[int] | None = None):
        self.instance = instance
        self._order = tuple(order) if order is not None else backward_task_order(instance)
        if sorted(self._order) != list(range(instance.num_tasks)):
            raise ReproError("order must be a permutation of all task indices")
        self._position = 0
        n, m = instance.num_tasks, instance.num_machines
        self.assignment = np.full(n, -1, dtype=np.int64)
        #: machine index -> type it is dedicated to (absent = free machine)
        self.machine_type: dict[int, int] = {}
        #: vectorized mirror of machine_type (-1 = free machine)
        self._machine_type_arr = np.full(m, -1, dtype=np.int64)
        #: types that own at least one dedicated machine
        self._types_with_machine: set[int] = set()
        #: accumulated expected busy time per machine (x_j * w[j, u] summed)
        self.accumulated = np.zeros(m, dtype=np.float64)
        #: expected products per task; -1 until the task is assigned
        self.x = np.full(n, -1.0, dtype=np.float64)
        types = instance.application.types
        self._remaining_type_counts: dict[int, int] = {}
        for task in range(n):
            t = types[task]
            self._remaining_type_counts[t] = self._remaining_type_counts.get(t, 0) + 1
        self._free_machines = m
        # Types with unassigned tasks and no dedicated machine.  No machine
        # is dedicated yet, so initially every type present is pending; the
        # count is maintained incrementally by :meth:`assign` (a type leaves
        # the pending set exactly when it gains its first machine, because a
        # type's task count only ever drops through an assignment that also
        # guarantees it a machine).
        self._pending_types = len(self._remaining_type_counts)

    # -- traversal ------------------------------------------------------------------
    @property
    def order(self) -> tuple[int, ...]:
        """The task traversal order."""
        return self._order

    def remaining_tasks(self) -> tuple[int, ...]:
        """Tasks not yet assigned, in traversal order."""
        return self._order[self._position :]

    def next_task(self) -> int | None:
        """The next task to assign, or ``None`` when every task is assigned."""
        if self._position >= len(self._order):
            return None
        return self._order[self._position]

    def is_complete(self) -> bool:
        """True when every task has been assigned."""
        return self._position >= len(self._order)

    # -- demand bookkeeping ------------------------------------------------------------
    def downstream_demand(self, task: int) -> float:
        """Products the successor of ``task`` requires (1.0 for a sink).

        Because assignment proceeds sinks-first, the successor of the next
        task to assign has always been assigned already, so its ``x`` value
        is known exactly.
        """
        succ = self.instance.application.successor(task)
        if succ is None:
            return 1.0
        x_succ = self.x[succ]
        if x_succ < 0:
            raise ReproError(
                f"successor {succ} of task {task} has not been assigned yet; "
                "heuristics must traverse the graph sinks-first"
            )
        return float(x_succ)

    def candidate_products(self, task: int, machine: int) -> float:
        """``x_i`` that task would get if assigned to ``machine``."""
        demand = self.downstream_demand(task)
        return demand / (1.0 - self.instance.f(task, machine))

    def candidate_products_vector(self, task: int) -> np.ndarray:
        """``x_i`` the task would get on each machine, as an ``(m,)`` vector."""
        demand = self.downstream_demand(task)
        return demand / (1.0 - self.instance.failure_rates[task, :])

    def candidate_exec_vector(self, task: int) -> np.ndarray:
        """Machine completion times if ``task`` went to each machine (``(m,)``).

        ``accu_u + x_i(u) * w[i, u]`` with the true (failure-aware) ``x_i``:
        the quantity the binary-search heuristics compare against the
        period bound.
        """
        return self.accumulated + self.candidate_products_vector(
            task
        ) * self.instance.processing_times[task, :]

    # -- machine eligibility --------------------------------------------------------------
    def num_free_machines(self) -> int:
        """Machines not yet dedicated to any type."""
        return self._free_machines

    def num_pending_types(self) -> int:
        """Types that still have unassigned tasks and no dedicated machine.

        Maintained incrementally by :meth:`assign` (O(1)) instead of
        rescanning the per-type counts on every eligibility check.
        """
        return self._pending_types

    def _has_machine_for(self, type_index: int) -> bool:
        return type_index in self._types_with_machine

    def machines_of_type(self, type_index: int) -> list[int]:
        """Machines already dedicated to ``type_index``."""
        return sorted(u for u, t in self.machine_type.items() if t == type_index)

    def is_eligible(self, task: int, machine: int) -> bool:
        """True if ``machine`` may receive ``task`` under the specialized rule.

        A machine is eligible when it is already dedicated to ``t(task)``,
        or when it is free *and* dedicating it would not starve another
        still-pending type of its last free machine.
        """
        task_type = self.instance.type_of(task)
        dedicated = self.machine_type.get(machine)
        if dedicated is not None:
            return dedicated == task_type
        # Free machine: apply the nbFreeMachines / nbTypesToGo guard.
        pending = self.num_pending_types()
        if self._has_machine_for(task_type):
            # The type already owns a machine; taking a new free machine is
            # only allowed if enough free machines remain for pending types.
            return self._free_machines - 1 >= pending
        # The type has no machine yet: it is itself one of the pending
        # types, so using a free machine for it always keeps the invariant.
        return self._free_machines - 1 >= pending - 1

    def eligible_mask(self, task: int) -> np.ndarray:
        """Boolean ``(m,)`` mask of machines that may receive ``task``.

        Vectorized equivalent of calling :meth:`is_eligible` for every
        machine: a machine qualifies when it is dedicated to the task's
        type, or free and the ``nbFreeMachines / nbTypesToGo`` guard
        allows dedicating it.
        """
        task_type = self.instance.type_of(task)
        dedicated_ok = self._machine_type_arr == task_type
        free = self._machine_type_arr == -1
        pending = self.num_pending_types()
        if self._has_machine_for(task_type):
            free_ok = self._free_machines - 1 >= pending
        else:
            free_ok = self._free_machines - 1 >= pending - 1
        if not free_ok:
            return dedicated_ok
        return dedicated_ok | free

    def eligible_machines(self, task: int) -> list[int]:
        """All machines that may receive ``task`` (ascending index)."""
        return [int(u) for u in np.flatnonzero(self.eligible_mask(task))]

    # -- mutation ---------------------------------------------------------------------
    def assign(self, task: int, machine: int) -> None:
        """Assign the next task of the traversal to ``machine``.

        Raises
        ------
        ReproError
            If ``task`` is not the next task in the traversal order or the
            machine is not eligible.
        """
        expected = self.next_task()
        if expected is None or task != expected:
            raise ReproError(
                f"tasks must be assigned in traversal order; expected task {expected}, "
                f"got {task}"
            )
        if not self.is_eligible(task, machine):
            raise ReproError(
                f"machine {machine} is not eligible for task {task} under the "
                "specialized rule"
            )
        task_type = self.instance.type_of(task)
        if machine not in self.machine_type:
            self.machine_type[machine] = task_type
            self._machine_type_arr[machine] = task_type
            if task_type not in self._types_with_machine:
                # The type gains its first machine: it stops being pending.
                self._pending_types -= 1
            self._types_with_machine.add(task_type)
            self._free_machines -= 1
        x_task = self.candidate_products(task, machine)
        self.x[task] = x_task
        self.accumulated[machine] += x_task * self.instance.w(task, machine)
        self.assignment[task] = machine
        self._remaining_type_counts[task_type] -= 1
        self._position += 1

    # -- result ---------------------------------------------------------------------
    def to_mapping(self) -> Mapping:
        """Freeze the assignment into a :class:`~repro.core.Mapping`.

        Raises
        ------
        ReproError
            If some tasks are still unassigned.
        """
        if not self.is_complete():
            raise ReproError("assignment is incomplete")
        return Mapping(self.assignment, self.instance.num_machines)


def reference_h1(instance: ProblemInstance, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """H1 (Algorithm 1) on an :class:`AssignmentState`; ``(assignment, groups_opened)``.

    The oracle of ``RandomHeuristic.solve_mapping``: the same
    ``rng.choice`` / ``rng.random`` calls on the same ascending lists of
    eligible machines.
    """
    state = AssignmentState(instance, backward_task_order(instance))
    groups_opened = 0
    while not state.is_complete():
        task = state.next_task()
        task_type = instance.type_of(task)
        existing = [u for u in state.machines_of_type(task_type) if state.is_eligible(task, u)]
        free = [
            u
            for u in range(instance.num_machines)
            if u not in state.machine_type and state.is_eligible(task, u)
        ]
        if not existing:
            machine = int(rng.choice(free))
            groups_opened += 1
        elif free and state.num_free_machines() > state.num_pending_types():
            if rng.random() < 0.5:
                machine = int(rng.choice(free))
                groups_opened += 1
            else:
                machine = int(rng.choice(existing))
        else:
            machine = int(rng.choice(existing))
        state.assign(task, machine)
    return state.assignment.copy(), groups_opened


#: The H4 family's criterion matrices ``C``, from ``w`` and ``F = 1 / (1 - f)``.
_GREEDY_CRITERIA = {
    "H4": lambda w, attempts: w * attempts,
    "H4w": lambda w, attempts: w,
    "H4f": lambda w, attempts: attempts,
}


def reference_greedy(name: str, instance: ProblemInstance) -> np.ndarray:
    """An H4-family solve on an :class:`AssignmentState`; the ``(n,)`` assignment.

    The oracle of ``GreedyCompletionHeuristic.solve_mapping``: sinks
    first, each task goes to the eligible machine minimising ``accu_u +
    demand * C[task, u]``, the lowest index on exact ties (``np.argmin``).
    """
    criterion = _GREEDY_CRITERIA[name](
        instance.processing_times, instance.failures.attempts_factors
    )
    state = AssignmentState(instance, backward_task_order(instance))
    while not state.is_complete():
        task = state.next_task()
        demand = state.downstream_demand(task)
        scores = np.where(
            state.eligible_mask(task),
            state.accumulated + demand * criterion[task],
            np.inf,
        )
        state.assign(task, int(np.argmin(scores)))
    return state.assignment.copy()


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
    max_iterations: int = 128,
    bound: float | None = None,
) -> tuple[np.ndarray | None, int, float, float, int]:
    """The H2/H3 bisection with a full probe at every midpoint.

    The oracle of ``BinarySearchHeuristic.solve_mapping``: returns
    ``(assignment, iterations, final_low, final_high, probes)``, with a
    ``None`` assignment when even the doubled upper bound fails.
    ``probes`` counts the greedy placements run; ``max_iterations`` is
    the step cap (``binary_search.MAX_BISECTION_STEPS``) and ``bound``
    replaces the worst-case upper bound the bisection starts from.  The
    loop stops after a step that leaves ``(low, high)`` unchanged, since
    every later step would repeat it.
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
    while iterations < max_iterations and high - low > 1.0:
        mid = low + math.floor((high - low) / 2.0)
        iterations += 1
        bracket = (low, high)
        candidate = reference_try_period(name, instance, mid)
        probes += 1
        if candidate is not None:
            best, high = candidate, mid
        else:
            low = mid
        if (low, high) == bracket:
            break  # every later step would probe this midpoint again
    return best, iterations, low, high, probes
