"""Shared infrastructure for the mapping heuristics.

The six heuristics of the paper (H1, H2, H3, H4, H4w, H4f) all build a
*specialized* mapping by walking the application graph **backward** (from
the last task towards the first) and greedily choosing a machine for each
task.  They share a substantial amount of state-keeping:

* which machine is *dedicated* to which task type (a machine becomes
  dedicated to ``t(i)`` the first time a task of that type is assigned to
  it, and can then only receive tasks of that type);
* the accumulated expected execution time of each machine
  (``accu_u = sum_{j assigned to u} x_j * w[j, u]``);
* the expected-product values ``x_j`` of already assigned tasks, which are
  known because assignment proceeds sinks-first.

:class:`AssignmentState` encapsulates this bookkeeping; the concrete
heuristics only differ in *how* they rank candidate machines.

Feasibility guard
-----------------
The paper's pseudo-code assumes that a type-compatible machine always
exists.  When the number of machines is close to the number of types this
is not guaranteed (all machines could become dedicated to other types
before some type shows up).  :class:`AssignmentState` therefore refuses to
dedicate a *free* machine to a new type when doing so would leave fewer
free machines than the number of still-unseen types — exactly the
``nbFreeMachines > nbTypesToGo`` bookkeeping that the paper makes explicit
in Algorithm 1 (H1).  This guard is applied uniformly to every heuristic so
that all of them always return a valid specialized mapping whenever one
exists (``m >= p``).
"""

from __future__ import annotations

import abc
import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.instance import ProblemInstance, shared_successor_table
from ..core.mapping import Mapping, MappingRule
from ..core.period import MappingEvaluation, evaluate
from ..exceptions import InfeasibleProblemError, MappingRuleViolation, ReproError

__all__ = [
    "HeuristicResult",
    "Heuristic",
    "AssignmentState",
    "BatchAssignmentState",
    "BatchHeuristic",
    "BATCH_SOLVE_MIN_REPETITIONS",
    "BATCH_SOLVE_THRESHOLDS",
    "batch_solve_min_repetitions",
    "supports_batch",
    "solve_one",
    "solve_stack",
    "validate_assignments",
    "register_heuristic",
    "get_heuristic",
    "available_heuristics",
    "backward_task_order",
]

#: Default smallest stack depth at which the lock-step batch solvers beat
#: the per-instance loop (both paths are bit-for-bit identical, so this is
#: purely a scheduling choice).  Shared by the block engine's curve
#: providers and the solve service's micro-batcher; heuristics with an
#: empirically measured crossover override it through
#: :data:`BATCH_SOLVE_THRESHOLDS` / :func:`batch_solve_min_repetitions`.
BATCH_SOLVE_MIN_REPETITIONS = 8


def _load_batch_thresholds() -> dict[str, int]:
    """Per-heuristic crossovers calibrated by ``scripts/tune_thresholds.py``.

    The calibration lives in ``thresholds.json`` next to this module; a
    missing or unreadable file degrades to the shared default so source
    checkouts without it keep working.
    """
    path = Path(__file__).with_name("thresholds.json")
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    thresholds = data.get("thresholds", {})
    return {
        str(name): max(2, int(value))
        for name, value in thresholds.items()
        if isinstance(value, (int, float))
    }


#: ``{heuristic name: measured batch/per-instance crossover depth}``.
BATCH_SOLVE_THRESHOLDS: dict[str, int] = _load_batch_thresholds()


def batch_solve_min_repetitions(heuristic: str | None = None) -> int:
    """The batch-solve crossover depth for one heuristic.

    Falls back to :data:`BATCH_SOLVE_MIN_REPETITIONS` for heuristics
    without a calibrated entry (and for ``None``).
    """
    if heuristic is None:
        return BATCH_SOLVE_MIN_REPETITIONS
    return BATCH_SOLVE_THRESHOLDS.get(heuristic, BATCH_SOLVE_MIN_REPETITIONS)


@dataclass(frozen=True, slots=True)
class HeuristicResult:
    """Outcome of a heuristic run.

    Attributes
    ----------
    heuristic:
        Name of the heuristic ("H1", "H2", ...).
    mapping:
        The produced allocation.
    evaluation:
        Full period / throughput evaluation of the mapping.
    iterations:
        Number of outer iterations performed (binary-search steps for
        H2/H3, 1 for the greedy heuristics).
    metadata:
        Free-form additional information (e.g. final binary-search bounds).
    """

    heuristic: str
    mapping: Mapping
    evaluation: MappingEvaluation
    iterations: int = 1
    metadata: dict = field(default_factory=dict)

    @property
    def period(self) -> float:
        """Shortcut for ``evaluation.period``."""
        return self.evaluation.period

    @property
    def throughput(self) -> float:
        """Shortcut for ``evaluation.throughput``."""
        return self.evaluation.throughput


def backward_task_order(instance: ProblemInstance) -> tuple[int, ...]:
    """Order in which heuristics assign tasks: sinks first, sources last.

    For a linear chain this is ``T_n, T_{n-1}, ..., T_1``, exactly the
    traversal described in Section 6.2.
    """
    return instance.application.reverse_topological_order()


class AssignmentState:
    """Incremental state of a backward greedy assignment.

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

    def candidate_exec(self, task: int, machine: int) -> float:
        """Machine completion time if ``task`` were assigned to ``machine``.

        ``accu_u + x_i(u) * w[i, u]`` with the true (failure-aware) ``x_i``.
        This is the quantity compared against the period bound in the
        binary-search heuristics.
        """
        return float(
            self.accumulated[machine]
            + self.candidate_products(task, machine) * self.instance.w(task, machine)
        )

    def candidate_products_vector(self, task: int) -> np.ndarray:
        """``x_i`` the task would get on each machine, as an ``(m,)`` vector."""
        demand = self.downstream_demand(task)
        return demand / (1.0 - self.instance.failure_rates[task, :])

    def candidate_exec_vector(self, task: int) -> np.ndarray:
        """Vectorized :meth:`candidate_exec` over every machine at once."""
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


class BatchAssignmentState:
    """Lock-step :class:`AssignmentState` over ``R`` stacked instances.

    The batch solvers advance all ``R`` repetitions of a block through the
    same backward traversal simultaneously: every piece of per-instance
    greedy state (assignment, dedicated machines, accumulated busy time,
    expected products, the free-machine feasibility guard) becomes an
    array with a leading repetition axis, and each greedy step is a
    handful of vectorized operations over ``(R, m)`` slices instead of
    ``R`` Python loop iterations.

    All instances must share the precedence graph (and therefore the
    backward traversal order); types, ``w`` and ``f`` are per repetition.
    Row ``r``'s arithmetic mirrors a scalar :class:`AssignmentState` on
    instance ``r`` operation for operation, so the resulting assignments
    are bit-for-bit identical to ``R`` sequential solves.
    """

    __slots__ = (
        "order",
        "types",
        "w",
        "f",
        "assignment",
        "machine_type",
        "accumulated",
        "x",
        "free_machines",
        "pending_types",
        "_succ",
        "_has_machine",
        "_all_rows",
    )

    def __init__(self, instances: Sequence[ProblemInstance]):
        if not instances:
            raise ReproError("cannot batch-solve zero instances")
        first = instances[0]
        self.order = backward_task_order(first)
        successors = shared_successor_table(instances)
        self.types = np.stack([inst.application.types.as_array for inst in instances])
        self.w = np.stack([inst.processing_times for inst in instances])
        self.f = np.stack([inst.failure_rates for inst in instances])
        self._succ = np.asarray(
            [-1 if succ is None else succ for succ in successors], dtype=np.int64
        )
        R, n, m = self.w.shape
        self.assignment = np.full((R, n), -1, dtype=np.int64)
        #: per-row machine -> dedicated type (-1 = free machine)
        self.machine_type = np.full((R, m), -1, dtype=np.int64)
        self.accumulated = np.zeros((R, m), dtype=np.float64)
        self.x = np.full((R, n), -1.0, dtype=np.float64)
        self.free_machines = np.full(R, m, dtype=np.int64)
        # Distinct types present per row: all of them are pending until
        # they gain their first dedicated machine, exactly as in the
        # scalar state.
        max_type = int(self.types.max())
        self._has_machine = np.zeros((R, max_type + 1), dtype=bool)
        sorted_types = np.sort(self.types, axis=1)
        self.pending_types = 1 + np.count_nonzero(
            sorted_types[:, 1:] != sorted_types[:, :-1], axis=1
        ).astype(np.int64)
        self._all_rows = np.arange(R)

    @property
    def num_rows(self) -> int:
        """Stack depth ``R``."""
        return int(self.assignment.shape[0])

    @property
    def num_machines(self) -> int:
        """Platform size ``m``."""
        return int(self.machine_type.shape[1])

    def downstream_demand(self, task: int) -> np.ndarray:
        """Per-row products required by ``task``'s successor (``(R,)``)."""
        succ = int(self._succ[task])
        if succ < 0:
            return np.ones(self.num_rows, dtype=np.float64)
        return self.x[:, succ]

    def candidate_exec(self, task: int) -> np.ndarray:
        """Batched :meth:`AssignmentState.candidate_exec_vector` (``(R, m)``)."""
        products = self.downstream_demand(task)[:, np.newaxis] / (
            1.0 - self.f[:, task, :]
        )
        return self.accumulated + products * self.w[:, task, :]

    def eligible_mask(self, task: int) -> np.ndarray:
        """Batched :meth:`AssignmentState.eligible_mask` (``(R, m)`` bool)."""
        task_type = self.types[:, task]
        dedicated_ok = self.machine_type == task_type[:, np.newaxis]
        free = self.machine_type == -1
        has_machine = self._has_machine[self._all_rows, task_type]
        # nbFreeMachines / nbTypesToGo guard, rowwise: a type that already
        # owns a machine must leave a free machine per pending type; a
        # pending type may always claim one of the machines reserved for
        # the pending set.
        free_ok = np.where(
            has_machine,
            self.free_machines - 1 >= self.pending_types,
            self.free_machines - 1 >= self.pending_types - 1,
        )
        return dedicated_ok | (free & free_ok[:, np.newaxis])

    def assign(self, task: int, machines: np.ndarray) -> None:
        """Assign ``task`` to ``machines[r]`` in every row, lock-step.

        Eligibility is guaranteed by construction in the batch solvers
        (they mask ineligible machines before choosing), so no per-row
        check is re-run here.
        """
        rows = self._all_rows
        machines = np.asarray(machines, dtype=np.int64)
        task_type = self.types[:, task]
        newly = self.machine_type[rows, machines] == -1
        if newly.any():
            nrows, nmachines, ntypes = (
                rows[newly],
                machines[newly],
                task_type[newly],
            )
            had_machine = self._has_machine[nrows, ntypes]
            self.machine_type[nrows, nmachines] = ntypes
            self.pending_types[nrows] -= ~had_machine
            self._has_machine[nrows, ntypes] = True
            self.free_machines[nrows] -= 1
        x_task = self.downstream_demand(task) / (1.0 - self.f[rows, task, machines])
        self.x[:, task] = x_task
        self.accumulated[rows, machines] += x_task * self.w[rows, task, machines]
        self.assignment[:, task] = machines


@runtime_checkable
class BatchHeuristic(Protocol):
    """Protocol of heuristics that can solve a whole repetition block.

    ``solve_batch`` takes the ``R`` structurally identical instances of
    one :class:`~repro.batch.InstanceStack` block and returns the
    ``(R, n)`` assignment array whose row ``r`` is bit-for-bit identical
    to ``solve_mapping(instances[r])``.  The block engine feeds the array
    straight into the stack's vectorized scoring pass, so a curve whose
    heuristic implements this protocol never re-enters Python per
    repetition.  Deterministic heuristics only — randomized ones (H1)
    keep the per-instance path.
    """

    def solve_batch(self, instances: Sequence[ProblemInstance]) -> np.ndarray:
        """Solve every instance of the block at once (``(R, n)`` int64)."""
        ...  # pragma: no cover - protocol stub


def supports_batch(heuristic: object) -> bool:
    """True when ``heuristic`` implements :class:`BatchHeuristic`."""
    return isinstance(heuristic, BatchHeuristic)


def validate_assignments(
    instances: Sequence[ProblemInstance],
    assignments: np.ndarray,
    rule: MappingRule,
) -> None:
    """Batched counterpart of ``Mapping.validate`` over a stack of solves.

    The specialized rule — every batchable heuristic's rule — is checked
    in one vectorized counts pass; any other rule falls back to the
    per-instance validation.
    """
    if rule is not MappingRule.SPECIALIZED:
        for row, instance in enumerate(instances):
            Mapping(assignments[row], instance.num_machines).validate(instance, rule)
        return
    R = len(instances)
    m = instances[0].num_machines
    types = np.stack([inst.application.types.as_array for inst in instances])
    counts = np.zeros((R, m, int(types.max()) + 1), dtype=np.int64)
    np.add.at(counts, (np.arange(R)[:, np.newaxis], assignments, types), 1)
    distinct = (counts > 0).sum(axis=2)
    if (distinct > 1).any():
        row = int(np.argmax((distinct > 1).any(axis=1)))
        raise MappingRuleViolation(
            f"batch solve of row {row} assigns tasks of two different "
            "types to the same machine"
        )


def solve_one(
    heuristic: Heuristic,
    instance: ProblemInstance,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Feasibility-checked, validated single solve; the ``(n,)`` assignment.

    The scalar counterpart of :func:`solve_stack`: both the block engine's
    per-instance fallback and the solve service's unbatched path go
    through this entry, so every consumer applies the same feasibility
    check and mapping-rule validation.
    """
    heuristic.check_feasible(instance)
    mapping, _, _ = heuristic.solve_mapping(instance, rng)
    mapping.validate(instance, heuristic.rule)
    return mapping.as_array


def solve_stack(
    heuristic: Heuristic,
    instances: Sequence[ProblemInstance],
    rng_for: Callable[[int], np.random.Generator] | None = None,
    *,
    batch: bool | None = None,
) -> np.ndarray:
    """Solve a stack of structurally identical instances; ``(R, n)`` int64.

    The provider-agnostic routing entry shared by the experiment engine's
    :class:`~repro.experiments.providers.HeuristicProvider` and the solve
    service's micro-batcher: when ``heuristic`` implements
    :class:`BatchHeuristic` and the stack is at least the heuristic's
    :func:`batch_solve_min_repetitions` deep (or ``batch=True`` forces
    it), the whole stack is solved in one lock-step ``solve_batch`` call;
    otherwise each instance is solved through :func:`solve_one`.  Row
    ``r`` is bit-for-bit identical either way.

    Parameters
    ----------
    heuristic:
        The heuristic to run.
    instances:
        The stacked instances (shared precedence graph and platform
        size; types, ``w`` and ``f`` may differ per row).
    rng_for:
        ``rng_for(r)`` supplies the generator for row ``r`` on the
        per-instance path (randomized heuristics); ``None`` passes no
        generator, which deterministic heuristics ignore.
    batch:
        ``None`` (default) applies the depth crossover;
        ``True``/``False`` force one path (tests, benchmarks).
    """
    if not instances:
        raise ReproError("cannot solve an empty instance stack")
    use_batch = (
        batch
        if batch is not None
        else len(instances)
        >= batch_solve_min_repetitions(getattr(heuristic, "name", None))
    )
    if use_batch and supports_batch(heuristic):
        for instance in instances:
            heuristic.check_feasible(instance)
        assignments = heuristic.solve_batch(instances)
        validate_assignments(instances, assignments, heuristic.rule)
        return assignments
    assignments = np.empty(
        (len(instances), instances[0].num_tasks), dtype=np.int64
    )
    for row, instance in enumerate(instances):
        rng = rng_for(row) if rng_for is not None else None
        assignments[row] = solve_one(heuristic, instance, rng)
    return assignments


class Heuristic(abc.ABC):
    """Base class for mapping heuristics.

    Subclasses implement :meth:`solve_mapping` and set the class attributes
    ``name`` (paper identifier) and ``rule`` (mapping rule they produce).
    """

    #: Paper identifier (e.g. ``"H4w"``); must be unique across the registry.
    name: str = ""
    #: Mapping rule produced by the heuristic.
    rule: MappingRule = MappingRule.SPECIALIZED
    #: Whether the heuristic uses randomness (and therefore an RNG argument).
    randomized: bool = False

    def check_feasible(self, instance: ProblemInstance) -> None:
        """Raise if no specialized mapping can exist for the instance."""
        if not instance.supports_specialized():
            raise InfeasibleProblemError(
                f"specialized mappings need m >= p; got m={instance.num_machines}, "
                f"p={instance.num_types}"
            )

    @abc.abstractmethod
    def solve_mapping(
        self, instance: ProblemInstance, rng: np.random.Generator | None = None
    ) -> tuple[Mapping, int, dict]:
        """Produce ``(mapping, iterations, metadata)`` for the instance."""

    def solve(
        self, instance: ProblemInstance, rng: np.random.Generator | None = None
    ) -> HeuristicResult:
        """Run the heuristic and evaluate the resulting mapping."""
        self.check_feasible(instance)
        if self.randomized and rng is None:
            rng = np.random.default_rng()
        mapping, iterations, metadata = self.solve_mapping(instance, rng)
        mapping.validate(instance, self.rule)
        return HeuristicResult(
            heuristic=self.name,
            mapping=mapping,
            evaluation=evaluate(instance, mapping),
            iterations=iterations,
            metadata=metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, Callable[[], Heuristic]] = {}


def register_heuristic(factory: Callable[[], Heuristic]) -> Callable[[], Heuristic]:
    """Register a heuristic factory under its instance ``name``.

    Usable as a class decorator on :class:`Heuristic` subclasses.
    """
    instance = factory()
    key = instance.name.lower()
    if not key:
        raise ReproError("heuristic must define a non-empty name")
    if key in _REGISTRY:
        raise ReproError(f"heuristic {instance.name!r} is already registered")
    _REGISTRY[key] = factory
    return factory


def get_heuristic(name: str) -> Heuristic:
    """Instantiate a registered heuristic by (case-insensitive) name."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ReproError(f"unknown heuristic {name!r}; known: {known}") from exc
    return factory()


def available_heuristics() -> list[str]:
    """Names of all registered heuristics, in registration order."""
    return [factory().name for factory in _REGISTRY.values()]
