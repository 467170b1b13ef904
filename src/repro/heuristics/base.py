"""Shared infrastructure for the mapping heuristics.

The six heuristics of the paper (H1, H2, H3, H4, H4w, H4f) all build a
*specialized* mapping by walking the application graph **backward** (from
the last task towards the first) and greedily choosing a machine for each
task.  Every walk keeps the same per-solve state, as plain Python lists
and counters:

* ``machine_type[u]``, the type machine ``u`` is dedicated to (``-1``
  while free): a machine becomes dedicated to ``t(i)`` the first time a
  task of that type is assigned to it, and can then only receive tasks
  of that type;
* ``accumulated[u]``, the expected busy time of machine ``u``
  (``sum_{j assigned to u} x_j * w[j, u]``);
* ``x[j]``, the expected products of an assigned task, known for the
  successor of every task the walk reaches because it goes sinks-first;
* ``has_machine[t]``, ``free`` and ``pending``: whether type ``t`` owns
  a machine, how many machines are still free, and how many of the
  instance's types own none yet.

The heuristics only differ in *how* they rank the eligible machines.
:class:`WalkTables` holds a walk's per-instance inputs.  A heuristic
object keeps them, with its own inputs (H2/H3's machine preference, the
H4 criterion rows), for the last instance it solved (matched by
identity, :meth:`Heuristic.walk_inputs`), so repeated solves of one
instance build them once; one solve builds them once and hands them to
every step that needs them (H2's per-row orders, H4w's criterion rows).
Tasks whose ``w`` rows are exactly equal share one row list, so a
generated (type-consistent) instance converts ``p`` rows, not ``n``.

Down machines
-------------
Every solve can take an *up-mask* (``up``, boolean ``(m,)``): the
machines marked down must receive no task.  A walk then starts with each
down machine already owned by a *phantom* type, ``max(types) + 1``,
that no task has (:func:`start_owners`), so the eligibility test rejects
it everywhere, and with ``free`` at the up count.  Every ranking the
heuristics use is computed one machine column at a time and breaks ties
by the lower index, so the walk picks what it would pick on the platform
renumbered down to its up machines, mapped back to full indices.  The
live replanner's cold tier solves this way (see :func:`solve_one`).

Feasibility guard
-----------------
The paper's pseudo-code assumes that a type-compatible machine always
exists.  When the number of machines is close to the number of types this
is not guaranteed (all machines could become dedicated to other types
before some type shows up).  A walk therefore lets a task take a *free*
machine only when ``free > (pending if has_machine[t] else pending - 1)``:
a type that already owns a machine must leave one free machine per
pending type, and a pending type may take one of the machines reserved
for the pending set.  This is exactly the ``nbFreeMachines >
nbTypesToGo`` bookkeeping that the paper makes explicit in Algorithm 1
(H1).  It is applied uniformly to every heuristic, so that all of them
return a valid specialized mapping whenever one exists (``m >= p``).
:class:`BatchAssignmentState` keeps the same state and guard with a
leading row axis (one row per instance and heuristic of a lock-step
H4-family pass), the guard folded into one per-row free code.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.instance import ProblemInstance, shared_successor_table
from ..core.mapping import Mapping, MappingRule, hosts_one_type
from ..core.period import MappingEvaluation, evaluate
from ..exceptions import InfeasibleProblemError, MappingRuleViolation, ReproError

__all__ = [
    "HeuristicResult",
    "Heuristic",
    "BatchAssignmentState",
    "BatchHeuristic",
    "BATCH_MIN_ROWS",
    "supports_batch",
    "solves_in_batch",
    "solve_one",
    "solve_stack",
    "validate_assignments",
    "register_heuristic",
    "get_heuristic",
    "available_heuristics",
    "backward_task_order",
    "start_owners",
    "worst_case_products",
    "WalkTables",
]

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


def worst_case_products(
    instance: ProblemInstance, up: np.ndarray | None = None
) -> list[float]:
    """Per-task worst-case expected products: the product of the worst
    attempts factors ``1 / (1 - max_u f[j, u])`` along the path from the
    task to its sink, the maxima over the machines ``up`` marks (every
    machine when ``None``)."""
    f = instance.failure_rates if up is None else instance.failure_rates[:, up]
    worst_attempts = (1.0 / (1.0 - f.max(axis=1))).tolist()
    successors = instance.application.successors
    x_max = [1.0] * instance.num_tasks
    for task in backward_task_order(instance):
        succ = successors[task]
        x_max[task] = (1.0 if succ is None else x_max[succ]) * worst_attempts[task]
    return x_max


def start_owners(up: np.ndarray | None, num_machines: int, phantom: int) -> list[int]:
    """A walk's start ``machine_type`` row under the up-mask ``up``.

    ``-1`` (free) on every up machine and ``phantom``, a type no task
    has, on every down one; all ``-1`` when ``up`` is ``None``.
    """
    if up is None:
        return [-1] * num_machines
    return np.where(up, -1, phantom).tolist()


@dataclass(frozen=True, slots=True)
class WalkTables:
    """The per-instance inputs of a greedy walk, as plain Python lists.

    Built once per instance with ``.tolist()``, so a walk's inner loop
    touches only Python floats and ints.  ``keep[i][u]`` is
    ``1.0 - f[i, u]``; ``num_types`` counts the types the tasks use.

    Tasks whose ``w`` rows are *exactly* equal share one ``w[i]`` list:
    each task's row is compared with its type's first task's row, so a
    type-consistent platform (every generated one: ``w`` is drawn per
    type and machine) converts ``p`` rows instead of ``n``.  ``rows``
    holds the task whose row each distinct list is, ascending, and
    ``row_of[i]`` the index of task ``i``'s list in it.
    """

    order: tuple[int, ...]
    successors: list[int]
    types: list[int]
    keep: list[list[float]]
    w: list[list[float]]
    num_machines: int
    num_types: int
    rows: np.ndarray
    row_of: np.ndarray

    @classmethod
    def build(cls, instance: ProblemInstance) -> "WalkTables":
        successors = instance.application.successors
        type_assignment = instance.application.types
        types = type_assignment.as_array.tolist()
        w = instance.processing_times
        leaders = type_assignment.leaders()
        exact = (w == w[leaders]).all(axis=1)
        rows, row_of = np.unique(
            np.where(exact, leaders, np.arange(len(types))), return_inverse=True
        )
        distinct = w[rows].tolist()
        return cls(
            order=backward_task_order(instance),
            successors=[-1 if succ is None else succ for succ in successors],
            types=types,
            keep=(1.0 - instance.failure_rates).tolist(),
            w=[distinct[k] for k in row_of.tolist()],
            num_machines=instance.num_machines,
            num_types=len(set(types)),
            rows=rows,
            row_of=row_of,
        )

    def owners(self, up: np.ndarray | None = None) -> list[int]:
        """:func:`start_owners` of this instance (a fresh list)."""
        return start_owners(up, self.num_machines, max(self.types) + 1)


class BatchAssignmentState:
    """The greedy walk's state over ``copies`` x ``R`` stacked rows, lock-step.

    The batch solvers advance every row through the same backward
    traversal simultaneously: every piece of per-instance walk state
    (assignment, dedicated machines, accumulated busy time, expected
    products, the free-machine feasibility guard) becomes an array with
    a leading row axis, and each greedy step is a handful of vectorized
    operations over ``(rows, m)`` slices instead of one Python loop
    iteration per row.

    Row ``h * R + r`` walks instance ``r`` for the ``h``-th of
    ``copies`` walks (one per heuristic of a fused solve), so the state
    has ``copies * R`` rows.  ``w`` and ``keep = 1 - f`` are stacked
    once per instance, task-major (``(n, R, m)``), and every copy reads
    them through its instance index; the copies of an instance differ
    only in the machines their own walk picked.

    All instances must share the precedence graph (and therefore the
    backward traversal order); types, ``w`` and ``f`` are per instance.
    Row arithmetic mirrors the scalar walk on its instance operation for
    operation, so the assignments are bit-for-bit identical to
    sequential solves.  Eligibility is one comparison pair per step:
    a machine is eligible when its owner is the task's type or the row's
    *free code*, ``-1`` (free machines) when the feasibility guard lets
    the task take one, else ``-2`` (no machine).
    """

    __slots__ = (
        "order",
        "machine_type",
        "accumulated",
        "_w",
        "_keep",
        "_assignment",
        "_x",
        "_slack",
        "_succ",
        "_task_types",
        "_type_cells",
        "_has_machine",
        "_row_cells",
        "_instance_cells",
        "_ones",
        "_owner_cells",
        "_accumulated_cells",
    )

    def __init__(self, instances: Sequence[ProblemInstance], copies: int = 1):
        if not instances:
            raise ReproError("cannot batch-solve zero instances")
        first = instances[0]
        self.order = backward_task_order(first)
        successors = shared_successor_table(instances)
        self._succ = [-1 if succ is None else succ for succ in successors]
        types = np.stack([inst.application.types.as_array for inst in instances])
        R, n = types.shape
        m = first.num_machines
        rows = copies * R
        # Task-major (n, R * m) tables: step ``task`` gathers from one
        # contiguous row at ``instance * m + machine``.
        self._w = np.stack([inst.processing_times for inst in instances], axis=1).reshape(
            n, R * m
        )
        keep = np.stack([inst.failure_rates for inst in instances], axis=1)
        self._keep = np.subtract(1.0, keep, out=keep).reshape(n, R * m)
        row_types = np.tile(types, (copies, 1))
        num_types = int(types.max()) + 1
        self._task_types = np.ascontiguousarray(row_types.T)
        #: per task, each row's cell in the flat ``(rows, num_types)`` table
        self._type_cells = np.ascontiguousarray(
            (row_types + (np.arange(rows) * num_types)[:, np.newaxis]).T
        )
        self._has_machine = np.zeros(rows * num_types, dtype=bool)
        self._row_cells = np.arange(rows) * m
        self._instance_cells = np.tile(np.arange(R) * m, copies)
        self._ones = np.ones(rows, dtype=np.float64)
        #: per-row machine -> dedicated type (-1 = free machine)
        self.machine_type = np.full((rows, m), -1, dtype=np.int64)
        self.accumulated = np.zeros((rows, m), dtype=np.float64)
        # Flat views of the two, indexed by ``row * m + machine``.
        self._owner_cells = self.machine_type.reshape(-1)
        self._accumulated_cells = self.accumulated.reshape(-1)
        self._assignment = np.full((n, rows), -1, dtype=np.int64)
        self._x = np.full((n, rows), -1.0, dtype=np.float64)
        # ``free - pending``: free machines minus the distinct types that
        # own none yet (all of them at the start), per row.
        sorted_types = np.sort(types, axis=1)
        pending = 1 + np.count_nonzero(sorted_types[:, 1:] != sorted_types[:, :-1], axis=1)
        self._slack = np.tile(m - pending, copies).astype(np.int64)

    @property
    def assignment(self) -> np.ndarray:
        """The ``(rows, n)`` assignment (``-1`` for tasks not yet assigned)."""
        return np.ascontiguousarray(self._assignment.T)

    def step(self, task: int, criterion: np.ndarray) -> None:
        """Assign ``task`` in every row, lock-step.

        Row ``r`` takes the eligible machine of least completion score
        ``accumulated[r, u] + demand[r] * criterion[r, u]``, the lowest
        index on exact ties, exactly as the scalar walk does.
        """
        owner = self.machine_type
        task_type = self._task_types[task]
        type_cells = self._type_cells[task]
        succ = self._succ[task]
        demand = self._ones if succ < 0 else self._x[succ]
        # nbFreeMachines / nbTypesToGo guard, rowwise: a type that already
        # owns a machine must leave a free machine per pending type
        # (free > pending); a pending type may always claim one of the
        # machines reserved for the pending set (free >= pending).
        has_machine = self._has_machine.take(type_cells)
        code = (self._slack >= has_machine) - 2
        eligible = (owner == task_type[:, np.newaxis]) | (owner == code[:, np.newaxis])
        scores = demand[:, np.newaxis] * criterion
        scores += self.accumulated
        machines = np.where(eligible, scores, np.inf).argmin(axis=1)
        # The picks are eligible, so the owner and has-machine writes are
        # no-ops where the type already owns the machine; a free pick
        # lowers the slack unless it is its type's first (which also
        # takes the type off the pending count).
        cells = self._row_cells + machines
        self._slack -= (self._owner_cells.take(cells) < 0) & has_machine
        self._owner_cells[cells] = task_type
        self._has_machine[type_cells] = True
        sources = self._instance_cells + machines
        x_task = demand / self._keep[task].take(sources)
        self._x[task] = x_task
        self._accumulated_cells[cells] += x_task * self._w[task].take(sources)
        self._assignment[task] = machines


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


#: Smallest stack solved lock-step.  Both paths are bit-for-bit
#: identical, so this is purely a speed choice, and the crossover moves
#: with ``m`` and with the heuristics sharing a pass: per row, the
#: plain-Python H4w walk and a one-heuristic lock-step pass tie at about
#: 2 rows at m=100 (n=150), 3 at m=50 (n=100) and 6 at m=10 (n=60),
#: while a fused H4 + H4w pass ties with their two walks at 3 rows at
#: m=10.  The threshold is the m=50 single-heuristic crossover.
BATCH_MIN_ROWS = 3


def solves_in_batch(heuristic: object, rows: int) -> bool:
    """Whether :func:`solve_stack` solves ``rows`` instances lock-step.

    The one batch/loop decision: the experiment engine's providers and
    the solve service (its ``batched`` response flag and counters) all
    route through it.
    """
    return rows >= BATCH_MIN_ROWS and supports_batch(heuristic)


def validate_assignments(
    instances: Sequence[ProblemInstance], assignments: np.ndarray
) -> None:
    """Batched ``Mapping.validate`` of the specialized rule over a stack:
    :func:`~repro.core.mapping.hosts_one_type` row by row."""
    types = np.stack([inst.application.types.as_array for inst in instances])
    valid = hosts_one_type(assignments, types, instances[0].num_machines)
    if not valid.all():
        row = int(np.argmin(valid))
        raise MappingRuleViolation(
            f"batch solve of row {row} assigns tasks of two different "
            "types to the same machine"
        )


def solve_one(
    heuristic: Heuristic,
    instance: ProblemInstance,
    rng: np.random.Generator | None = None,
    *,
    up: np.ndarray | None = None,
) -> np.ndarray:
    """Feasibility-checked, validated single solve; the ``(n,)`` assignment.

    The scalar counterpart of :func:`solve_stack`: the block engine's
    per-instance fallback, the solve service's unbatched path and the
    live replanner's cold tier all go through this entry, so every
    consumer applies the same feasibility check and mapping-rule
    validation.

    ``up`` is an optional boolean ``(m,)`` mask of the machines that may
    receive tasks (see the module docstring): fewer than ``p`` up
    machines raise :class:`~repro.exceptions.InfeasibleProblemError`,
    and a task placed on a down machine raises
    :class:`~repro.exceptions.MappingRuleViolation`.
    """
    heuristic.check_feasible(instance)
    if up is not None:
        up = np.asarray(up, dtype=bool)
        if up.shape != (instance.num_machines,):
            raise ReproError(
                f"up-mask must have shape ({instance.num_machines},), got {up.shape}"
            )
        up_count = int(np.count_nonzero(up))
        if up_count < instance.num_types:
            raise InfeasibleProblemError(
                f"specialized mappings need m >= p; got {up_count} up machine(s), "
                f"p={instance.num_types}"
            )
    mapping, _, _ = heuristic.solve_mapping(instance, rng, up=up)
    mapping.validate(instance, MappingRule.SPECIALIZED)
    assignment = mapping.as_array
    if up is not None and not up[assignment].all():
        raise MappingRuleViolation(
            f"{heuristic.name} placed a task on a down machine"
        )
    return assignment


def solve_stack(
    heuristic: Heuristic,
    instances: Sequence[ProblemInstance],
    rng_for: Callable[[int], np.random.Generator] | None = None,
) -> np.ndarray:
    """Solve a stack of structurally identical instances; ``(R, n)`` int64.

    The routing entry shared by the experiment engine's
    :class:`~repro.experiments.providers.HeuristicProvider` and the solve
    service's micro-batcher: when :func:`solves_in_batch` holds, the
    whole stack is solved in one lock-step ``solve_batch`` call;
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
    """
    if not instances:
        raise ReproError("cannot solve an empty instance stack")
    if solves_in_batch(heuristic, len(instances)):
        for instance in instances:
            heuristic.check_feasible(instance)
        assignments = heuristic.solve_batch(instances)
        validate_assignments(instances, assignments)
        return assignments
    assignments = np.empty(
        (len(instances), instances[0].num_tasks), dtype=np.int64
    )
    for row, instance in enumerate(instances):
        rng = rng_for(row) if rng_for is not None else None
        assignments[row] = solve_one(heuristic, instance, rng)
    # Each row is solved once: keep no walk inputs past the stack, so a
    # long-lived provider holds no instance's tables between blocks.
    heuristic.release_walk_inputs()
    return assignments


class Heuristic(abc.ABC):
    """Base class for mapping heuristics.

    Subclasses implement :meth:`solve_mapping`, which must return a
    specialized mapping that leaves the machines ``up`` marks down
    empty, and set the class attribute ``name`` (paper identifier).
    Walk heuristics also implement :meth:`build_walk_inputs`.
    """

    #: Paper identifier (e.g. ``"H4w"``); must be unique across the registry.
    name: str = ""
    #: Whether the heuristic uses randomness (and therefore an RNG argument).
    randomized: bool = False
    #: ``(instance, walk inputs)`` of the last instance prepared.
    _walk_memo: tuple[ProblemInstance, object] | None = None

    def build_walk_inputs(self, instance: ProblemInstance) -> object:
        """The per-instance inputs of this heuristic's walks."""
        raise NotImplementedError(f"{self.name} has no walk inputs")

    def walk_inputs(self, instance: ProblemInstance) -> object:
        """:meth:`build_walk_inputs` of ``instance``, kept for the next call.

        The inputs of the last instance are kept, matched by identity
        (instances are immutable), so a caller that solves one instance
        many times, such as the live replanner under changing up-masks,
        builds them once.  The memo is one attribute, swapped whole.
        """
        memo = self._walk_memo
        if memo is None or memo[0] is not instance:
            self._walk_memo = None  # never hold two instances' inputs at once
            memo = (instance, self.build_walk_inputs(instance))
            self._walk_memo = memo
        return memo[1]

    def release_walk_inputs(self) -> None:
        """Drop the kept walk inputs, for a caller done with the instance."""
        self._walk_memo = None

    def check_feasible(self, instance: ProblemInstance) -> None:
        """Raise if no specialized mapping can exist for the instance."""
        if not instance.supports_specialized():
            raise InfeasibleProblemError(
                f"specialized mappings need m >= p; got m={instance.num_machines}, "
                f"p={instance.num_types}"
            )

    @abc.abstractmethod
    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        """Produce ``(mapping, iterations, metadata)`` for the instance,
        using only the machines the boolean ``(m,)`` mask ``up`` marks
        (every machine when ``None``)."""

    def solve(
        self, instance: ProblemInstance, rng: np.random.Generator | None = None
    ) -> HeuristicResult:
        """Run the heuristic and evaluate the resulting mapping."""
        self.check_feasible(instance)
        if self.randomized and rng is None:
            rng = np.random.default_rng()
        mapping, iterations, metadata = self.solve_mapping(instance, rng)
        mapping.validate(instance, MappingRule.SPECIALIZED)
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
