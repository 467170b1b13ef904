"""Mappings (allocation functions) and mapping rules.

A *mapping* is the allocation function ``a : {0..n-1} -> {0..m-1}`` that
assigns every task to exactly one machine.  Section 4.2 of the paper
defines three rules constraining valid mappings:

* **one-to-one** — a machine processes at most one task
  (``i != i' => a(i) != a(i')``);
* **specialized** — a machine processes tasks of at most one type
  (``t(i) != t(i') => a(i) != a(i')``);
* **general** — no constraint.

This module provides the :class:`Mapping` value object, the
:class:`MappingRule` enumeration, and validation helpers.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Mapping as MappingABC, Sequence

import numpy as np

from ..exceptions import InvalidMappingError, MappingRuleViolation
from .instance import ProblemInstance

__all__ = ["MappingRule", "Mapping", "hosts_one_type"]


def hosts_one_type(
    assignments: np.ndarray, types: np.ndarray, num_machines: int
) -> np.ndarray:
    """Whether each row puts tasks of one type only on every machine.

    ``assignments`` and ``types`` are ``(n,)`` or stacked ``(R, n)``; the
    result is a bool of shape ``()`` or ``(R,)``.  Each row writes its
    types into its machines, ``hosted[assignment] = types``; a machine
    given two types keeps only one of them, so some task on it then reads
    back a type other than its own.
    """
    hosted = np.zeros(np.shape(assignments)[:-1] + (num_machines,), dtype=np.int64)
    np.put_along_axis(hosted, assignments, types, axis=-1)
    return (np.take_along_axis(hosted, assignments, axis=-1) == types).all(axis=-1)


class MappingRule(enum.Enum):
    """The three mapping rules of Section 4.2."""

    ONE_TO_ONE = "one-to-one"
    SPECIALIZED = "specialized"
    GENERAL = "general"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def coerce(cls, value: "MappingRule | str") -> "MappingRule":
        """Accept either a :class:`MappingRule` or its string value."""
        if isinstance(value, MappingRule):
            return value
        try:
            return cls(value)
        except ValueError as exc:
            valid = ", ".join(rule.value for rule in cls)
            raise InvalidMappingError(
                f"unknown mapping rule {value!r}; expected one of: {valid}"
            ) from exc


class Mapping:
    """An allocation of tasks to machines.

    Parameters
    ----------
    assignment:
        Sequence of length ``n`` whose ``i``-th entry is the machine index
        the task ``i`` is assigned to.
    num_machines:
        Number of machines ``m`` of the platform (must exceed every used
        machine index).

    Notes
    -----
    A mapping is immutable.  Use :meth:`replace` to derive a modified copy.
    """

    __slots__ = ("_assignment", "_num_machines")

    def __init__(self, assignment: Sequence[int] | np.ndarray, num_machines: int):
        if isinstance(assignment, np.ndarray):
            arr = np.array(assignment, dtype=np.int64)
        else:
            arr = np.asarray(list(assignment), dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidMappingError("assignment must be a non-empty 1-D sequence")
        if num_machines <= 0:
            raise InvalidMappingError("num_machines must be positive")
        if np.any(arr < 0) or np.any(arr >= num_machines):
            raise InvalidMappingError(
                f"assignment uses machine indices outside 0..{num_machines - 1}"
            )
        self._assignment = arr
        self._assignment.setflags(write=False)
        self._num_machines = int(num_machines)

    # -- container protocol --------------------------------------------------------
    def __len__(self) -> int:
        return int(self._assignment.size)

    def __getitem__(self, task_index: int) -> int:
        return int(self._assignment[task_index])

    def __iter__(self):
        return iter(int(v) for v in self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._num_machines == other._num_machines and np.array_equal(
            self._assignment, other._assignment
        )

    def __hash__(self) -> int:
        return hash((self._num_machines, self._assignment.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mapping({self._assignment.tolist()!r}, num_machines={self._num_machines})"

    # -- properties ---------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of mapped tasks ``n``."""
        return len(self)

    @property
    def num_machines(self) -> int:
        """Number of machines ``m`` in the platform."""
        return self._num_machines

    @property
    def as_array(self) -> np.ndarray:
        """Read-only numpy view of the allocation vector ``a``."""
        return self._assignment

    # -- derived structure -----------------------------------------------------------
    def machine_of(self, task_index: int) -> int:
        """Machine ``a(i)`` the task is assigned to."""
        return int(self._assignment[task_index])

    def tasks_on(self, machine_index: int) -> list[int]:
        """Sorted task indices assigned to a machine."""
        return [int(i) for i in np.flatnonzero(self._assignment == machine_index)]

    def machine_loads(self) -> dict[int, list[int]]:
        """Mapping from used machine index to its sorted list of tasks."""
        loads: dict[int, list[int]] = defaultdict(list)
        for task, machine in enumerate(self._assignment):
            loads[int(machine)].append(task)
        return dict(loads)

    def used_machines(self) -> list[int]:
        """Sorted indices of machines that run at least one task."""
        return sorted(set(int(v) for v in self._assignment))

    def replace(self, task_index: int, machine_index: int) -> "Mapping":
        """Copy of the mapping with a single task reassigned."""
        new = self._assignment.copy()
        new[task_index] = machine_index
        return Mapping(new, self._num_machines)

    # -- rule checks ------------------------------------------------------------------
    def satisfies_one_to_one(self) -> bool:
        """True if no machine runs more than one task."""
        _, counts = np.unique(self._assignment, return_counts=True)
        return bool(np.all(counts <= 1))

    def satisfies_specialized(self, types: Sequence[int] | np.ndarray) -> bool:
        """True if no machine runs tasks of two different types."""
        types_arr = np.asarray(
            types if isinstance(types, np.ndarray) else list(types), dtype=np.int64
        )
        if types_arr.shape != self._assignment.shape:
            raise InvalidMappingError(
                f"types covers {types_arr.size} tasks, expected {self.num_tasks}"
            )
        return bool(hosts_one_type(self._assignment, types_arr, self._num_machines))

    def machine_specializations(
        self, types: Sequence[int] | np.ndarray
    ) -> dict[int, set[int]]:
        """For each used machine, the set of task types it runs."""
        types_arr = np.asarray(list(types), dtype=np.int64)
        result: dict[int, set[int]] = defaultdict(set)
        for task, machine in enumerate(self._assignment):
            result[int(machine)].add(int(types_arr[task]))
        return dict(result)

    def rule(self, types: Sequence[int] | np.ndarray) -> MappingRule:
        """The most restrictive rule this mapping satisfies."""
        if self.satisfies_one_to_one():
            return MappingRule.ONE_TO_ONE
        if self.satisfies_specialized(types):
            return MappingRule.SPECIALIZED
        return MappingRule.GENERAL

    def validate(
        self,
        instance: ProblemInstance,
        rule: MappingRule | str = MappingRule.GENERAL,
    ) -> None:
        """Validate the mapping against an instance and a mapping rule.

        Raises
        ------
        InvalidMappingError
            If the mapping does not cover the instance's tasks or exceeds
            its machine count.
        MappingRuleViolation
            If the mapping violates the requested rule.
        """
        rule = MappingRule.coerce(rule)
        if self.num_tasks != instance.num_tasks:
            raise InvalidMappingError(
                f"mapping covers {self.num_tasks} tasks but the instance has "
                f"{instance.num_tasks}"
            )
        if self.num_machines != instance.num_machines:
            raise InvalidMappingError(
                f"mapping assumes {self.num_machines} machines but the instance has "
                f"{instance.num_machines}"
            )
        if rule is MappingRule.ONE_TO_ONE and not self.satisfies_one_to_one():
            raise MappingRuleViolation("mapping assigns two tasks to the same machine")
        if rule is MappingRule.SPECIALIZED and not self.satisfies_specialized(
            instance.application.types.as_array
        ):
            raise MappingRuleViolation(
                "mapping assigns tasks of two different types to the same machine"
            )

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict representation (JSON friendly)."""
        return {
            "assignment": self._assignment.tolist(),
            "num_machines": self._num_machines,
        }

    @classmethod
    def from_dict(cls, data: MappingABC) -> "Mapping":
        """Inverse of :meth:`to_dict`."""
        return cls(data["assignment"], data["num_machines"])

    @classmethod
    def identity(cls, num_tasks: int, num_machines: int | None = None) -> "Mapping":
        """The mapping assigning task ``i`` to machine ``i`` (requires ``m >= n``)."""
        if num_machines is None:
            num_machines = num_tasks
        if num_machines < num_tasks:
            raise InvalidMappingError(
                "identity mapping requires at least as many machines as tasks"
            )
        return cls(np.arange(num_tasks), num_machines)
