"""Task-type system.

The paper associates a *type* with every task: the same physical operation
(e.g. "grip", "glue", "insert") may have to be applied several times along
the assembly of one product.  Types matter for two reasons:

* execution times only depend on the type of a task for a given machine
  (``t(i) = t(i') -> w[i, u] = w[i', u]`` for every machine ``Mu``), and
* the *specialized* mapping rule dedicates every machine to a single type.

This module provides a small value type for task types plus helpers to
build, validate and reason about type assignments.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidApplicationError

__all__ = [
    "TaskType",
    "TypeAssignment",
    "cyclic_type_assignment",
    "random_type_assignment",
]


@dataclass(frozen=True, slots=True)
class TaskType:
    """A task type, identified by a small non-negative integer.

    Parameters
    ----------
    index:
        Zero-based index of the type.  Types are dense: an application with
        ``p`` types uses indices ``0 .. p-1``.
    name:
        Optional human-readable label ("gripping", "assembly", ...).  Two
        types are equal iff their indices are equal; the name is cosmetic.
    """

    index: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidApplicationError(
                f"task type index must be non-negative, got {self.index}"
            )

    def __int__(self) -> int:
        return self.index

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or f"type{self.index}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaskType):
            return self.index == other.index
        if isinstance(other, (int, np.integer)):
            return self.index == int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.index)


class TypeAssignment:
    """The function ``t : {0..n-1} -> {0..p-1}`` mapping tasks to types.

    The assignment is stored densely as a numpy integer vector.  The number
    of types ``p`` is the number of *distinct* types actually used unless a
    larger ``num_types`` is given explicitly (useful when generating
    instances whose later tasks may use types absent from a prefix).

    Parameters
    ----------
    types:
        Sequence of length ``n`` whose ``i``-th entry is the type index of
        task ``Ti`` (zero-based).
    num_types:
        Optional total number of types ``p``.  Must be at least
        ``max(types) + 1``.
    """

    __slots__ = ("_types", "_num_types")

    def __init__(self, types: Sequence[int] | np.ndarray, num_types: int | None = None):
        arr = np.asarray(list(types), dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidApplicationError("type assignment must be a non-empty 1-D sequence")
        if np.any(arr < 0):
            raise InvalidApplicationError("type indices must be non-negative")
        inferred = int(arr.max()) + 1
        if num_types is None:
            num_types = inferred
        elif num_types < inferred:
            raise InvalidApplicationError(
                f"num_types={num_types} is smaller than the largest used type index "
                f"({inferred - 1})"
            )
        self._types = arr
        self._types.setflags(write=False)
        self._num_types = int(num_types)

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return int(self._types.size)

    def __getitem__(self, task_index: int) -> int:
        return int(self._types[task_index])

    def __iter__(self):
        return iter(int(v) for v in self._types)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeAssignment):
            return NotImplemented
        return self._num_types == other._num_types and np.array_equal(
            self._types, other._types
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TypeAssignment({self._types.tolist()!r}, num_types={self._num_types})"

    # -- properties ---------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n``."""
        return len(self)

    @property
    def num_types(self) -> int:
        """Number of task types ``p``."""
        return self._num_types

    @property
    def as_array(self) -> np.ndarray:
        """Read-only numpy view of the assignment vector."""
        return self._types

    # -- queries ------------------------------------------------------------------
    def tasks_of_type(self, type_index: int) -> np.ndarray:
        """Indices of the tasks whose type is ``type_index`` (sorted)."""
        return np.flatnonzero(self._types == type_index)

    def type_counts(self) -> Counter[int]:
        """Multiplicity of each type among tasks."""
        return Counter(int(v) for v in self._types)

    def used_types(self) -> list[int]:
        """Sorted list of the type indices that appear at least once."""
        return sorted(set(int(v) for v in self._types))

    def leaders(self) -> np.ndarray:
        """``(n,)`` int: the index of the first task of each task's type."""
        _, first, inverse = np.unique(self._types, return_index=True, return_inverse=True)
        return first[inverse]

    def first_inconsistent_type(self, matrix: np.ndarray) -> int | None:
        """Lowest type whose tasks' rows of ``matrix`` differ, or ``None``.

        Every row is compared with the first row of its type under
        ``np.allclose``'s default predicate, ``|a - ref| <= 1e-08 + 1e-05 *
        |ref|``, in one vectorized pass; ``matrix`` (one row per task) must
        be finite.  Rows exactly equal to their type's first row (every
        generated platform) pass without the tolerance arithmetic.
        """
        ref = matrix[self.leaders()]
        if np.array_equal(matrix, ref):
            return None
        consistent = np.abs(matrix - ref) <= 1e-08 + 1e-05 * np.abs(ref)
        if consistent.all():
            return None
        return int(self._types[~consistent.all(axis=1)].min())

    def validate_against(self, num_tasks: int) -> None:
        """Check that the assignment covers exactly ``num_tasks`` tasks."""
        if len(self) != num_tasks:
            raise InvalidApplicationError(
                f"type assignment has {len(self)} entries but the application has "
                f"{num_tasks} tasks"
            )


def cyclic_type_assignment(num_tasks: int, num_types: int) -> TypeAssignment:
    """Assign types ``0, 1, ..., p-1, 0, 1, ...`` cyclically along the tasks.

    This mirrors a production line where the same few operations alternate
    along the process plan.  Guarantees that every type is used when
    ``num_tasks >= num_types``.
    """
    if num_tasks <= 0:
        raise InvalidApplicationError("num_tasks must be positive")
    if num_types <= 0 or num_types > num_tasks:
        raise InvalidApplicationError(
            f"num_types must be in [1, num_tasks]; got p={num_types}, n={num_tasks}"
        )
    types = [i % num_types for i in range(num_tasks)]
    return TypeAssignment(types, num_types=num_types)


def random_type_assignment(
    num_tasks: int,
    num_types: int,
    rng: np.random.Generator,
    *,
    ensure_all_types: bool = True,
) -> TypeAssignment:
    """Draw a uniformly random type for every task.

    Parameters
    ----------
    num_tasks, num_types:
        Dimensions ``n`` and ``p``.
    rng:
        Numpy random generator (caller controls seeding).
    ensure_all_types:
        When true (default, and required by the paper's experiments where
        ``p`` is a parameter), the first ``p`` tasks are forced to cover
        every type once before the remaining tasks are drawn uniformly; the
        covering prefix is then shuffled into the sequence.
    """
    if num_tasks <= 0:
        raise InvalidApplicationError("num_tasks must be positive")
    if num_types <= 0 or num_types > num_tasks:
        raise InvalidApplicationError(
            f"num_types must be in [1, num_tasks]; got p={num_types}, n={num_tasks}"
        )
    types = rng.integers(0, num_types, size=num_tasks)
    if ensure_all_types:
        # Overwrite p distinct random positions with the p types so that each
        # type appears at least once.
        positions = rng.choice(num_tasks, size=num_types, replace=False)
        types[positions] = np.arange(num_types)
    return TypeAssignment(types.tolist(), num_types=num_types)
