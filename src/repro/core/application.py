"""Application model: typed tasks organised as an in-tree DAG.

The applicative framework of the paper (Section 3.1):

* ``n`` tasks ``T1 .. Tn``, each with a type ``t(i)``;
* dependencies form a directed acyclic graph whose edges represent the
  order in which operations are applied to products;
* *joins* are allowed (several sub-products are merged into one), *forks*
  are not: the output of a task is a physical component that cannot be
  split, so every task has **at most one successor**.  The graph is
  therefore an in-tree (or a forest of in-trees, each producing its own
  final product);
* the evaluation of the paper concentrates on **linear chains**, which we
  provide as a convenience constructor.

Since no task has two successors, the whole graph is one *successor
tuple*: entry ``i`` is the index of task ``i``'s successor, or ``None``
for a sink.  :class:`Application` stores only that tuple, the inverted
predecessor index and a topological order derived from them.

Tasks are identified by their zero-based index ``0 .. n-1`` (the paper uses
1-based ``T1 .. Tn``; the documentation of each function states which
convention it uses — the code is consistently zero-based).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from ..exceptions import InvalidApplicationError
from .types import TypeAssignment, cyclic_type_assignment

__all__ = ["Task", "Application", "linear_chain", "in_tree"]


@dataclass(frozen=True, slots=True)
class Task:
    """A single task of the application.

    Attributes
    ----------
    index:
        Zero-based task index (task ``T{index+1}`` in the paper's notation).
    type_index:
        Index of the task's type ``t(i)``.
    name:
        Optional human readable label.
    """

    index: int
    type_index: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidApplicationError(f"task index must be >= 0, got {self.index}")
        if self.type_index < 0:
            raise InvalidApplicationError(
                f"task type index must be >= 0, got {self.type_index}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or f"T{self.index + 1}"


def _task_names(names: Sequence[str] | None, n: int) -> tuple[str, ...]:
    if names is not None and len(names) != n:
        raise InvalidApplicationError(f"names has {len(names)} entries for {n} tasks")
    return tuple(names) if names else ("",) * n


class Application:
    """A typed in-tree application graph.

    Parameters
    ----------
    types:
        The type assignment ``t`` (one entry per task).
    edges:
        Iterable of ``(i, j)`` pairs meaning task ``i`` must complete on a
        product before task ``j`` processes it (``i -> j``).  Indices are
        zero-based.
    names:
        Optional task names, same length as ``types``.

    Raises
    ------
    InvalidApplicationError
        If the graph has a cycle, a fork (out-degree > 1), a self loop,
        references an unknown task or a non-integer endpoint, or is empty.
        A repeated edge counts once.
    """

    __slots__ = ("_types", "_names", "_successors", "_predecessors", "_topo")

    def __init__(
        self,
        types: TypeAssignment | Sequence[int],
        edges: Iterable[tuple[int, int]] = (),
        names: Sequence[str] | None = None,
    ) -> None:
        if not isinstance(types, TypeAssignment):
            types = TypeAssignment(types)
        self._types = types
        n = types.num_tasks
        self._names = _task_names(names, n)

        successors: list[int | None] = [None] * n
        for i, j in edges:
            try:
                i, j = operator.index(i), operator.index(j)
            except TypeError:
                raise InvalidApplicationError(
                    f"edge ({i!r}, {j!r}) has a non-integer endpoint"
                ) from None
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidApplicationError(
                    f"edge ({i}, {j}) references a task outside 0..{n - 1}"
                )
            if i == j:
                raise InvalidApplicationError(f"self loop on task {i} is not allowed")
            # No forks: every task has at most one successor (its product
            # cannot be duplicated, Section 3.1).  A repeated edge is one edge.
            if successors[i] not in (None, j):
                raise InvalidApplicationError(
                    f"task {i} has two successors; forks are not allowed "
                    "because a physical product cannot be split"
                )
            successors[i] = j

        predecessors: list[list[int]] = [[] for _ in range(n)]
        for i, j in enumerate(successors):
            if j is not None:
                predecessors[j].append(i)
        # FIFO Kahn pass: sources in index order, then each task once its
        # last predecessor is placed, so the order runs generation by
        # generation.  The heuristics walk it backward; the application
        # golden fixture pins it.
        pending = [len(preds) for preds in predecessors]
        topo = [i for i in range(n) if not pending[i]]
        for i in topo:
            j = successors[i]
            if j is not None:
                pending[j] -= 1
                if not pending[j]:
                    topo.append(j)
        if len(topo) < n:
            raise InvalidApplicationError("the application graph contains a cycle")

        self._successors = tuple(successors)
        self._predecessors = tuple(tuple(preds) for preds in predecessors)
        self._topo = tuple(topo)

    # -- constructors ------------------------------------------------------------
    @classmethod
    def chain(
        cls, types: TypeAssignment | Sequence[int], names: Sequence[str] | None = None
    ) -> "Application":
        """Build a linear chain ``T1 -> T2 -> ... -> Tn`` (paper's main case).

        Every service request samples one, so the tables are written
        out directly instead of validating ``n - 1`` edges: the FIFO
        Kahn order of a chain is ``0 .. n-1``, and the result equals the
        generic constructor's table for table.
        """
        if not isinstance(types, TypeAssignment):
            types = TypeAssignment(types)
        n = types.num_tasks
        chain = cls.__new__(cls)
        chain._types = types
        chain._names = _task_names(names, n)
        chain._successors = (*range(1, n), None)
        chain._predecessors = ((), *((i,) for i in range(n - 1)))
        chain._topo = tuple(range(n))
        return chain

    # -- container protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._successors)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, index: int) -> Task:
        return self.tasks[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Application(n={self.num_tasks}, p={self.num_types}, "
            f"edges={self.num_edges}, chain={self.is_chain()})"
        )

    # -- properties ---------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n``."""
        return len(self._successors)

    @property
    def num_types(self) -> int:
        """Number of task types ``p``."""
        return self._types.num_types

    @property
    def num_edges(self) -> int:
        """Number of precedence edges."""
        return sum(succ is not None for succ in self._successors)

    @property
    def types(self) -> TypeAssignment:
        """The task-type assignment ``t``."""
        return self._types

    @property
    def tasks(self) -> tuple[Task, ...]:
        """All tasks, indexed by task index.

        Built on each call: no solver reads them, so construction skips
        them and keeps only the types and names they are made of.
        """
        return tuple(
            Task(index=i, type_index=t, name=name)
            for i, (t, name) in enumerate(zip(self._types, self._names))
        )

    @property
    def successors(self) -> tuple[int | None, ...]:
        """The successor tuple: entry ``i`` is task ``i``'s successor, or
        ``None`` for a sink.  It fully determines the precedence graph."""
        return self._successors

    # -- structure queries ----------------------------------------------------------
    def type_of(self, task_index: int) -> int:
        """Type index ``t(i)`` of task ``task_index``."""
        return self._types[task_index]

    def successor(self, task_index: int) -> int | None:
        """The unique successor of a task, or ``None`` for a sink."""
        return self._successors[self._checked(task_index)]

    def predecessors(self, task_index: int) -> tuple[int, ...]:
        """Sorted tuple of direct predecessors of a task."""
        return self._predecessors[self._checked(task_index)]

    def _checked(self, task_index: int) -> int:
        # Tuple indexing would wrap a negative index onto a real task.
        if not 0 <= task_index < len(self._successors):
            raise InvalidApplicationError(f"unknown task index {task_index}")
        return task_index

    def sinks(self) -> list[int]:
        """Tasks with no successor (each outputs a finished product)."""
        return [i for i, succ in enumerate(self._successors) if succ is None]

    def sources(self) -> list[int]:
        """Tasks with no predecessor (entry points of raw products)."""
        return [i for i, preds in enumerate(self._predecessors) if not preds]

    def topological_order(self) -> tuple[int, ...]:
        """A topological order of the tasks (sources first)."""
        return self._topo

    def reverse_topological_order(self) -> tuple[int, ...]:
        """Reverse topological order (sinks first) — the order used by the
        heuristics, which start from the last task and walk backward."""
        return tuple(reversed(self._topo))

    def is_chain(self) -> bool:
        """True if the application is a single linear chain."""
        # An acyclic graph with out-degree <= 1 has n - edges components, so
        # n - 1 edges and in-degree <= 1 leave exactly one path.
        return self.num_edges == self.num_tasks - 1 and all(
            len(preds) <= 1 for preds in self._predecessors
        )

    def chain_order(self) -> tuple[int, ...]:
        """Task indices from the first to the last task of a linear chain.

        Raises
        ------
        InvalidApplicationError
            If the application is not a linear chain.
        """
        if not self.is_chain():
            raise InvalidApplicationError("application is not a linear chain")
        return self._topo

    def depth_from_sink(self) -> dict[int, int]:
        """Distance (number of edges) from each task to its component sink."""
        depth: dict[int, int] = {}
        for node in reversed(self._topo):
            succ = self._successors[node]
            depth[node] = 0 if succ is None else depth[succ] + 1
        return depth

    def tasks_of_type(self, type_index: int) -> list[int]:
        """All task indices whose type is ``type_index``."""
        return [int(i) for i in self._types.tasks_of_type(type_index)]

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict representation (JSON friendly)."""
        return {
            "types": list(self._types),
            "num_types": self.num_types,
            "edges": [(i, j) for i, j in enumerate(self._successors) if j is not None],
            "names": list(self._names),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Application":
        """Inverse of :meth:`to_dict`."""
        types = TypeAssignment(data["types"], num_types=data.get("num_types"))
        names = data.get("names")
        if names is not None and not any(names):
            names = None
        return cls(types, data.get("edges", ()), names)


def linear_chain(
    num_tasks: int,
    num_types: int | None = None,
    types: Sequence[int] | TypeAssignment | None = None,
) -> Application:
    """Convenience constructor for a linear-chain application.

    Exactly one of ``num_types`` / ``types`` may be given.  With
    ``num_types``, types are assigned cyclically (``0, 1, .., p-1, 0, ..``);
    with ``types`` the explicit per-task types are used; with neither, every
    task gets its own type (``p = n``).
    """
    if types is not None and num_types is not None:
        raise InvalidApplicationError("give either num_types or types, not both")
    if types is None:
        if num_types is None:
            num_types = num_tasks
        types = cyclic_type_assignment(num_tasks, num_types)
    elif not isinstance(types, TypeAssignment):
        types = TypeAssignment(types)
    if types.num_tasks != num_tasks:
        raise InvalidApplicationError(
            f"types covers {types.num_tasks} tasks, expected {num_tasks}"
        )
    return Application.chain(types)


def in_tree(
    branch_lengths: Sequence[int],
    num_types: int,
    *,
    shared_tail_length: int = 1,
) -> Application:
    """Build an in-tree made of parallel branches joining into a shared tail.

    This is the shape used in the NP-hardness proof of Theorem 2 (several
    linear chains sharing a final task) and models the assembly of
    sub-products into a final product.

    Parameters
    ----------
    branch_lengths:
        Number of tasks in each independent branch (each must be >= 1).
    num_types:
        Number of task types; types are assigned cyclically over the whole
        task set.
    shared_tail_length:
        Number of tasks in the common tail after the join (>= 1).
    """
    if not branch_lengths:
        raise InvalidApplicationError("at least one branch is required")
    if any(b < 1 for b in branch_lengths):
        raise InvalidApplicationError("branch lengths must all be >= 1")
    if shared_tail_length < 1:
        raise InvalidApplicationError("shared_tail_length must be >= 1")

    num_tasks = int(sum(branch_lengths)) + shared_tail_length
    types = cyclic_type_assignment(num_tasks, num_types)

    edges: list[tuple[int, int]] = []
    next_index = 0
    branch_ends: list[int] = []
    for length in branch_lengths:
        start = next_index
        for offset in range(length - 1):
            edges.append((start + offset, start + offset + 1))
        branch_ends.append(start + length - 1)
        next_index = start + length

    tail_start = next_index
    for end in branch_ends:
        edges.append((end, tail_start))
    for offset in range(shared_tail_length - 1):
        edges.append((tail_start + offset, tail_start + offset + 1))

    return Application(types, edges)
