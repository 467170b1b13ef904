"""Target platform model: machines and processing times.

The platform (Section 3.2) is a set of ``m`` machines, fully interconnected
(communication times are neglected or modelled as dedicated transfer
tasks).  Machine ``Mu`` performs task ``Ti`` on one product in time
``w[i, u]``; tasks of the same type take the same time on a given machine.

The canonical representation is the ``n x m`` matrix ``w`` of processing
times in milliseconds, plus the task-type assignment needed to enforce the
type-consistency constraint.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidPlatformError
from .types import TypeAssignment

__all__ = ["Machine", "Platform"]


@dataclass(frozen=True, slots=True)
class Machine:
    """A single machine (robotic cell) of the micro-factory.

    Attributes
    ----------
    index:
        Zero-based machine index (machine ``M{index+1}`` in the paper).
    name:
        Optional human readable label.
    """

    index: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidPlatformError(f"machine index must be >= 0, got {self.index}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or f"M{self.index + 1}"


class Platform:
    """A set of machines together with the processing-time matrix ``w``.

    Parameters
    ----------
    processing_times:
        Array-like of shape ``(n, m)``: ``processing_times[i, u]`` is the
        time (ms) for machine ``u`` to perform task ``i`` on one product.
        All entries must be strictly positive and finite.
    types:
        Optional type assignment used to validate (or enforce) the paper's
        consistency rule ``t(i) = t(i') => w[i, :] == w[i', :]``.
    names:
        Optional machine names (length ``m``).
    enforce_type_consistency:
        When ``types`` is given and this flag is true (default), a
        violation of the consistency rule raises
        :class:`~repro.exceptions.InvalidPlatformError`.
    """

    __slots__ = ("_w", "_names", "_types")

    def __init__(
        self,
        processing_times: Sequence[Sequence[float]] | np.ndarray,
        *,
        types: TypeAssignment | None = None,
        names: Sequence[str] | None = None,
        enforce_type_consistency: bool = True,
    ) -> None:
        w = np.asarray(processing_times, dtype=np.float64)
        if w.ndim != 2 or w.size == 0:
            raise InvalidPlatformError(
                f"processing_times must be a non-empty 2-D array, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise InvalidPlatformError("processing times must all be finite")
        if np.any(w <= 0.0):
            raise InvalidPlatformError("processing times must all be strictly positive")
        self._w = w.copy()
        self._w.setflags(write=False)

        n, m = w.shape
        if names is not None and len(names) != m:
            raise InvalidPlatformError(f"names has {len(names)} entries for {m} machines")
        self._names = tuple(names) if names else None

        if types is not None:
            types.validate_against(n)
            if enforce_type_consistency:
                type_index = types.first_inconsistent_type(self._w)
                if type_index is not None:
                    raise InvalidPlatformError(
                        f"tasks of type {type_index} have differing processing times; "
                        "the paper requires w[i,u] to depend only on the type of Ti"
                    )
        self._types = types

    # -- constructors -------------------------------------------------------------
    @classmethod
    def homogeneous(cls, num_tasks: int, num_machines: int, time: float) -> "Platform":
        """Platform where every task takes ``time`` on every machine."""
        if num_tasks <= 0 or num_machines <= 0:
            raise InvalidPlatformError("num_tasks and num_machines must be positive")
        if time <= 0:
            raise InvalidPlatformError("time must be positive")
        return cls(np.full((num_tasks, num_machines), float(time)))

    @classmethod
    def from_type_times(
        cls,
        types: TypeAssignment,
        type_times: Sequence[Sequence[float]] | np.ndarray,
        *,
        names: Sequence[str] | None = None,
    ) -> "Platform":
        """Build a platform from a ``p x m`` per-type time matrix.

        This constructor guarantees the type-consistency rule by expanding
        the per-type matrix to the ``n x m`` per-task matrix.
        """
        tt = np.asarray(type_times, dtype=np.float64)
        if tt.ndim != 2:
            raise InvalidPlatformError("type_times must be 2-D (num_types x num_machines)")
        if tt.shape[0] < types.num_types:
            raise InvalidPlatformError(
                f"type_times has {tt.shape[0]} rows but there are {types.num_types} types"
            )
        w = tt[types.as_array, :]
        return cls(w, types=types, names=names)

    # -- container protocol --------------------------------------------------------
    def __len__(self) -> int:
        return self.num_machines

    def __iter__(self):
        return iter(self.machines)

    def __getitem__(self, index: int) -> Machine:
        return self.machines[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Platform(n={self.num_tasks}, m={self.num_machines})"

    # -- properties ---------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n`` covered by the ``w`` matrix."""
        return int(self._w.shape[0])

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return int(self._w.shape[1])

    @property
    def machines(self) -> tuple[Machine, ...]:
        """All machines, indexed by machine index.

        Built on each call: no solver reads them, so construction skips
        them and keeps only the names they are made of.
        """
        names = self._names or ("",) * self.num_machines
        return tuple(Machine(index=u, name=name) for u, name in enumerate(names))

    @property
    def processing_times(self) -> np.ndarray:
        """Read-only view of the ``n x m`` matrix ``w``."""
        return self._w

    @property
    def types(self) -> TypeAssignment | None:
        """Type assignment attached at construction time (may be ``None``)."""
        return self._types

    # -- queries ------------------------------------------------------------------
    def time(self, task_index: int, machine_index: int) -> float:
        """Processing time ``w[i, u]`` of one product of task ``i`` on machine ``u``."""
        return float(self._w[task_index, machine_index])

    def is_homogeneous(self) -> bool:
        """True if every (task, machine) couple has the same processing time."""
        return bool(np.allclose(self._w, self._w.flat[0]))

    def machine_heterogeneity(self) -> np.ndarray:
        """Per-machine heterogeneity level used by heuristic H3.

        The heterogeneity level of machine ``Mu`` is the standard deviation
        of its column ``w[:, u]`` (Section 6.2, H3).
        """
        return self._w.std(axis=0)

    def slowest_sequential_period(self, products_per_task: np.ndarray | None = None) -> float:
        """Worst-case period: all tasks executed sequentially on the slowest machine.

        Used as the initial upper bound of the binary search in H2/H3.  When
        ``products_per_task`` (the ``x_i`` values) is given, each task's time
        is weighted by the number of products it must process.
        """
        if products_per_task is None:
            per_machine = self._w.sum(axis=0)
        else:
            x = np.asarray(products_per_task, dtype=np.float64)
            if x.shape != (self.num_tasks,):
                raise InvalidPlatformError(
                    f"products_per_task must have shape ({self.num_tasks},), got {x.shape}"
                )
            per_machine = (self._w * x[:, None]).sum(axis=0)
        return float(per_machine.max())

    def restrict_tasks(self, task_indices: Sequence[int]) -> "Platform":
        """Platform restricted to a subset of tasks (rows of ``w``)."""
        idx = np.asarray(list(task_indices), dtype=np.int64)
        if idx.size == 0:
            raise InvalidPlatformError("task_indices must be non-empty")
        return Platform(self._w[idx, :])

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict representation (JSON friendly)."""
        return {
            "processing_times": self._w.tolist(),
            "names": [mach.name for mach in self.machines],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Platform":
        """Inverse of :meth:`to_dict`."""
        names = data.get("names")
        if names is not None and not any(names):
            names = None
        return cls(data["processing_times"], names=names)
