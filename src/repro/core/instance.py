"""Problem instance: application + platform + failure model.

A :class:`ProblemInstance` bundles the three ingredients of the
optimization problem and validates their mutual consistency (dimensions,
types).  All solvers, heuristics, simulators and experiments operate on
instances.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..exceptions import InvalidInstanceError
from .application import Application
from .failure import FailureModel
from .platform import Platform

__all__ = ["ProblemInstance", "shared_successor_table"]


def shared_successor_table(
    instances: Sequence["ProblemInstance"],
) -> tuple[int | None, ...]:
    """The successor table all ``instances`` share, validating they do.

    :attr:`Application.successors` is the whole precedence graph (and
    its length the task count), so comparing it is an exact
    shared-graph check.  The batch layers (lock-step solvers, stacked
    evaluators) call this to guarantee one traversal order fits every
    repetition.

    Raises
    ------
    InvalidInstanceError
        If any instance differs in task count, machine count or edges.
    """
    first = instances[0]
    successors = first.application.successors
    for inst in instances[1:]:
        if inst.num_machines != first.num_machines or (
            inst.application is not first.application
            and inst.application.successors != successors
        ):
            raise InvalidInstanceError(
                "instances must share the precedence graph and platform size"
            )
    return successors


class ProblemInstance:
    """An instance of the throughput-optimization problem.

    Parameters
    ----------
    application:
        The typed task graph.
    platform:
        The machines and the ``w`` matrix (shape ``(n, m)``).
    failures:
        The failure-rate matrix ``f`` (shape ``(n, m)``).
    name:
        Optional label used in experiment reports.
    """

    __slots__ = ("_app", "_platform", "_failures", "name")

    def __init__(
        self,
        application: Application,
        platform: Platform,
        failures: FailureModel,
        *,
        name: str = "",
    ) -> None:
        n = application.num_tasks
        if platform.num_tasks != n:
            raise InvalidInstanceError(
                f"platform covers {platform.num_tasks} tasks but the application has {n}"
            )
        if failures.num_tasks != n:
            raise InvalidInstanceError(
                f"failure model covers {failures.num_tasks} tasks but the application has {n}"
            )
        if failures.num_machines != platform.num_machines:
            raise InvalidInstanceError(
                f"failure model covers {failures.num_machines} machines but the platform "
                f"has {platform.num_machines}"
            )
        self._app = application
        self._platform = platform
        self._failures = failures
        self.name = name

    # -- properties ---------------------------------------------------------------
    @property
    def application(self) -> Application:
        """The task graph."""
        return self._app

    @property
    def platform(self) -> Platform:
        """The machine platform."""
        return self._platform

    @property
    def failures(self) -> FailureModel:
        """The failure model."""
        return self._failures

    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n``."""
        return self._app.num_tasks

    @property
    def num_types(self) -> int:
        """Number of task types ``p``."""
        return self._app.num_types

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return self._platform.num_machines

    @property
    def processing_times(self) -> np.ndarray:
        """The ``n x m`` matrix ``w``."""
        return self._platform.processing_times

    @property
    def failure_rates(self) -> np.ndarray:
        """The ``n x m`` matrix ``f``."""
        return self._failures.rates

    # -- convenience queries --------------------------------------------------------
    def w(self, task_index: int, machine_index: int) -> float:
        """Processing time ``w[i, u]``."""
        return self._platform.time(task_index, machine_index)

    def f(self, task_index: int, machine_index: int) -> float:
        """Failure rate ``f[i, u]``."""
        return self._failures.rate(task_index, machine_index)

    def attempts_factor(self, task_index: int, machine_index: int) -> float:
        """``F[i, u] = 1 / (1 - f[i, u])``."""
        return self._failures.attempts_factor(task_index, machine_index)

    def type_of(self, task_index: int) -> int:
        """Type ``t(i)`` of a task."""
        return self._app.type_of(task_index)

    def supports_one_to_one(self) -> bool:
        """True if a one-to-one mapping can exist (``m >= n``)."""
        return self.num_machines >= self.num_tasks

    def supports_specialized(self) -> bool:
        """True if a specialized mapping can exist (``m >= p``)."""
        return self.num_machines >= self.num_types

    def effective_cost(self, task_index: int, machine_index: int) -> float:
        """Expected time per finished product for one task on one machine.

        ``w[i, u] * F[i, u]`` — the time to process one product multiplied
        by the expected number of attempts per success.  This is the local
        quantity minimized by heuristic H4.
        """
        return self.w(task_index, machine_index) * self.attempts_factor(
            task_index, machine_index
        )

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict representation (JSON friendly)."""
        return {
            "name": self.name,
            "application": self._app.to_dict(),
            "platform": self._platform.to_dict(),
            "failures": self._failures.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProblemInstance":
        """Inverse of :meth:`to_dict`."""
        return cls(
            Application.from_dict(data["application"]),
            Platform.from_dict(data["platform"]),
            FailureModel.from_dict(data["failures"]),
            name=data.get("name", ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"ProblemInstance({label} n={self.num_tasks}, p={self.num_types}, "
            f"m={self.num_machines})"
        )
