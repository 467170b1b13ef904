"""Failure model: transient per-(task, machine) failure rates.

The originality of the paper is that failures are attached to the couple
(task type, machine): the same robot may fail more often on a delicate
manipulation than on a simple one.  Failures are *transient* — a failed
execution loses (or damages) the single product being manipulated, but the
machine keeps working for subsequent products.  Products are physical, so
replication is impossible; the only remedy is to feed more products.

The failure rate of task ``Ti`` on machine ``Mu`` is ``f[i, u] = l / b``
(``l`` products lost out of every ``b`` processed).  The derived quantity
``F[i, u] = 1 / (1 - f[i, u])`` is the expected number of attempts per
successful product.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..exceptions import InvalidFailureModelError
from .types import TypeAssignment

__all__ = ["FailureModel"]


class FailureModel:
    """Per-(task, machine) transient failure rates.

    Parameters
    ----------
    rates:
        Array-like of shape ``(n, m)`` with ``0 <= f[i, u] < 1``.
    types:
        Optional type assignment; when given with
        ``enforce_type_consistency=True``, tasks of the same type are
        required to share identical failure rows.  The paper attaches
        failures to the couple (task *type*, machine) in its motivation but
        the formal model and the MIP use per-task rates — consistency
        enforcement is therefore optional and off by default.
    enforce_type_consistency:
        See above.
    """

    __slots__ = ("_f", "_types")

    def __init__(
        self,
        rates: Sequence[Sequence[float]] | np.ndarray,
        *,
        types: TypeAssignment | None = None,
        enforce_type_consistency: bool = False,
    ) -> None:
        f = np.asarray(rates, dtype=np.float64)
        if f.ndim != 2 or f.size == 0:
            raise InvalidFailureModelError(
                f"failure rates must form a non-empty 2-D array, got shape {f.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise InvalidFailureModelError("failure rates must all be finite")
        if np.any(f < 0.0) or np.any(f >= 1.0):
            raise InvalidFailureModelError("failure rates must satisfy 0 <= f < 1")
        self._f = f.copy()
        self._f.setflags(write=False)

        if types is not None:
            types.validate_against(f.shape[0])
            if enforce_type_consistency:
                type_index = types.first_inconsistent_type(self._f)
                if type_index is not None:
                    raise InvalidFailureModelError(
                        f"tasks of type {type_index} have differing failure rates while "
                        "type consistency was requested"
                    )
        self._types = types

    # -- constructors -------------------------------------------------------------
    @classmethod
    def failure_free(cls, num_tasks: int, num_machines: int) -> "FailureModel":
        """A model where nothing ever fails (``f = 0`` everywhere)."""
        if num_tasks <= 0 or num_machines <= 0:
            raise InvalidFailureModelError("dimensions must be positive")
        return cls(np.zeros((num_tasks, num_machines)))

    @classmethod
    def uniform(cls, num_tasks: int, num_machines: int, rate: float) -> "FailureModel":
        """Every (task, machine) couple shares the same failure rate."""
        if not 0.0 <= rate < 1.0:
            raise InvalidFailureModelError("rate must be in [0, 1)")
        return cls(np.full((num_tasks, num_machines), float(rate)))

    @classmethod
    def task_dependent(
        cls, per_task_rates: Sequence[float] | np.ndarray, num_machines: int
    ) -> "FailureModel":
        """Rates depending only on the task: ``f[i, u] = f[i]``.

        This is the setting of the earlier paper [1] and of Figure 9, where
        the optimal one-to-one mapping is computable in polynomial time.
        """
        per_task = np.asarray(per_task_rates, dtype=np.float64)
        if per_task.ndim != 1 or per_task.size == 0:
            raise InvalidFailureModelError("per_task_rates must be a non-empty vector")
        if num_machines <= 0:
            raise InvalidFailureModelError("num_machines must be positive")
        return cls(np.repeat(per_task[:, None], num_machines, axis=1))

    @classmethod
    def machine_dependent(
        cls, per_machine_rates: Sequence[float] | np.ndarray, num_tasks: int
    ) -> "FailureModel":
        """Rates depending only on the machine: ``f[i, u] = f[u]``.

        This is the classical distributed-computing assumption (and the
        setting of the NP-hardness proof of Theorem 2).
        """
        per_machine = np.asarray(per_machine_rates, dtype=np.float64)
        if per_machine.ndim != 1 or per_machine.size == 0:
            raise InvalidFailureModelError("per_machine_rates must be a non-empty vector")
        if num_tasks <= 0:
            raise InvalidFailureModelError("num_tasks must be positive")
        return cls(np.repeat(per_machine[None, :], num_tasks, axis=0))

    @classmethod
    def from_loss_counts(
        cls,
        losses: Sequence[Sequence[int]] | np.ndarray,
        batches: Sequence[Sequence[int]] | np.ndarray,
    ) -> "FailureModel":
        """Build rates from the ``l[i, u] / b[i, u]`` counts of the paper.

        ``losses[i, u]`` products are lost each time ``batches[i, u]``
        products are processed; requires ``0 <= l < b``.
        """
        l = np.asarray(losses, dtype=np.float64)
        b = np.asarray(batches, dtype=np.float64)
        if l.shape != b.shape:
            raise InvalidFailureModelError("losses and batches must have the same shape")
        if np.any(b <= 0):
            raise InvalidFailureModelError("batch sizes must be strictly positive")
        if np.any(l < 0) or np.any(l >= b):
            raise InvalidFailureModelError("losses must satisfy 0 <= l < b")
        return cls(l / b)

    # -- properties ---------------------------------------------------------------
    @property
    def rates(self) -> np.ndarray:
        """Read-only view of the ``n x m`` failure-rate matrix ``f``."""
        return self._f

    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n``."""
        return int(self._f.shape[0])

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return int(self._f.shape[1])

    # -- queries ------------------------------------------------------------------
    def rate(self, task_index: int, machine_index: int) -> float:
        """Failure rate ``f[i, u]``."""
        return float(self._f[task_index, machine_index])

    def success_rate(self, task_index: int, machine_index: int) -> float:
        """Probability ``1 - f[i, u]`` that one execution succeeds."""
        return 1.0 - float(self._f[task_index, machine_index])

    def attempts_factor(self, task_index: int, machine_index: int) -> float:
        """``F[i, u] = 1 / (1 - f[i, u])``: expected attempts per success."""
        return 1.0 / (1.0 - float(self._f[task_index, machine_index]))

    @property
    def attempts_factors(self) -> np.ndarray:
        """Matrix of ``F[i, u] = 1 / (1 - f[i, u])`` values."""
        return 1.0 / (1.0 - self._f)

    def is_failure_free(self) -> bool:
        """True if no (task, machine) couple ever fails."""
        return bool(np.all(self._f == 0.0))

    def is_task_dependent(self) -> bool:
        """True if ``f[i, u]`` does not depend on ``u`` (``f[i, u] = f[i]``)."""
        return bool(np.allclose(self._f, self._f[:, [0]]))

    def is_machine_dependent(self) -> bool:
        """True if ``f[i, u]`` does not depend on ``i`` (``f[i, u] = f[u]``)."""
        return bool(np.allclose(self._f, self._f[[0], :]))

    def worst_case_attempts(self) -> np.ndarray:
        """Per-task worst attempts factor ``1 / (1 - max_u f[i, u])``.

        Used to compute the big-M bound ``MAXx_i`` of the MIP (Section 6.1).
        """
        return 1.0 / (1.0 - self._f.max(axis=1))

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict representation (JSON friendly)."""
        return {"rates": self._f.tolist()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FailureModel":
        """Inverse of :meth:`to_dict`."""
        return cls(data["rates"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FailureModel(n={self.num_tasks}, m={self.num_machines}, "
            f"mean={self._f.mean():.4f}, max={self._f.max():.4f})"
        )
