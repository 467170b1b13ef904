"""Vectorized period / throughput evaluation of mapping batches.

The scalar path in :mod:`repro.core.period` scores one ``(instance,
mapping)`` pair per call; this module scores an ``(R, n)`` array of ``R``
mappings against one instance (or against a stack of ``R`` structurally
identical instances) in a handful of NumPy operations:

* ``x`` propagation walks the in-tree once (``n`` steps), each step
  updating all ``R`` rows at once;
* per-machine period accumulation is a single ``np.add.at`` scatter that
  visits tasks in ascending order per row — the exact accumulation order
  of the scalar kernel, so batch results are bit-for-bit identical to
  ``R`` scalar :func:`repro.core.period.evaluate` calls;
* critical machines fall out of one vectorized comparison against the
  per-row maximum.

The batch kernels are the hot path of the experiment runner and of any
search procedure that scores many candidate mappings per instance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..backend import get_backend
from ..core.application import Application
from ..core.failure import FailureModel
from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..core.period import MappingEvaluation
from ..core.platform import Platform
from ..exceptions import InvalidInstanceError, InvalidMappingError

__all__ = [
    "BatchEvaluation",
    "InstanceStack",
    "as_assignment_array",
    "batch_expected_products",
    "batch_machine_periods",
    "batch_periods",
    "batch_throughputs",
    "batch_critical_machines",
    "evaluate_batch",
]

#: Relative tolerance used to extract critical machines, matching the
#: scalar path in :mod:`repro.core.period`.
CRITICAL_REL_TOL = 1e-9


def as_assignment_array(
    mappings: Sequence[Mapping] | Sequence[Sequence[int]] | np.ndarray,
    *,
    num_tasks: int,
    num_machines: int,
) -> np.ndarray:
    """Coerce mappings into a validated ``(R, n)`` int64 assignment array.

    Accepts a sequence of :class:`~repro.core.Mapping`, a sequence of
    assignment vectors, a single ``(n,)`` vector (promoted to ``R=1``) or
    an ``(R, n)`` array.
    """
    if isinstance(mappings, np.ndarray):
        arr = mappings.astype(np.int64, copy=False)
    elif len(mappings) > 0 and isinstance(mappings[0], Mapping):
        arr = np.stack([m.as_array for m in mappings])
    else:
        arr = np.asarray(mappings, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InvalidMappingError(
            f"expected an (R, n) assignment array, got shape {arr.shape}"
        )
    if arr.shape[1] != num_tasks:
        raise InvalidMappingError(
            f"assignments cover {arr.shape[1]} tasks but the instance has {num_tasks}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= num_machines):
        raise InvalidMappingError(
            f"assignments use machine indices outside 0..{num_machines - 1}"
        )
    return arr


def _graph_arrays(application: Application) -> tuple[np.ndarray, np.ndarray]:
    """``(order, succ)`` arrays driving the kernels' ``x`` propagation.

    ``order`` is the reverse topological task order; ``succ[t]`` is the
    successor of task ``t`` or -1 at a sink — the array form of the
    graph walk the ``propagate_x`` kernel consumes.
    """
    order = np.asarray(application.reverse_topological_order(), dtype=np.int64)
    succ = np.full(application.num_tasks, -1, dtype=np.int64)
    for task in range(application.num_tasks):
        s = application.successor(task)
        if s is not None:
            succ[task] = s
    return order, succ


def _propagate_expected_products(
    application: Application, f_used: np.ndarray
) -> np.ndarray:
    """Backward ``x`` recursion vectorized over rows.

    ``f_used[r, i]`` is the failure rate of task ``i`` under row ``r``'s
    assignment; returns ``x`` of the same shape.  The walk itself runs in
    the ``propagate_x`` kernel (see :mod:`repro.backend`).
    """
    order, succ = _graph_arrays(application)
    return get_backend().propagate_x(order, succ, f_used)


def _expected_products_core(instance: ProblemInstance, assignments: np.ndarray) -> np.ndarray:
    """``x`` propagation for an already-validated ``(R, n)`` array."""
    tasks = np.arange(instance.num_tasks)
    f_used = instance.failure_rates[tasks[np.newaxis, :], assignments]
    return _propagate_expected_products(instance.application, f_used)


def batch_expected_products(
    instance: ProblemInstance, assignments: np.ndarray
) -> np.ndarray:
    """The ``(R, n)`` matrix of expected products per task and mapping.

    Row ``r`` equals :func:`repro.core.period.expected_products` for the
    ``r``-th assignment.
    """
    assignments = as_assignment_array(
        assignments, num_tasks=instance.num_tasks, num_machines=instance.num_machines
    )
    return _expected_products_core(instance, assignments)


def _scatter_periods(
    assignments: np.ndarray, contributions: np.ndarray, num_machines: int
) -> np.ndarray:
    """Row-wise segment sum of task contributions into machine periods.

    The kernel visits the tasks of each row in ascending order — the
    same accumulation order as the scalar kernel, keeping results
    bit-for-bit identical.
    """
    return get_backend().scatter_periods(assignments, contributions, num_machines)


def _machine_periods_core(
    instance: ProblemInstance, assignments: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Per-machine periods for an already-validated array and its ``x``."""
    tasks = np.arange(instance.num_tasks)
    w_used = instance.processing_times[tasks[np.newaxis, :], assignments]
    return _scatter_periods(assignments, x * w_used, instance.num_machines)


def batch_machine_periods(
    instance: ProblemInstance, assignments: np.ndarray
) -> np.ndarray:
    """The ``(R, m)`` matrix of per-machine periods, one row per mapping."""
    assignments = as_assignment_array(
        assignments, num_tasks=instance.num_tasks, num_machines=instance.num_machines
    )
    x = _expected_products_core(instance, assignments)
    return _machine_periods_core(instance, assignments, x)


def batch_periods(instance: ProblemInstance, assignments: np.ndarray) -> np.ndarray:
    """The ``(R,)`` vector of application periods (max machine period)."""
    return batch_machine_periods(instance, assignments).max(axis=1)


def _throughputs_from(periods: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(periods == 0.0, np.inf, np.divide(1.0, periods))


def batch_throughputs(instance: ProblemInstance, assignments: np.ndarray) -> np.ndarray:
    """The ``(R,)`` vector of throughputs ``1 / period`` (inf for period 0)."""
    return _throughputs_from(batch_periods(instance, assignments))


def _critical_mask(machine_periods: np.ndarray) -> np.ndarray:
    """Boolean ``(R, m)`` mask of machines attaining each row's maximum."""
    return get_backend().critical_mask(machine_periods, CRITICAL_REL_TOL)


def batch_critical_machines(
    instance: ProblemInstance, assignments: np.ndarray
) -> np.ndarray:
    """Boolean ``(R, m)`` mask: entry ``[r, u]`` is true when machine ``u``
    attains the period of mapping ``r`` (all-false rows have period 0)."""
    return _critical_mask(batch_machine_periods(instance, assignments))


@dataclass(frozen=True, slots=True)
class BatchEvaluation:
    """Evaluation of ``R`` mappings at once.

    Attributes
    ----------
    assignments:
        The ``(R, n)`` allocation array that was scored.
    num_machines:
        Platform size ``m`` (needed to rebuild :class:`~repro.core.Mapping`).
    expected_products:
        ``(R, n)`` matrix of ``x`` vectors.
    machine_periods:
        ``(R, m)`` matrix of per-machine periods.
    periods:
        ``(R,)`` vector of application periods.
    throughputs:
        ``(R,)`` vector of ``1 / period``.
    critical_mask:
        ``(R, m)`` boolean mask of critical machines.
    """

    assignments: np.ndarray
    num_machines: int
    expected_products: np.ndarray
    machine_periods: np.ndarray
    periods: np.ndarray
    throughputs: np.ndarray
    critical_mask: np.ndarray

    def __len__(self) -> int:
        return int(self.assignments.shape[0])

    def critical_machines(self, index: int) -> tuple[int, ...]:
        """Critical machine indices of the ``index``-th mapping."""
        return tuple(int(u) for u in np.flatnonzero(self.critical_mask[index]))

    def best_index(self) -> int:
        """Index of the mapping with the smallest period (ties: lowest index)."""
        return int(np.argmin(self.periods))

    def evaluation(self, index: int) -> MappingEvaluation:
        """Scalar-style :class:`~repro.core.period.MappingEvaluation` view."""
        return MappingEvaluation(
            mapping=Mapping(self.assignments[index], self.num_machines),
            period=float(self.periods[index]),
            throughput=float(self.throughputs[index]),
            machine_periods=tuple(float(v) for v in self.machine_periods[index]),
            expected_products=tuple(float(v) for v in self.expected_products[index]),
            critical_machines=self.critical_machines(index),
        )

    def best(self) -> MappingEvaluation:
        """Full evaluation of the best mapping of the batch."""
        return self.evaluation(self.best_index())


def evaluate_batch(
    instance: ProblemInstance,
    mappings: Sequence[Mapping] | Sequence[Sequence[int]] | np.ndarray,
) -> BatchEvaluation:
    """Evaluate ``R`` mappings against one instance in one vectorized pass.

    Equivalent to ``[evaluate(instance, m) for m in mappings]`` but ~two
    orders of magnitude faster for large ``R``; results are bit-for-bit
    identical to the scalar path.
    """
    assignments = as_assignment_array(
        mappings, num_tasks=instance.num_tasks, num_machines=instance.num_machines
    )
    x = _expected_products_core(instance, assignments)
    machine_periods = _machine_periods_core(instance, assignments, x)
    periods = machine_periods.max(axis=1)
    return BatchEvaluation(
        assignments=assignments,
        num_machines=instance.num_machines,
        expected_products=x,
        machine_periods=machine_periods,
        periods=periods,
        throughputs=_throughputs_from(periods),
        critical_mask=_critical_mask(machine_periods),
    )


class InstanceStack:
    """A stack of ``S`` structurally identical instances.

    All instances share the same application graph (types and edges) and
    platform size; only the ``w`` and ``f`` matrices differ.  This is
    exactly the shape of a scenario sweep point: ``repetitions`` random
    instances drawn with the same ``(n, p, m)``.  Stacking them lets one
    vectorized pass score a mapping per instance (or one mapping against
    every instance) without re-entering Python per repetition.

    Parameters
    ----------
    application:
        The shared task graph.
    processing_times:
        ``(S, n, m)`` array of per-instance ``w`` matrices.
    failure_rates:
        ``(S, n, m)`` array of per-instance ``f`` matrices.
    """

    __slots__ = ("_app", "_w", "_f")

    def __init__(
        self,
        application: Application,
        processing_times: np.ndarray,
        failure_rates: np.ndarray,
    ) -> None:
        w = np.asarray(processing_times, dtype=np.float64)
        f = np.asarray(failure_rates, dtype=np.float64)
        n = application.num_tasks
        if w.ndim != 3 or w.shape[1] != n:
            raise InvalidInstanceError(
                f"processing_times must have shape (S, {n}, m), got {w.shape}"
            )
        if f.shape != w.shape:
            raise InvalidInstanceError(
                f"failure_rates shape {f.shape} does not match processing_times {w.shape}"
            )
        self._app = application
        self._w = w
        self._f = f

    @classmethod
    def from_instances(
        cls,
        instances: Sequence[ProblemInstance],
        *,
        require_uniform_types: bool = True,
    ) -> "InstanceStack":
        """Stack existing instances, validating shared structure.

        Parameters
        ----------
        require_uniform_types:
            By default every instance must share the full application
            (types *and* edges).  Period evaluation only depends on the
            precedence graph and the per-instance ``w``/``f`` matrices —
            not on task types — so passing ``False`` relaxes the check to
            edges and platform size only.  This is what lets the
            experiment engine stack the repetitions of a sweep point,
            whose random chains share the graph but draw fresh type
            vectors.  In that mode :meth:`instance` reports the *first*
            instance's types and must not be relied on for type-aware
            work (mapping-rule validation, heuristics).
        """
        if not instances:
            raise InvalidInstanceError("cannot stack zero instances")
        first = instances[0]

        def signature(inst: ProblemInstance) -> tuple:
            structural = (
                tuple(sorted(inst.application.graph.edges)),
                inst.num_tasks,
                inst.num_machines,
            )
            if require_uniform_types:
                return (tuple(inst.application.types),) + structural
            return structural

        reference = signature(first)
        for inst in instances[1:]:
            if signature(inst) != reference:
                raise InvalidInstanceError(
                    "instances in a stack must share application structure "
                    "and platform size"
                )
        return cls(
            first.application,
            np.stack([inst.processing_times for inst in instances]),
            np.stack([inst.failure_rates for inst in instances]),
        )

    # -- properties -----------------------------------------------------------
    @property
    def application(self) -> Application:
        """The shared task graph."""
        return self._app

    @property
    def num_instances(self) -> int:
        """Stack depth ``S``."""
        return int(self._w.shape[0])

    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n``."""
        return self._app.num_tasks

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return int(self._w.shape[2])

    @property
    def processing_times(self) -> np.ndarray:
        """The ``(S, n, m)`` stack of ``w`` matrices."""
        return self._w

    @property
    def failure_rates(self) -> np.ndarray:
        """The ``(S, n, m)`` stack of ``f`` matrices."""
        return self._f

    def __len__(self) -> int:
        return self.num_instances

    def instance(self, index: int) -> ProblemInstance:
        """Materialise the ``index``-th instance of the stack."""
        return ProblemInstance(
            self._app,
            Platform(self._w[index], types=self._app.types),
            FailureModel(self._f[index]),
        )

    # -- vectorized evaluation ---------------------------------------------------
    def _used(self, assignments: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-(instance, task) used ``w``/``f`` entries for the assignments.

        ``assignments`` may be ``(n,)`` (one mapping scored against every
        instance) or ``(S, n)`` (one mapping per instance).
        """
        arr = np.asarray(assignments, dtype=np.int64)
        if arr.ndim == 1:
            arr = np.broadcast_to(arr, (self.num_instances, self.num_tasks))
        if arr.shape != (self.num_instances, self.num_tasks):
            raise InvalidMappingError(
                f"assignments must have shape ({self.num_instances}, "
                f"{self.num_tasks}) or ({self.num_tasks},), got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self.num_machines):
            raise InvalidMappingError(
                f"assignments use machine indices outside 0..{self.num_machines - 1}"
            )
        rows = np.arange(self.num_instances)[:, np.newaxis]
        tasks = np.arange(self.num_tasks)[np.newaxis, :]
        return arr, self._w[rows, tasks, arr], self._f[rows, tasks, arr]

    def evaluate(self, assignments: np.ndarray) -> BatchEvaluation:
        """Score one mapping per instance (or one mapping for all).

        Row ``s`` of the result equals the scalar evaluation of mapping
        ``assignments[s]`` on instance ``s``.
        """
        arr, w_used, f_used = self._used(assignments)
        x = _propagate_expected_products(self._app, f_used)
        machine_periods = _scatter_periods(arr, x * w_used, self.num_machines)
        periods = machine_periods.max(axis=1)
        return BatchEvaluation(
            assignments=np.ascontiguousarray(arr),
            num_machines=self.num_machines,
            expected_products=x,
            machine_periods=machine_periods,
            periods=periods,
            throughputs=_throughputs_from(periods),
            critical_mask=_critical_mask(machine_periods),
        )

    def periods(self, assignments: np.ndarray) -> np.ndarray:
        """The ``(S,)`` vector of application periods."""
        arr, w_used, f_used = self._used(assignments)
        x = _propagate_expected_products(self._app, f_used)
        return _scatter_periods(arr, x * w_used, self.num_machines).max(axis=1)
