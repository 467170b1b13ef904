"""The numpy kernels of the hot batch loops, and the seam that times them.

The batch modules (:mod:`repro.batch.evaluation`,
:mod:`repro.batch.incremental`) spend essentially all of their time in a
handful of inner kernels: the backward ``x`` propagation, the row-wise
scatter-add of task contributions into machine periods and the
single-move candidate probe; a lexicographic first-feasible pick rides
along (see :class:`KernelBackend`).  The move probe scores only the
(task, destination) cells its caller lists, and the row scatter is one
``np.bincount``.  The kernels keep the scalar reference path's
operation and accumulation order, so batch results stay bit-for-bit
equal to it.

Callers reach the kernels through :func:`get_backend` rather than by
name so that :func:`activate_backend` can swap in a wrapped kernel set
for one solve — the span-timed wrappers of :mod:`repro.obs.instrument`
and the benchmark harness's layer clock.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelBackend",
    "NUMPY_BACKEND",
    "get_backend",
    "activate_backend",
    "propagate_x",
    "scatter_periods",
    "scatter_add_rows",
    "critical_mask",
    "probe_candidates",
    "first_feasible",
]


def propagate_x(
    paths: tuple[tuple[np.ndarray, int], ...], f_used: np.ndarray
) -> np.ndarray:
    """Backward ``x`` recursion vectorized over rows, one accumulate per path.

    ``f_used[r, i]`` is the failure rate of task ``i`` under row ``r``'s
    assignment.  ``paths`` is the in-tree's path split
    (:func:`repro.batch.graph.split_paths`): each ``(tasks, seed)`` runs
    from the task nearest the sink up to a source, ``seed`` is the
    successor of ``tasks[0]`` (-1 at a sink), and every seed lies on an
    earlier path.  Returns ``x`` of the same shape as ``f_used``.

    A path's rows stack below its seed row (``x[seed]``, or ``1.0`` at a
    sink) in a ``(len(tasks) + 1, R)`` buffer of success rates
    ``1 - f_used``, and one ``np.divide.accumulate`` down the rows turns
    row ``k`` into ``row[k - 1] / keep[tasks[k - 1]]``.  That is the
    recursion's one division per task, ``x[t] = x[succ[t]] / keep[t]``,
    on the same operands as a task-by-task walk: each ``x[t]`` is a
    single IEEE division of its successor's ``x`` (already final when
    ``t``'s path runs), so ``x`` is bit-for-bit the same at any ``R``,
    for any path split and any order that reaches a successor before its
    predecessors.  A chain is one path, so one accumulate.
    """
    keep = np.subtract(1.0, f_used.T, order="C")
    x = np.empty_like(keep)
    for tasks, seed in paths:
        walk = np.empty((tasks.size + 1, keep.shape[1]))
        walk[0] = 1.0 if seed < 0 else x[seed]
        keep.take(tasks, axis=0, out=walk[1:])
        np.divide.accumulate(walk, axis=0, out=walk)
        x[tasks] = walk[1:]
    return x.T


def scatter_periods(
    assignments: np.ndarray, contributions: np.ndarray, num_machines: int
) -> np.ndarray:
    """Row-wise segment sum of task contributions into machine periods.

    ``np.add.at`` visits the tasks of each row in ascending order — the
    same accumulation order as the scalar kernel, keeping results
    bit-for-bit identical.
    """
    rows = np.arange(assignments.shape[0])[:, np.newaxis]
    periods = np.zeros((assignments.shape[0], num_machines), dtype=np.float64)
    np.add.at(periods, (rows, assignments), contributions)
    return periods


def scatter_add_rows(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Zero-start scatter-add: ``out[rows[k], cols[k]] += vals[k]`` into ``shape`` zeros.

    One ``np.bincount`` over the flat cells ``rows * width + cols``: it
    visits ``k`` ascending and adds each term into its cell from ``0.0``,
    the same terms in the same order as ``np.add.at`` — the
    accumulation order the incremental probes rely on.
    """
    num_rows, width = shape
    flat = np.bincount(rows * width + cols, weights=vals, minlength=num_rows * width)
    # With no terms, bincount returns int64 zeros whatever the weights' dtype.
    return flat.astype(np.float64, copy=False).reshape(num_rows, width)


def critical_mask(machine_periods: np.ndarray, rel_tol: float) -> np.ndarray:
    """Boolean ``(R, m)`` mask of machines attaining each row's maximum."""
    top = machine_periods.max(axis=1, keepdims=True)
    return (machine_periods >= top * (1.0 - rel_tol)) & (top > 0.0)


def probe_candidates(
    sums: np.ndarray,
    ratios: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    tasks: np.ndarray,
    dests: np.ndarray,
) -> np.ndarray:
    """Fused single-move probe of a list of cells; ``(K,)`` periods.

    Cell ``k`` moves task ``t = tasks[k]`` to machine ``v = dests[k]``
    with attempt-factor ratio ``ratios[k]``.  ``sums`` is machine-major
    ``(2m, n)``: rows ``[0, m)`` are ``base`` and rows ``[m, 2m)`` are
    ``rest``, column ``t`` holding task ``t``'s machine periods.  The
    cell's entry is ``max_u(rest[u, t] * ratios[k] + base[u, t])`` with
    ``(x[t] * ratios[k]) * w[t, v]`` added at the destination ``u == v``;
    ``x`` and ``w`` are the evaluator's ``(n,)`` and ``(n, m)`` arrays.
    Only the listed cells are built, as the columns of one ``(2m, K)``
    gather, so the max runs down contiguous rows; the destination terms
    are added through flat indices.
    """
    m = sums.shape[0] // 2
    gathered = sums.take(tasks, axis=1)
    # Built in place: IEEE addition commutes, so ``rest * ratio + base``
    # equals ``base + rest * ratio`` bit for bit, without a second array.
    candidates = gathered[m:]
    candidates *= ratios
    candidates += gathered[:m]
    count = tasks.size
    gains = x[tasks] * ratios * w.ravel()[tasks * w.shape[1] + dests]
    candidates.ravel()[dests * count + np.arange(count)] += gains
    return candidates.max(axis=0)


def first_feasible(
    feasible: np.ndarray, primary: np.ndarray, secondary: np.ndarray
) -> np.ndarray:
    """Per row, the feasible machine that sorts first by ``(primary, secondary, index)``.

    All three arguments are ``(R, m)``; the keys ascend (most preferred
    first).  The pick is a lexicographic argmin built from comparisons
    only, so it equals the first feasible machine of the stable
    ``np.lexsort((index, secondary, primary))`` order bit for bit —
    ``-0.0`` and ``0.0`` tie, as in the sort.  Keys must not be NaN.
    Rows with no feasible machine return 0; callers mask those rows out
    via their own ``feasible.any`` bookkeeping.
    """
    lead = np.where(feasible, primary, np.inf).min(axis=1, keepdims=True)
    tied = feasible & (primary == lead)
    best = np.where(tied, secondary, np.inf).min(axis=1, keepdims=True)
    return np.argmax(tied & (secondary == best), axis=1)


@dataclass(frozen=True, slots=True)
class KernelBackend:
    """The kernel set the batch modules call through :func:`get_backend`.

    One field per kernel function of this module, under the same name,
    plus ``name`` (``"numpy"``, recorded in stored run headers and trace
    spans).  A wrapper installed with :func:`activate_backend` must keep
    the kernels' signatures, dtypes and operation order (the bit-for-bit
    contract); the timing wrappers simply call them.  No solver calls
    ``first_feasible`` since the binary-search heuristics walk in plain
    Python; it stays a field because ``perfbench/layers.py`` rebuilds the
    kernel set by field name to time every kernel.
    """

    name: str
    propagate_x: Callable
    scatter_periods: Callable
    scatter_add_rows: Callable
    critical_mask: Callable
    probe_candidates: Callable
    first_feasible: Callable


#: The numpy kernel set, active unless a wrapper is installed.
NUMPY_BACKEND = KernelBackend(
    name="numpy",
    propagate_x=propagate_x,
    scatter_periods=scatter_periods,
    scatter_add_rows=scatter_add_rows,
    critical_mask=critical_mask,
    probe_candidates=probe_candidates,
    first_feasible=first_feasible,
)

_ACTIVE: KernelBackend = NUMPY_BACKEND


def get_backend() -> KernelBackend:
    """The active kernel set: :data:`NUMPY_BACKEND` or an installed wrapper."""
    return _ACTIVE


class activate_backend:
    """Temporarily install a :class:`KernelBackend` instance as active.

    The seam the tracing instrumentation uses to swap in a span-timed
    wrapper of the current kernels for the duration of one solve
    (:mod:`repro.obs.instrument`).  Activations nest; each restores the
    instance it replaced, also when its body raises.  Concurrent
    activations on different threads may briefly see each other's
    instance; that is harmless for wrappers that keep the wrapped
    kernels' bit-for-bit behaviour (the only supported use).
    """

    __slots__ = ("_backend", "_previous")

    def __init__(self, backend: KernelBackend):
        self._backend = backend
        self._previous: KernelBackend | None = None

    def __enter__(self) -> KernelBackend:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._backend
        return self._backend

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
