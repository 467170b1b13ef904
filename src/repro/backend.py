"""The numpy kernels of the hot batch loops, and the seam that times them.

The batch modules (:mod:`repro.batch.evaluation`,
:mod:`repro.batch.incremental`) spend essentially all of their time in a
handful of inner kernels: the backward ``x`` propagation, the row-wise
scatter-add of task contributions into machine periods and the
single-move candidate probe; a lexicographic first-feasible pick rides
along (see :class:`KernelBackend`).  They keep the scalar reference
path's operation and accumulation order, so batch results stay
bit-for-bit equal to it.

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


def propagate_x(order: np.ndarray, succ: np.ndarray, f_used: np.ndarray) -> np.ndarray:
    """Backward ``x`` recursion vectorized over rows.

    ``f_used[r, i]`` is the failure rate of task ``i`` under row ``r``'s
    assignment; ``order`` is the reverse topological task order and
    ``succ[t]`` the successor of ``t`` (-1 at a sink).  Returns ``x`` of
    the same shape as ``f_used``.
    """
    x = np.ones_like(f_used)
    for task in order:
        s = succ[task]
        if s < 0:
            x[:, task] = 1.0 / (1.0 - f_used[:, task])
        else:
            x[:, task] = x[:, s] / (1.0 - f_used[:, task])
    return x


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


def scatter_add_rows(out: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
    """In-place row-wise scatter-add: ``out[r, cols[r, k]] += vals[r, k]``.

    Visits ``k`` ascending per row (row-major ``np.add.at`` order), the
    accumulation order the incremental probes rely on.
    """
    rows = np.arange(out.shape[0])[:, np.newaxis]
    np.add.at(out, (rows, cols), vals)


def critical_mask(machine_periods: np.ndarray, rel_tol: float) -> np.ndarray:
    """Boolean ``(R, m)`` mask of machines attaining each row's maximum."""
    top = machine_periods.max(axis=1, keepdims=True)
    return (machine_periods >= top * (1.0 - rel_tol)) & (top > 0.0)


def probe_candidates(
    base: np.ndarray,
    rest: np.ndarray,
    ratios: np.ndarray,
    x_task: np.ndarray,
    w_task: np.ndarray,
) -> np.ndarray:
    """Fused single-move candidate probe; ``(R, m)`` periods per destination.

    Entry ``[r, v]`` is ``max_u(base[r, u] + rest[r, u] * ratios[r, v])``
    with ``(x_task[r] * ratios[r, v]) * w_task[r, v]`` added at the moved
    task's destination ``u == v`` — exactly the candidate tensor the
    incremental evaluators used to materialise, reduced over its last
    axis.
    """
    m = base.shape[1]
    candidates = (
        base[:, np.newaxis, :] + rest[:, np.newaxis, :] * ratios[:, :, np.newaxis]
    )
    diag = np.arange(m)
    candidates[:, diag, diag] += x_task[:, np.newaxis] * ratios * w_task
    return candidates.max(axis=2)


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
