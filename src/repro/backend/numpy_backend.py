"""Pure-numpy kernel backend — the default and the bit-for-bit reference.

These functions are the hot kernels previously inlined in
:mod:`repro.batch.evaluation`, :mod:`repro.batch.incremental` and
:mod:`repro.heuristics.binary_search`, extracted verbatim: every other
backend must reproduce their operation and accumulation order exactly
(see the :class:`~repro.backend.KernelBackend` contract).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "propagate_x",
    "scatter_periods",
    "scatter_add_rows",
    "critical_mask",
    "probe_candidates",
    "first_feasible",
    "make_backend",
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


def make_backend():
    """The numpy :class:`~repro.backend.KernelBackend` (always available)."""
    from . import KernelBackend

    return KernelBackend(
        name="numpy",
        propagate_x=propagate_x,
        scatter_periods=scatter_periods,
        scatter_add_rows=scatter_add_rows,
        critical_mask=critical_mask,
        probe_candidates=probe_candidates,
        first_feasible=first_feasible,
    )
