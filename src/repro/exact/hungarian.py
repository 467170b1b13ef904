"""Minimum-weight bipartite matching (Hungarian algorithm).

Theorem 1 of the paper reduces the optimal one-to-one mapping of a linear
chain on homogeneous machines to a minimum-weight perfect matching in the
bipartite graph (tasks x machines) with edge cost ``-log(1 - f[i, u])``.

This module provides a from-scratch O(n^2·m) implementation of the
Hungarian algorithm (Jonker–Volgenant style shortest augmenting paths) for
rectangular cost matrices with ``n <= m``, plus a *bottleneck* assignment
solver (minimise the maximum selected cost) used for the task-dependent
failure case of Figure 9.  The bottleneck solver bisects the distinct
cost values and decides each threshold with scipy's compiled
Hopcroft–Karp matching (``scipy.sparse.csgraph.maximum_bipartite_matching``).
Both are cross-checked against ``scipy.optimize.linear_sum_assignment``
in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InfeasibleProblemError, SolverError

__all__ = ["min_cost_assignment", "bottleneck_assignment", "assignment_cost"]


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Solve the rectangular assignment problem (minimise total cost).

    Parameters
    ----------
    cost:
        ``(n, m)`` matrix with ``n <= m``; ``cost[i, u]`` is the cost of
        assigning row (task) ``i`` to column (machine) ``u``.  Costs must be
        finite.

    Returns
    -------
    numpy.ndarray
        Integer vector ``col`` of length ``n``: row ``i`` is assigned to
        column ``col[i]``; all assigned columns are distinct.

    Notes
    -----
    Implementation: shortest augmenting path / Jonker–Volgenant with dual
    potentials, O(n^2·m).  Deterministic (ties broken by column index).
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.size == 0:
        raise SolverError("cost must be a non-empty 2-D matrix")
    n, m = c.shape
    if n > m:
        raise InfeasibleProblemError(
            f"assignment requires at least as many columns as rows (n={n}, m={m})"
        )
    if not np.all(np.isfinite(c)):
        raise SolverError("cost entries must all be finite")

    INF = np.inf
    # Potentials for rows (u) and columns (v); way[j] = previous column on
    # the augmenting path; matched_row[j] = row currently matched to column j.
    u_pot = np.zeros(n + 1)
    v_pot = np.zeros(m + 1)
    matched_row = np.full(m + 1, n, dtype=np.int64)  # sentinel row n = unmatched
    way = np.zeros(m + 1, dtype=np.int64)

    for i in range(n):
        # Augment starting from row i, using column m as the virtual start.
        matched_row[m] = i
        j0 = m
        minv = np.full(m + 1, INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            delta = INF
            j1 = -1
            for j in range(m):
                if used[j]:
                    continue
                cur = c[i0, j] - u_pot[i0] - v_pot[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 < 0:
                raise SolverError("augmenting path search failed (internal error)")
            for j in range(m + 1):
                if used[j]:
                    u_pot[matched_row[j]] += delta
                    v_pot[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if matched_row[j0] == n:
                break
        # Unwind the augmenting path.
        while j0 != m:
            j1 = way[j0]
            matched_row[j0] = matched_row[j1]
            j0 = j1

    col_of_row = np.full(n, -1, dtype=np.int64)
    for j in range(m):
        if matched_row[j] != n:
            col_of_row[matched_row[j]] = j
    if np.any(col_of_row < 0):
        raise SolverError("assignment is incomplete (internal error)")
    return col_of_row


def assignment_cost(cost: np.ndarray, columns: np.ndarray) -> float:
    """Total cost of an assignment returned by :func:`min_cost_assignment`."""
    c = np.asarray(cost, dtype=np.float64)
    cols = np.asarray(columns, dtype=np.int64)
    return float(c[np.arange(cols.size), cols].sum())


def bottleneck_assignment(cost: np.ndarray) -> np.ndarray:
    """Solve the bottleneck assignment problem (minimise the max cost).

    Finds an assignment of every row to a distinct column minimising the
    *largest* selected cost.  Used for the optimal one-to-one mapping when
    the expected product counts do not depend on the mapping (failure rates
    attached to tasks only), where the period is the max of the per-task
    ``x_i * w[i, a(i)]`` terms.

    Returns
    -------
    numpy.ndarray
        Integer vector ``col`` of length ``n``.
    """
    # scipy.sparse loads on first use: importing it costs ~30 MB of RSS
    # in every process that imports repro.exact but never matches.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.size == 0:
        raise SolverError("cost must be a non-empty 2-D matrix")
    n, m = c.shape
    if n > m:
        raise InfeasibleProblemError(
            f"assignment requires at least as many columns as rows (n={n}, m={m})"
        )
    if not np.all(np.isfinite(c)):
        raise SolverError("cost entries must all be finite")

    thresholds = np.unique(c)
    lo, hi = 0, thresholds.size - 1
    best: np.ndarray | None = None
    # The largest threshold always admits a perfect matching (complete graph).
    while lo <= hi:
        mid = (lo + hi) // 2
        # Column matched to each row, -1 where the row stays unmatched.
        matching = maximum_bipartite_matching(
            csr_matrix(c <= thresholds[mid]), perm_type="column"
        )
        if (matching >= 0).all():
            best = matching.astype(np.int64)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise SolverError("no perfect matching found (internal error)")
    return best
