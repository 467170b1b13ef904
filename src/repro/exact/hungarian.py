"""Minimum-weight bipartite matching (Hungarian algorithm).

Theorem 1 of the paper reduces the optimal one-to-one mapping of a linear
chain on homogeneous machines to a minimum-weight perfect matching in the
bipartite graph (tasks x machines) with edge cost ``-log(1 - f[i, u])``.

This module provides a from-scratch O(n^2·m) implementation of the
Hungarian algorithm (Jonker–Volgenant style shortest augmenting paths) for
rectangular cost matrices with ``n <= m``, plus a *bottleneck* assignment
solver (minimise the maximum selected cost) used for the task-dependent
failure case of Figure 9.  The bottleneck solver is the classic
threshold algorithm: it raises one cost threshold while it grows
alternating trees, in plain numpy.  The min-sum solver is cross-checked
against ``scipy.optimize.linear_sum_assignment`` in the test suite, the
bottleneck solver against a DFS-matching oracle
(``tests.helpers.dfs_bottleneck_assignment``).
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

    Threshold algorithm (Garfinkel 1971): start ``t`` at a lower bound on
    the optimum, match greedily over the edges ``cost <= t``, then grow an
    alternating tree from each unmatched row in breadth-first layers.  A
    tree that reaches a free column augments the matching.  A tree that
    closes has ``k`` rows whose ``k - 1`` reachable columns are all
    matched, so by Hall's condition no perfect matching exists at ``t``:
    ``t`` rises to the cheapest edge leaving the tree and the tree keeps
    growing.  ``t`` never passes the optimum, and every matched edge costs
    at most ``t``, so the final ``t`` is the optimal bottleneck value.

    Returns
    -------
    numpy.ndarray
        Integer vector ``col`` of length ``n``.
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

    # Every row needs some column; with n == m every column also needs a
    # row.  With n < m some columns stay free, so their minima bound nothing.
    threshold = c.min(axis=1).max()
    if n == m:
        threshold = max(threshold, c.min(axis=0).max())
    # Greedy start in plain Python: one pass over each row's admissible
    # columns beats a numpy call per row.
    rows, cols = np.nonzero(c <= threshold)
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    greedy = [-1] * n
    owner = [-1] * m
    for row in range(n):
        for col in cols[starts[row] : starts[row + 1]]:
            if owner[col] < 0:
                owner[col] = row
                greedy[row] = col
                break
    col_of_row = np.array(greedy, dtype=np.int64)
    row_of_col = np.array(owner, dtype=np.int64)
    for root in np.flatnonzero(col_of_row < 0):
        threshold = _augment_from(c, threshold, int(root), col_of_row, row_of_col)
    return col_of_row


def _augment_from(
    c: np.ndarray,
    threshold: float,
    root: int,
    col_of_row: np.ndarray,
    row_of_col: np.ndarray,
) -> float:
    """Match the free row ``root``, raising ``threshold`` as needed.

    Updates the matching in place and returns the (possibly raised)
    threshold.
    """
    m = c.shape[1]
    # Tree row each tree column was reached from; -1 outside the tree.
    parent = np.full(m, -1, dtype=np.int64)
    tree_rows = [root]
    frontier = np.array(tree_rows, dtype=np.int64)
    while True:
        outside = (parent < 0).nonzero()[0]
        reach = c[frontier[:, None], outside] <= threshold
        reached = reach.any(axis=0)
        if not reached.any():
            # The tree is closed: raise the threshold to its cheapest
            # outgoing edge and rescan from every tree row.
            frontier = np.array(tree_rows, dtype=np.int64)
            threshold = c[frontier[:, None], outside].min()
            continue
        cols = outside[reached]
        parent[cols] = frontier[reach[:, reached].argmax(axis=0)]
        free = cols[row_of_col[cols] < 0]
        if free.size:
            col = int(free[0])
            while col >= 0:
                row = parent[col]
                previous = col_of_row[row]
                col_of_row[row] = col
                row_of_col[col] = row
                col = previous
            return threshold
        frontier = row_of_col[cols]
        tree_rows.extend(frontier.tolist())
