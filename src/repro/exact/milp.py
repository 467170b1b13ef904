"""Mixed-integer programming formulation of the specialized mapping problem.

This is the exact model of Section 6.1 of the paper:

Variables
    ``a[i, u]`` (binary)   task ``Ti`` is assigned to machine ``Mu``;
    ``t[u, j]`` (binary)   machine ``Mu`` is specialized to type ``j``;
    ``x[i]``    (rational) expected products task ``Ti`` processes per
    finished product;
    ``y[i, u]`` (rational) linearisation of ``a[i, u] * x[i]``;
    ``K``       (rational) upper bound on every machine period.

Constraints (numbering follows the paper)
    (3)  every task is assigned to exactly one machine;
    (4)  every machine is dedicated to at most one type;
    (5)  a task may only go to a machine specialized to its type;
    (6)  big-M propagation of the expected product counts along the chain;
    (7)  every machine period is at most ``K``;
    (8)  the three big-M constraints defining ``y[i, u] = a[i, u] * x[i]``.

Objective: minimise ``K``.

The paper solves the model with CPLEX; here we build exactly the same
model and hand it to ``scipy.optimize.milp`` (HiGHS branch-and-cut), which
is the documented substitution in DESIGN.md.  The model construction is
separated from the solve so that tests can inspect matrices, and so that
the from-scratch :mod:`repro.exact.branch_and_bound` solver can be used to
cross-check optima.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..core.instance import ProblemInstance
from ..core.mapping import Mapping, MappingRule
from ..core.period import MappingEvaluation, evaluate
from ..exceptions import InfeasibleProblemError, SolverError

__all__ = ["MilpModel", "MilpResult", "build_milp_model", "solve_specialized_milp"]


@dataclass(frozen=True, slots=True)
class MilpModel:
    """The assembled MIP, ready to be handed to a solver.

    Attributes
    ----------
    num_tasks, num_types, num_machines:
        Instance dimensions ``n``, ``p``, ``m``.
    c:
        Objective coefficient vector (minimisation).
    integrality:
        Per-variable integrality flags (1 = integer, 0 = continuous) as
        expected by ``scipy.optimize.milp``.
    lower, upper:
        Variable bounds.
    constraints:
        List of ``scipy.optimize.LinearConstraint`` objects.
    a_offset, t_offset, x_offset, y_offset, k_offset:
        Index of the first variable of each block in the flat variable
        vector (``a`` is laid out row-major ``i * m + u``, ``t`` as
        ``u * p + j``, ``y`` as ``i * m + u``).
    max_x:
        The big-M vector ``MAXx_i``.
    """

    num_tasks: int
    num_types: int
    num_machines: int
    c: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    constraints: list
    a_offset: int
    t_offset: int
    x_offset: int
    y_offset: int
    k_offset: int
    max_x: np.ndarray

    @property
    def num_variables(self) -> int:
        """Total number of decision variables."""
        return int(self.c.size)

    @property
    def num_constraint_rows(self) -> int:
        """Total number of scalar constraint rows."""
        return int(sum(constraint.A.shape[0] for constraint in self.constraints))

    def a_index(self, task: int, machine: int) -> int:
        """Flat index of ``a[task, machine]``."""
        return self.a_offset + task * self.num_machines + machine

    def t_index(self, machine: int, type_index: int) -> int:
        """Flat index of ``t[machine, type_index]``."""
        return self.t_offset + machine * self.num_types + type_index

    def x_index(self, task: int) -> int:
        """Flat index of ``x[task]``."""
        return self.x_offset + task

    def y_index(self, task: int, machine: int) -> int:
        """Flat index of ``y[task, machine]``."""
        return self.y_offset + task * self.num_machines + machine


@dataclass(frozen=True, slots=True)
class MilpResult:
    """Outcome of a MIP solve.

    Attributes
    ----------
    status:
        ``"optimal"`` or ``"infeasible"`` / ``"failed"`` (with message).
    mapping:
        The optimal specialized mapping (``None`` unless optimal).
    evaluation:
        Analytic evaluation of the mapping (``None`` unless optimal).
    objective:
        The solver's optimal ``K`` (period upper bound).
    solve_time:
        Wall-clock seconds spent in the solver.
    message:
        Backend message.
    """

    status: str
    mapping: Mapping | None
    evaluation: MappingEvaluation | None
    objective: float
    solve_time: float
    message: str = ""

    @property
    def period(self) -> float:
        """Analytic period of the returned mapping (``inf`` when absent)."""
        return self.evaluation.period if self.evaluation is not None else float("inf")

    @property
    def is_optimal(self) -> bool:
        """True when the solver proved optimality."""
        return self.status == "optimal"


def _max_x_bounds(instance: ProblemInstance) -> np.ndarray:
    """The big-M vector ``MAXx_i`` of the paper.

    ``MAXx_i`` is the expected product count of task ``Ti`` when every task
    on the path from ``Ti`` to the sink is charged its *worst* failure rate
    over machines.
    """
    app = instance.application
    worst = instance.failures.worst_case_attempts()
    max_x = np.ones(instance.num_tasks)
    for task in app.reverse_topological_order():
        succ = app.successor(task)
        downstream = 1.0 if succ is None else max_x[succ]
        max_x[task] = downstream * worst[task]
    return max_x


def build_milp_model(instance: ProblemInstance) -> MilpModel:
    """Assemble the Section-6.1 MIP for an instance.

    Raises
    ------
    InfeasibleProblemError
        If ``m < p`` (no specialized mapping exists).
    """
    import scipy.sparse as sp
    from scipy.optimize import LinearConstraint

    if not instance.supports_specialized():
        raise InfeasibleProblemError(
            f"specialized mappings need m >= p; got m={instance.num_machines}, "
            f"p={instance.num_types}"
        )
    n, p, m = instance.num_tasks, instance.num_types, instance.num_machines
    w = instance.processing_times
    f = instance.failure_rates
    F = 1.0 / (1.0 - f)
    app = instance.application
    max_x = _max_x_bounds(instance)

    a_offset = 0
    t_offset = a_offset + n * m
    x_offset = t_offset + m * p
    y_offset = x_offset + n
    k_offset = y_offset + n * m
    num_vars = k_offset + 1

    c = np.zeros(num_vars)
    c[k_offset] = 1.0  # minimise K

    integrality = np.zeros(num_vars)
    integrality[a_offset : a_offset + n * m] = 1
    integrality[t_offset : t_offset + m * p] = 1

    lower = np.zeros(num_vars)
    upper = np.full(num_vars, np.inf)
    upper[a_offset : a_offset + n * m] = 1.0
    upper[t_offset : t_offset + m * p] = 1.0
    # x_i in [1, MAXx_i]; y_iu in [0, MAXx_i]; K >= 0 unbounded above.
    lower[x_offset : x_offset + n] = 1.0
    upper[x_offset : x_offset + n] = max_x
    for i in range(n):
        upper[y_offset + i * m : y_offset + (i + 1) * m] = max_x[i]

    def a_idx(i: int, u: int) -> int:
        return a_offset + i * m + u

    def t_idx(u: int, j: int) -> int:
        return t_offset + u * p + j

    def y_idx(i: int, u: int) -> int:
        return y_offset + i * m + u

    constraints: list[LinearConstraint] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lo: list[float] = []
    hi: list[float] = []
    row = 0

    def add_entry(r: int, col: int, val: float) -> None:
        rows.append(r)
        cols.append(col)
        vals.append(val)

    # (3) sum_u a[i, u] = 1
    for i in range(n):
        for u in range(m):
            add_entry(row, a_idx(i, u), 1.0)
        lo.append(1.0)
        hi.append(1.0)
        row += 1

    # (4) sum_j t[u, j] <= 1
    for u in range(m):
        for j in range(p):
            add_entry(row, t_idx(u, j), 1.0)
        lo.append(-np.inf)
        hi.append(1.0)
        row += 1

    # (5) a[i, u] <= t[u, t(i)]
    for i in range(n):
        ti = instance.type_of(i)
        for u in range(m):
            add_entry(row, a_idx(i, u), 1.0)
            add_entry(row, t_idx(u, ti), -1.0)
            lo.append(-np.inf)
            hi.append(0.0)
            row += 1

    # (6) x_i >= F[i, u] * x_succ(i) - (1 - a[i, u]) * MAXx_i
    #     rearranged:  -x_i + F*x_succ + MAXx_i*a_iu <= MAXx_i
    #     (with x_succ = 1 folded into the bound for sink tasks)
    for i in range(n):
        succ = app.successor(i)
        for u in range(m):
            add_entry(row, x_offset + i, -1.0)
            add_entry(row, a_idx(i, u), max_x[i])
            if succ is None:
                bound = max_x[i] - F[i, u]
            else:
                add_entry(row, x_offset + succ, F[i, u])
                bound = max_x[i]
            lo.append(-np.inf)
            hi.append(float(bound))
            row += 1

    # (7) sum_i y[i, u] * w[i, u] - K <= 0
    for u in range(m):
        for i in range(n):
            add_entry(row, y_idx(i, u), float(w[i, u]))
        add_entry(row, k_offset, -1.0)
        lo.append(-np.inf)
        hi.append(0.0)
        row += 1

    # (8a) y_iu - MAXx_i * a_iu <= 0
    # (8b) y_iu - x_i <= 0
    # (8c) x_i - y_iu + MAXx_i * a_iu <= MAXx_i
    for i in range(n):
        for u in range(m):
            add_entry(row, y_idx(i, u), 1.0)
            add_entry(row, a_idx(i, u), -float(max_x[i]))
            lo.append(-np.inf)
            hi.append(0.0)
            row += 1

            add_entry(row, y_idx(i, u), 1.0)
            add_entry(row, x_offset + i, -1.0)
            lo.append(-np.inf)
            hi.append(0.0)
            row += 1

            add_entry(row, x_offset + i, 1.0)
            add_entry(row, y_idx(i, u), -1.0)
            add_entry(row, a_idx(i, u), float(max_x[i]))
            lo.append(-np.inf)
            hi.append(float(max_x[i]))
            row += 1

    matrix = sp.csr_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(row, num_vars)
    )
    constraints.append(LinearConstraint(matrix, np.asarray(lo), np.asarray(hi)))

    return MilpModel(
        num_tasks=n,
        num_types=p,
        num_machines=m,
        c=c,
        integrality=integrality,
        lower=lower,
        upper=upper,
        constraints=constraints,
        a_offset=a_offset,
        t_offset=t_offset,
        x_offset=x_offset,
        y_offset=y_offset,
        k_offset=k_offset,
        max_x=max_x,
    )


@contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at descriptor 2 for the duration of the block.

    HiGHS's C++ core prints some diagnostics (e.g.
    ``HighsMipSolverData::transformNewIntegerFeasibleSolution
    tmpSolver.run();``) straight to the process's stdout whatever the
    ``disp`` option says, which would corrupt ``microrepro run --csv``.
    The redirect is process-wide: no caller of the MIP writes stdout
    from another thread while a solve runs.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def solve_specialized_milp(
    instance: ProblemInstance,
    *,
    time_limit: float | None = 60.0,
    mip_rel_gap: float = 1e-6,
) -> MilpResult:
    """Solve the specialized-mapping MIP to optimality with HiGHS.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds handed to the solver (``None`` =
        unlimited).  The paper reports that CPLEX stops finding solutions
        beyond ~15 tasks on 9 machines; HiGHS behaves similarly, hence the
        default cap.
    mip_rel_gap:
        Relative optimality gap tolerance.

    Returns
    -------
    MilpResult
        With ``status="optimal"`` and the mapping on success; with
        ``status`` set to the failure kind otherwise (never raises for
        solver-side failures so that experiment sweeps can continue).
    """
    from scipy.optimize import Bounds, milp

    model = build_milp_model(instance)
    options: dict = {"mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    start = time.perf_counter()
    with _stdout_to_stderr():
        result = milp(
            c=model.c,
            constraints=model.constraints,
            integrality=model.integrality,
            bounds=Bounds(model.lower, model.upper),
            options=options,
        )
    elapsed = time.perf_counter() - start

    if not result.success or result.x is None:
        status = "infeasible" if result.status == 2 else "failed"
        return MilpResult(
            status=status,
            mapping=None,
            evaluation=None,
            objective=float("inf"),
            solve_time=elapsed,
            message=str(result.message),
        )

    solution = np.asarray(result.x)
    a_block = solution[model.a_offset : model.a_offset + model.num_tasks * model.num_machines]
    a_matrix = a_block.reshape(model.num_tasks, model.num_machines)
    assignment = np.argmax(a_matrix, axis=1)
    # Defensive check: each row of a must select exactly one machine.
    row_sums = a_matrix.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-4):
        raise SolverError("MILP returned a fractional assignment matrix")

    mapping = Mapping(assignment, instance.num_machines)
    mapping.validate(instance, MappingRule.SPECIALIZED)
    return MilpResult(
        status="optimal",
        mapping=mapping,
        evaluation=evaluate(instance, mapping),
        objective=float(result.fun),
        solve_time=elapsed,
        message=str(result.message),
    )
