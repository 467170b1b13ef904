"""The numpy kernel set, its activation seam and its bit-for-bit contract.

* every kernel against a plain-Python loop that states its definition,
  exact equality on randomized inputs; ``propagate_x`` also on chains
  and in-trees (shared tails, nested joins, forests) at several depths;
* the lexicographic first-feasible pick against a stable-sort oracle;
* every batch-capable heuristic on scaled fig5/fig9/fig10 sweep points,
  bit-for-bit against the per-instance scalar path (assignments and
  periods);
* :func:`~repro.backend.activate_backend`, the seam through which
  :func:`~repro.obs.instrument.timed_kernels` swaps in timed wrappers.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.backend as backend_mod
from repro.backend import (
    NUMPY_BACKEND,
    KernelBackend,
    activate_backend,
    critical_mask,
    first_feasible,
    get_backend,
    probe_candidates,
    propagate_x,
    scatter_add_rows,
    scatter_periods,
)
from repro.batch.graph import graph_tables, split_paths
from repro.core import Mapping
from repro.core.application import Application, in_tree, linear_chain
from repro.core.period import period
from repro.core.types import TypeAssignment
from repro.experiments.figures import FIGURES
from repro.experiments.providers import BlockChunk
from repro.heuristics import get_heuristic
from repro.obs import trace
from repro.obs.instrument import KERNEL_NAMES, timed_kernels
from repro.simulation.rng import RandomStreamFactory
from tests.helpers import kernel_assignments, lexsort_first_feasible, loop_assignments

#: Every batch-capable heuristic of the paper set (H1 is randomized and
#: has no lock-step kernel; the scalar fallback path covers it).
BATCH_HEURISTICS = ("H2", "H3", "H4", "H4w", "H4f", "H4ls")

#: Figures whose shapes the solver-level battery samples (task sweep at
#: m=50, types sweep at n=m=100, the small-platform tasks sweep).
EQUIVALENCE_FIGURES = ("fig5", "fig9", "fig10")


def _random_kernel_inputs(seed: int, R: int = 7, n: int = 11, m: int = 6):
    rng = np.random.default_rng(seed)
    order = np.arange(n - 1, -1, -1, dtype=np.int64)  # reverse of a chain
    succ = np.array([t + 1 for t in range(n - 1)] + [-1], dtype=np.int64)
    f_used = rng.uniform(0.01, 0.3, size=(R, n))
    assignments = rng.integers(0, m, size=(R, n), dtype=np.int64)
    contributions = rng.uniform(0.1, 5.0, size=(R, n))
    # Machine-major (m, n), as best_move hands them to probe_candidates.
    base = rng.uniform(0.0, 10.0, size=(m, n))
    rest = rng.uniform(0.0, 10.0, size=(m, n))
    x = rng.uniform(1.0, 3.0, size=n)
    w = rng.uniform(0.1, 5.0, size=(n, m))
    # About half of the (task, machine) cells, in row-major order.
    tasks, dests = np.nonzero(rng.random(size=(n, m)) < 0.5)
    ratios = rng.uniform(0.5, 2.0, size=tasks.size)
    # Few distinct key values, so the pick's tie-breaks are exercised.
    primary = rng.integers(0, 3, size=(R, m)).astype(np.float64)
    secondary = rng.integers(0, 3, size=(R, m)).astype(np.float64)
    feasible = rng.random(size=(R, m)) < 0.4
    feasible[0, :] = False  # exercise the no-feasible-machine convention
    return {
        "order": order,
        "succ": succ,
        "paths": split_paths(order, succ),
        "f_used": f_used,
        "assignments": assignments,
        "contributions": contributions,
        "m": m,
        "base": base,
        "rest": rest,
        "sums": np.concatenate([base, rest]),
        "ratios": ratios,
        "x": x,
        "w": w,
        "tasks": tasks,
        "dests": dests,
        "primary": primary,
        "secondary": secondary,
        "feasible": feasible,
        # scatter_add_rows: every (row, task) term of `contributions`,
        # row-major, into an (R, m) grid keyed by `assignments`.
        "rows": np.repeat(np.arange(R), n),
        "cols": assignments.ravel(),
        "vals": contributions.ravel(),
        "shape": (R, m),
    }


def _kernel_args(name: str, inputs: dict) -> tuple:
    """Positional arguments of kernel ``name`` drawn from ``inputs``."""
    return {
        "propagate_x": lambda: (inputs["paths"], inputs["f_used"]),
        "scatter_periods": lambda: (
            inputs["assignments"],
            inputs["contributions"],
            inputs["m"],
        ),
        "scatter_add_rows": lambda: (
            inputs["rows"],
            inputs["cols"],
            inputs["vals"],
            inputs["shape"],
        ),
        "critical_mask": lambda: (
            scatter_periods(inputs["assignments"], inputs["contributions"], inputs["m"]),
            1e-9,
        ),
        "probe_candidates": lambda: (
            inputs["sums"],
            inputs["ratios"],
            inputs["x"],
            inputs["w"],
            inputs["tasks"],
            inputs["dests"],
        ),
        "first_feasible": lambda: (
            inputs["feasible"],
            inputs["primary"],
            inputs["secondary"],
        ),
    }[name]()


@pytest.mark.parametrize("seed", (0, 1, 2))
class TestKernelOracles:
    """Each kernel against a scalar loop, in the same operation order.

    The loops are the kernels' definitions written one element at a
    time; the numpy versions must reproduce them exactly, which is what
    keeps the batch path bit-for-bit equal to the scalar one.
    """

    def test_propagate_x(self, seed):
        inputs = _random_kernel_inputs(seed)
        paths, f_used = _kernel_args("propagate_x", inputs)
        expected = _loop_propagate_x(inputs["order"], inputs["succ"], f_used)
        assert np.array_equal(propagate_x(paths, f_used), expected)

    def test_scatter_periods(self, seed):
        inputs = _random_kernel_inputs(seed)
        assignments, contributions, m = _kernel_args("scatter_periods", inputs)
        expected = np.zeros((assignments.shape[0], m))
        for r, row in enumerate(assignments):
            for task, machine in enumerate(row):
                expected[r, machine] += contributions[r, task]
        assert np.array_equal(scatter_periods(assignments, contributions, m), expected)

    def test_scatter_add_rows(self, seed):
        inputs = _random_kernel_inputs(seed)
        rows, cols, vals, shape = _kernel_args("scatter_add_rows", inputs)
        assert np.array_equal(
            scatter_add_rows(rows, cols, vals, shape),
            _loop_scatter_add_rows(rows, cols, vals, shape),
        )

    def test_critical_mask(self, seed):
        inputs = _random_kernel_inputs(seed)
        periods, rel_tol = _kernel_args("critical_mask", inputs)
        # Exact ties at the top, so every row has several critical machines.
        periods[:, :2] = periods.max(axis=1, keepdims=True)
        periods[-1, :] = 0.0  # an empty row has no critical machine
        expected = np.zeros(periods.shape, dtype=bool)
        for r, row in enumerate(periods):
            top = max(row)
            for u, value in enumerate(row):
                expected[r, u] = top > 0.0 and value >= top * (1.0 - rel_tol)
        actual = critical_mask(periods, rel_tol)
        assert np.array_equal(actual, expected)
        assert actual[:-1].sum(axis=1).min() >= 2 and not actual[-1].any()

    def test_probe_candidates(self, seed):
        args = _kernel_args("probe_candidates", _random_kernel_inputs(seed))
        assert np.array_equal(probe_candidates(*args), _loop_probe_candidates(*args))

    def test_first_feasible(self, seed):
        inputs = _random_kernel_inputs(seed)
        feasible, primary, secondary = _kernel_args("first_feasible", inputs)
        expected = np.zeros(feasible.shape[0], dtype=np.int64)
        for r in range(feasible.shape[0]):
            candidates = [
                (primary[r, u], secondary[r, u], u)
                for u in range(feasible.shape[1])
                if feasible[r, u]
            ]
            if candidates:  # rows with no feasible machine return 0
                expected[r] = min(candidates)[2]
        assert np.array_equal(first_feasible(feasible, primary, secondary), expected)


def _loop_scatter_add_rows(rows, cols, vals, shape) -> np.ndarray:
    """``scatter_add_rows`` one term at a time, ``k`` ascending, from zeros."""
    expected = np.zeros(shape)
    for row, col, val in zip(rows, cols, vals):
        expected[row, col] += val
    return expected


def _loop_probe_candidates(sums, ratios, x, w, tasks, dests) -> np.ndarray:
    """``probe_candidates`` one cell and one machine at a time."""
    m = sums.shape[0] // 2
    base, rest = sums[:m], sums[m:]
    expected = np.empty(len(tasks))
    for k, (t, v) in enumerate(zip(tasks, dests)):
        moved = [rest[u, t] * ratios[k] + base[u, t] for u in range(m)]
        moved[v] += x[t] * ratios[k] * w[t, v]
        expected[k] = max(moved)
    return expected


def _loop_propagate_x(order, succ, f_used) -> np.ndarray:
    """The ``x`` recursion one row and one task at a time, in ``order``."""
    expected = np.ones_like(f_used)
    for r in range(f_used.shape[0]):
        for task in order:
            down = 1.0 if succ[task] < 0 else expected[r, succ[task]]
            expected[r, task] = down / (1.0 - f_used[r, task])
    return expected


def _random_in_tree(num_tasks: int, rng: np.random.Generator, *, sink_share: float):
    """An in-forest on shuffled labels: joins at any depth, some extra sinks."""
    labels = rng.permutation(num_tasks)
    edges = []
    for k in range(num_tasks - 1):
        if rng.random() >= sink_share:
            edges.append((int(labels[k]), int(labels[rng.integers(k + 1, num_tasks)])))
    return Application(TypeAssignment([0] * num_tasks), edges)


#: Precedence graphs of the ``propagate_x`` battery.
_GRAPHS = {
    "chain-1": lambda rng: linear_chain(1, 1),
    "chain-50": lambda rng: linear_chain(50, 5),
    "in-tree-shared-tail": lambda rng: in_tree([6, 3, 8, 1], 3, shared_tail_length=4),
    "in-tree-nested": lambda rng: _random_in_tree(40, rng, sink_share=0.0),
    "in-forest": lambda rng: _random_in_tree(40, rng, sink_share=0.15),
}


class TestPropagateXPaths:
    """One accumulate per path is the per-task division, bit for bit."""

    @pytest.mark.parametrize("rows", (1, 2, 6, 50))
    @pytest.mark.parametrize("graph", list(_GRAPHS))
    def test_matches_the_per_task_division(self, graph, rows):
        rng = np.random.default_rng(rows)
        tables = graph_tables(_GRAPHS[graph](rng))
        f_used = rng.uniform(0.0, 0.6, size=(rows, tables.succ.size))
        expected = _loop_propagate_x(tables.order, tables.succ, f_used)
        assert np.array_equal(propagate_x(tables.paths, f_used), expected)

    @pytest.mark.parametrize("graph", list(_GRAPHS))
    def test_any_successor_first_order_gives_the_same_bits(self, graph):
        rng = np.random.default_rng(7)
        tables = graph_tables(_GRAPHS[graph](rng))
        f_used = rng.uniform(0.0, 0.6, size=(3, tables.succ.size))
        # Another reverse topological order: sinks first, then a random
        # pick among the tasks whose successor is done.
        succ = tables.succ.tolist()
        done, order = set(), []
        while len(order) < len(succ):
            ready = [
                t for t in range(len(succ))
                if t not in done and (succ[t] < 0 or succ[t] in done)
            ]
            task = ready[rng.integers(len(ready))]
            done.add(task)
            order.append(task)
        paths = split_paths(np.asarray(order), tables.succ)
        assert np.array_equal(propagate_x(paths, f_used), propagate_x(tables.paths, f_used))

    def test_paths_cover_every_task_once_and_seed_from_earlier_paths(self):
        tables = graph_tables(_random_in_tree(60, np.random.default_rng(3), sink_share=0.1))
        seen: set[int] = set()
        for tasks, seed in tables.paths:
            assert seed < 0 or seed in seen
            assert tables.succ[tasks[0]] == seed
            assert all(tables.succ[b] == a for a, b in zip(tasks, tasks[1:]))
            seen.update(tasks.tolist())
        assert sorted(seen) == list(range(60))

    def test_a_chain_is_one_path(self):
        ((tasks, seed),) = graph_tables(linear_chain(30, 3)).paths
        assert seed == -1 and tasks.tolist() == list(range(29, -1, -1))


class TestEmptyKernelInputs:
    """No terms and no cells: the shapes and dtypes callers rely on."""

    def test_scatter_add_rows_without_terms_is_float_zeros(self):
        # np.bincount returns int64 when its weights are empty, as for the
        # rest pairs of a one-task instance; probe_candidates scales the
        # gathered rest periods in place, so they must stay float64.
        empty = np.zeros(0, dtype=np.int64)
        out = scatter_add_rows(empty, empty, np.zeros(0), (1, 3))
        assert out.dtype == np.float64
        assert np.array_equal(out, _loop_scatter_add_rows(empty, empty, [], (1, 3)))

    def test_probe_candidates_without_cells(self):
        inputs = _random_kernel_inputs(0)
        none = np.zeros(0, dtype=np.int64)
        args = (inputs["sums"], np.zeros(0), inputs["x"], inputs["w"], none, none)
        out = probe_candidates(*args)
        assert out.shape == (0,) and out.dtype == np.float64
        assert np.array_equal(out, _loop_probe_candidates(*args))


@st.composite
def _tied_pick_inputs(draw):
    """``(feasible, primary, secondary)`` with few distinct key values.

    Primary keys look like H2's integer ranks or H3's negated, repeated
    heterogeneity (``-0.0`` next to ``0.0``); secondary keys like integer
    ``w`` or tied completion times.
    """
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 9)))
    primary = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0])
    secondary = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 7.0])
    return (
        draw(hnp.arrays(np.bool_, shape)),
        draw(hnp.arrays(np.float64, shape, elements=primary)),
        draw(hnp.arrays(np.float64, shape, elements=secondary)),
    )


@given(inputs=_tied_pick_inputs())
def test_first_feasible_equals_the_lexsort_pick(inputs):
    """The sort-free pick is the first feasible machine of the sorted order."""
    feasible, primary, secondary = inputs
    chosen = first_feasible(feasible, primary, secondary)
    # Rows without a feasible machine are masked out by every caller.
    live = feasible.any(axis=1)
    expected = lexsort_first_feasible(feasible, primary, secondary)
    assert np.array_equal(chosen[live], expected[live])


def _figure_block(figure_id: str) -> BlockChunk:
    """The first sweep point of a figure, at a tier-1-friendly depth."""
    scenario = FIGURES[figure_id].scenario.scaled(repetitions=4, max_points=1)
    return BlockChunk.sample(
        scenario, scenario.sweep_values[:1], RandomStreamFactory(23)
    )


@pytest.fixture(scope="module")
def figure_blocks() -> dict[str, BlockChunk]:
    return {figure_id: _figure_block(figure_id) for figure_id in EQUIVALENCE_FIGURES}


@pytest.fixture(scope="module")
def scalar_references(figure_blocks) -> dict[tuple[str, str], np.ndarray]:
    """Per-instance scalar solves, the reference every batch path must match."""
    references = {}
    for figure_id, block in figure_blocks.items():
        for name in BATCH_HEURISTICS:
            references[(figure_id, name)] = loop_assignments(
                get_heuristic(name), block.instances
            )
    return references


@pytest.mark.parametrize("heuristic", BATCH_HEURISTICS)
@pytest.mark.parametrize("figure_id", EQUIVALENCE_FIGURES)
class TestSolverEquivalence:
    """Heuristic x figure: the batch path is bit-for-bit the scalar path."""

    def test_batch_solve_matches_scalar_reference(
        self, heuristic, figure_id, figure_blocks, scalar_references
    ):
        block = figure_blocks[figure_id]
        batched = kernel_assignments(get_heuristic(heuristic), block.instances)
        assert (batched == scalar_references[(figure_id, heuristic)]).all()

    def test_stacked_periods_match_scalar_periods(
        self, heuristic, figure_id, figure_blocks, scalar_references
    ):
        block = figure_blocks[figure_id]
        assignments = scalar_references[(figure_id, heuristic)]
        expected = [
            period(instance, Mapping(row, instance.num_machines))
            for instance, row in zip(block.instances, assignments)
        ]
        assert np.array_equal(block.stack.periods(assignments), expected)


class TestActivationSeam:
    """``activate_backend`` is how tracing and the benchmark time kernels."""

    def test_activations_nest_and_restore(self):
        outer = replace(NUMPY_BACKEND, name="outer")
        inner = replace(NUMPY_BACKEND, name="inner")
        assert get_backend() is NUMPY_BACKEND
        with activate_backend(outer) as active:
            assert active is outer and get_backend() is outer
            with activate_backend(inner):
                assert get_backend() is inner
            assert get_backend() is outer
        assert get_backend() is NUMPY_BACKEND

    def test_activation_restores_when_the_body_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            with activate_backend(replace(NUMPY_BACKEND, name="wrapper")):
                raise RuntimeError("boom")
        assert get_backend() is NUMPY_BACKEND

    def test_timed_kernels_leave_the_solve_unchanged(self, figure_blocks):
        block = figure_blocks["fig5"]
        heuristic = get_heuristic("H4ls")
        untraced = heuristic.solve_batch(block.instances)
        with trace.capture() as spans:
            with timed_kernels():
                assert get_backend() is not NUMPY_BACKEND
                traced = heuristic.solve_batch(block.instances)
        assert get_backend() is NUMPY_BACKEND
        assert (traced == untraced).all()
        kernels = {r["name"]: r for r in spans if r["name"].startswith("kernel.")}
        assert set(kernels) <= {f"kernel.{name}" for name in KERNEL_NAMES}
        assert kernels["kernel.probe_candidates"]["calls"] > 0

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_timed_wrapper_returns_the_kernel_result(self, name):
        inputs = _random_kernel_inputs(5)
        direct_args = _kernel_args(name, inputs)
        expected = getattr(NUMPY_BACKEND, name)(*direct_args)
        with trace.capture() as spans:
            with timed_kernels():
                timed_args = _kernel_args(name, inputs)
                actual = getattr(get_backend(), name)(*timed_args)
        assert np.array_equal(actual, expected)
        (span,) = [r for r in spans if r["name"] == f"kernel.{name}"]
        assert span["calls"] == 1 and span["backend"] == "numpy"

    def test_kernel_names_are_the_backend_fields(self):
        kernels = [f.name for f in fields(KernelBackend) if f.name != "name"]
        assert list(KERNEL_NAMES) == kernels
        # Each field holds the module's kernel of the same name, the
        # contract a wrapper rebuilt by field name relies on.
        for name in KERNEL_NAMES:
            assert getattr(NUMPY_BACKEND, name) is getattr(backend_mod, name)

    def test_timed_kernels_is_a_no_op_without_tracing(self):
        assert not trace.tracing_active()
        with timed_kernels():
            assert get_backend() is NUMPY_BACKEND
        assert get_backend() is NUMPY_BACKEND
