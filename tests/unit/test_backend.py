"""The pluggable kernel-backend registry and its bit-for-bit contract.

Three batteries:

* registry semantics — selection order (``set_backend`` > the
  ``REPRO_BACKEND`` environment variable > auto-detection), unknown
  names, and the single-warning numpy fallback when the numba backend
  cannot load;
* kernel-level equivalence — every available backend's six kernels
  against the numpy reference on randomized inputs, exact equality;
* solver-level equivalence — every available backend x every
  batch-capable heuristic on scaled fig5/fig9/fig10 sweep points,
  bit-for-bit against the per-instance scalar path run on the numpy
  reference backend.

The numba batteries run wherever ``pip install -e .[numba]`` happened
(the CI ``backend-numba`` job); on numpy-only installs
``available_backends()`` simply yields fewer parameters.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.backend as backend_mod
from repro.backend import (
    BACKEND_ENV_VAR,
    available_backends,
    backend_info,
    get_backend,
    numba_status,
    registered_backends,
    set_backend,
    use_backend,
)
from repro.backend import numpy_backend
from repro.exceptions import ReproError
from repro.experiments.figures import FIGURES
from repro.experiments.providers import CellBlock, HeuristicProvider
from repro.simulation.rng import RandomStreamFactory
from tests.helpers import lexsort_first_feasible

#: Every batch-capable heuristic of the paper set (H1 is randomized and
#: has no lock-step kernel; the scalar fallback path covers it).
BATCH_HEURISTICS = ("H2", "H3", "H4", "H4w", "H4f", "H4ls")

#: Figures whose shapes the solver-level battery samples (task sweep at
#: m=50, types sweep at n=m=100, the small-platform tasks sweep).
EQUIVALENCE_FIGURES = ("fig5", "fig9", "fig10")


@pytest.fixture
def registry_state(monkeypatch):
    """Isolate the module-level backend state for one test."""
    monkeypatch.setattr(backend_mod, "_INSTANCES", dict(backend_mod._INSTANCES))
    monkeypatch.setattr(backend_mod, "_ACTIVE", None)
    monkeypatch.setattr(backend_mod, "_EXPLICIT", None)
    monkeypatch.setattr(backend_mod, "_WARNED", set())
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert registered_backends() == ["numpy", "numba"]

    def test_numpy_is_always_available(self):
        assert "numpy" in available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError):
            backend_mod.register_backend("numpy", numpy_backend.make_backend)

    def test_auto_detection_matches_numba_presence(self, registry_state):
        expected = "numba" if numba_status()[0] else "numpy"
        assert get_backend().name == expected

    def test_env_var_selects_backend(self, registry_state, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"

    def test_unknown_env_var_raises(self, registry_state, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(ReproError, match="unknown kernel backend"):
            get_backend()

    def test_set_backend_overrides_env(self, registry_state, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        assert set_backend("numpy").name == "numpy"
        assert get_backend().name == "numpy"

    def test_set_backend_unknown_name_raises(self, registry_state):
        with pytest.raises(ReproError, match="unknown kernel backend"):
            set_backend("fortran")

    def test_use_backend_restores_previous(self, registry_state):
        set_backend("numpy")
        with use_backend("numpy") as active:
            assert active.name == "numpy"
        assert get_backend().name == "numpy"

    def test_backend_info_shape(self, registry_state):
        info = backend_info()
        assert set(info) == {"name", "registered", "numba"}
        assert info["name"] in info["registered"]
        assert set(info["numba"]) == {"available", "version"}

    def test_broken_numba_falls_back_with_single_warning(
        self, registry_state, monkeypatch
    ):
        # A poisoned sys.modules entry makes `from numba import njit`
        # raise whether or not numba is actually installed.
        monkeypatch.setitem(sys.modules, "numba", None)
        backend_mod._INSTANCES.pop("numba", None)
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert set_backend("numba").name == "numpy"
        # Selecting it again must not warn a second time.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert set_backend("numba").name == "numpy"
        assert caught == []

    def test_auto_detection_is_silent_without_numba(
        self, registry_state, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "numba", None)
        backend_mod._INSTANCES.pop("numba", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_backend().name == "numpy"
        assert caught == []


def _random_kernel_inputs(seed: int, R: int = 7, n: int = 11, m: int = 6):
    rng = np.random.default_rng(seed)
    order = np.arange(n - 1, -1, -1, dtype=np.int64)  # reverse of a chain
    succ = np.array([t + 1 for t in range(n - 1)] + [-1], dtype=np.int64)
    f_used = rng.uniform(0.01, 0.3, size=(R, n))
    assignments = rng.integers(0, m, size=(R, n), dtype=np.int64)
    contributions = rng.uniform(0.1, 5.0, size=(R, n))
    base = rng.uniform(0.0, 10.0, size=(R, m))
    rest = rng.uniform(0.0, 10.0, size=(R, m))
    ratios = rng.uniform(0.5, 2.0, size=(R, m))
    x_task = rng.uniform(1.0, 3.0, size=R)
    w_task = rng.uniform(0.1, 5.0, size=(R, m))
    # Few distinct key values, so the pick's tie-breaks are exercised.
    primary = rng.integers(0, 3, size=(R, m)).astype(np.float64)
    secondary = rng.integers(0, 3, size=(R, m)).astype(np.float64)
    feasible = rng.random(size=(R, m)) < 0.4
    feasible[0, :] = False  # exercise the no-feasible-machine convention
    return {
        "order": order,
        "succ": succ,
        "f_used": f_used,
        "assignments": assignments,
        "contributions": contributions,
        "m": m,
        "base": base,
        "rest": rest,
        "ratios": ratios,
        "x_task": x_task,
        "w_task": w_task,
        "primary": primary,
        "secondary": secondary,
        "feasible": feasible,
    }


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("seed", (0, 1, 2))
class TestKernelEquivalence:
    """Each backend kernel vs the numpy reference, exact equality."""

    def test_propagate_x(self, backend_name, seed):
        inputs = _random_kernel_inputs(seed)
        backend = get_backend(backend_name)
        expected = numpy_backend.propagate_x(
            inputs["order"], inputs["succ"], inputs["f_used"]
        )
        actual = backend.propagate_x(
            inputs["order"], inputs["succ"], inputs["f_used"]
        )
        assert np.array_equal(actual, expected)

    def test_scatter_periods(self, backend_name, seed):
        inputs = _random_kernel_inputs(seed)
        backend = get_backend(backend_name)
        expected = numpy_backend.scatter_periods(
            inputs["assignments"], inputs["contributions"], inputs["m"]
        )
        actual = backend.scatter_periods(
            inputs["assignments"], inputs["contributions"], inputs["m"]
        )
        assert np.array_equal(actual, expected)

    def test_scatter_add_rows(self, backend_name, seed):
        inputs = _random_kernel_inputs(seed)
        backend = get_backend(backend_name)
        expected = inputs["base"].copy()
        cols = inputs["assignments"][:, : inputs["m"]] % inputs["m"]
        vals = inputs["contributions"][:, : inputs["m"]]
        numpy_backend.scatter_add_rows(expected, cols, vals)
        actual = inputs["base"].copy()
        backend.scatter_add_rows(actual, cols, vals)
        assert np.array_equal(actual, expected)

    def test_critical_mask(self, backend_name, seed):
        inputs = _random_kernel_inputs(seed)
        backend = get_backend(backend_name)
        periods = numpy_backend.scatter_periods(
            inputs["assignments"], inputs["contributions"], inputs["m"]
        )
        expected = numpy_backend.critical_mask(periods, 1e-9)
        actual = backend.critical_mask(periods, 1e-9)
        assert np.array_equal(actual, expected)

    def test_probe_candidates(self, backend_name, seed):
        inputs = _random_kernel_inputs(seed)
        backend = get_backend(backend_name)
        args = (
            inputs["base"],
            inputs["rest"],
            inputs["ratios"],
            inputs["x_task"],
            inputs["w_task"],
        )
        assert np.array_equal(
            backend.probe_candidates(*args),
            numpy_backend.probe_candidates(*args),
        )

    def test_first_feasible(self, backend_name, seed):
        inputs = _random_kernel_inputs(seed)
        backend = get_backend(backend_name)
        args = (inputs["feasible"], inputs["primary"], inputs["secondary"])
        assert np.array_equal(
            backend.first_feasible(*args), numpy_backend.first_feasible(*args)
        )


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


@pytest.mark.parametrize("backend_name", available_backends())
@given(inputs=_tied_pick_inputs())
def test_first_feasible_equals_the_lexsort_pick(backend_name, inputs):
    """The sort-free pick is the first feasible machine of the sorted order."""
    feasible, primary, secondary = inputs
    chosen = get_backend(backend_name).first_feasible(feasible, primary, secondary)
    # Rows without a feasible machine are masked out by every caller.
    live = feasible.any(axis=1)
    expected = lexsort_first_feasible(feasible, primary, secondary)
    assert np.array_equal(chosen[live], expected[live])


def _figure_block(figure_id: str) -> CellBlock:
    """The first sweep point of a figure, at a tier-1-friendly depth."""
    scenario = FIGURES[figure_id].scenario.scaled(repetitions=4, max_points=1)
    return CellBlock.sample(
        scenario, scenario.sweep_values[0], RandomStreamFactory(23)
    )


@pytest.fixture(scope="module")
def figure_blocks() -> dict[str, CellBlock]:
    return {figure_id: _figure_block(figure_id) for figure_id in EQUIVALENCE_FIGURES}


@pytest.fixture(scope="module")
def scalar_references(figure_blocks) -> dict[tuple[str, str], np.ndarray]:
    """Per-instance scalar solves on the numpy reference backend."""
    references = {}
    with use_backend("numpy"):
        for figure_id, block in figure_blocks.items():
            for name in BATCH_HEURISTICS:
                provider = HeuristicProvider(name, batch=False)
                references[(figure_id, name)] = provider.solve_block(block)
    return references


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("heuristic", BATCH_HEURISTICS)
@pytest.mark.parametrize("figure_id", EQUIVALENCE_FIGURES)
class TestSolverEquivalence:
    """Backend x heuristic x figure: bit-for-bit vs the scalar path."""

    def test_batch_solve_matches_scalar_reference(
        self, backend_name, heuristic, figure_id, figure_blocks, scalar_references
    ):
        block = figure_blocks[figure_id]
        with use_backend(backend_name):
            batched = HeuristicProvider(heuristic, batch=True).solve_block(block)
        assert (batched == scalar_references[(figure_id, heuristic)]).all()

    def test_periods_match_across_backends(
        self, backend_name, heuristic, figure_id, figure_blocks, scalar_references
    ):
        block = figure_blocks[figure_id]
        assignments = scalar_references[(figure_id, heuristic)]
        with use_backend("numpy"):
            expected = block.stack.periods(assignments)
        with use_backend(backend_name):
            actual = block.stack.periods(assignments)
        assert np.array_equal(actual, expected)
