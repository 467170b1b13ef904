"""Package-level sanity tests (public API surface, exceptions, version)."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_reexports(self):
        assert repro.Mapping is not None
        assert repro.ProblemInstance is not None
        assert callable(repro.linear_chain)
        assert callable(repro.evaluate)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.exact
        import repro.experiments
        import repro.generators
        import repro.heuristics
        import repro.simulation

        for module in (
            repro.analysis,
            repro.exact,
            repro.experiments,
            repro.generators,
            repro.heuristics,
            repro.simulation,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in exceptions.__all__:
            exc = getattr(exceptions, name)
            assert issubclass(exc, exceptions.ReproError)

    def test_specific_parents(self):
        assert issubclass(exceptions.MappingRuleViolation, exceptions.InvalidMappingError)

    def test_catching_base_class(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.SimulationError("boom")

    def test_quickstart_docstring_example(self):
        # The module docstring contains a doctest-style example; run its gist.
        import numpy as np

        from repro import FailureModel, Platform, ProblemInstance, linear_chain
        from repro.heuristics import get_heuristic

        app = linear_chain(6, num_types=2)
        rng = np.random.default_rng(0)
        w = rng.uniform(100, 1000, size=(2, 4))[list(app.types), :]
        f = rng.uniform(0.005, 0.02, size=(6, 4))
        instance = ProblemInstance(app, Platform(w), FailureModel(f))
        result = get_heuristic("H4w").solve(instance)
        assert result.period > 0
