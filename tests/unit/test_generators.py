"""Unit tests for the random instance generators (repro.generators)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import TypeAssignment
from repro.exceptions import ExperimentError, InvalidApplicationError, InvalidPlatformError
from repro.generators import (
    HIGH_FAILURE_F_RANGE,
    PAPER_F_RANGE,
    PAPER_W_RANGE,
    ScenarioConfig,
    random_chain_application,
    random_failure_rates,
    random_in_tree_application,
    random_processing_times,
    sample_instance,
)
from repro.simulation.rng import RandomStreamFactory


class TestPlatformGenerators:
    def test_paper_ranges(self):
        assert PAPER_W_RANGE == (100.0, 1000.0)
        assert PAPER_F_RANGE == (0.005, 0.02)
        assert HIGH_FAILURE_F_RANGE == (0.0, 0.10)

    def test_processing_times_within_range_and_type_consistent(self, rng):
        types = TypeAssignment([0, 1, 0, 2, 1])
        w = random_processing_times(types, 4, rng)
        assert w.shape == (5, 4)
        assert np.all(w >= 100.0) and np.all(w <= 1000.0)
        assert np.allclose(w[0], w[2])  # same type -> same row
        assert np.allclose(w[1], w[4])

    def test_processing_times_validation(self, rng):
        types = TypeAssignment([0, 1])
        with pytest.raises(InvalidPlatformError):
            random_processing_times(types, 0, rng)
        with pytest.raises(InvalidPlatformError):
            random_processing_times(types, 2, rng, low=-1.0, high=10.0)

    def test_failure_rates_within_range(self, rng):
        f = random_failure_rates(6, 4, rng)
        assert f.shape == (6, 4)
        assert np.all(f >= 0.005) and np.all(f <= 0.02)

    def test_failure_rates_task_dependent(self, rng):
        f = random_failure_rates(5, 3, rng, task_dependent=True)
        assert np.allclose(f, f[:, [0]])

    def test_failure_rates_validation(self, rng):
        with pytest.raises(InvalidPlatformError):
            random_failure_rates(0, 2, rng)
        with pytest.raises(InvalidPlatformError):
            random_failure_rates(2, 2, rng, low=0.5, high=1.5)

    def test_reproducibility(self):
        types = TypeAssignment([0, 1, 0])
        w1 = random_processing_times(types, 3, np.random.default_rng(9))
        w2 = random_processing_times(types, 3, np.random.default_rng(9))
        assert np.array_equal(w1, w2)


class TestApplicationGenerators:
    def test_random_chain_uses_all_types(self, rng):
        app = random_chain_application(12, 4, rng)
        assert app.is_chain()
        assert app.num_types == 4
        assert app.types.used_types() == [0, 1, 2, 3]

    def test_random_chain_reproducible(self):
        a = random_chain_application(10, 3, np.random.default_rng(5))
        b = random_chain_application(10, 3, np.random.default_rng(5))
        assert list(a.types) == list(b.types)

    def test_random_in_tree(self, rng):
        tree = random_in_tree_application(3, (1, 3), 2, rng, shared_tail_length=2)
        assert not tree.is_chain()
        assert len(tree.sources()) == 3
        assert len(tree.sinks()) == 1

    def test_random_in_tree_validation(self, rng):
        with pytest.raises(InvalidApplicationError):
            random_in_tree_application(0, (1, 2), 2, rng)
        with pytest.raises(InvalidApplicationError):
            random_in_tree_application(2, (3, 1), 2, rng)


class TestScenarioConfig:
    def _config(self, **overrides) -> ScenarioConfig:
        defaults = dict(
            name="test",
            num_machines=6,
            num_types=3,
            sweep="tasks",
            sweep_values=(6, 10, 14),
            repetitions=2,
        )
        defaults.update(overrides)
        return ScenarioConfig(**defaults)

    def test_dimensions_for_task_sweep(self):
        config = self._config()
        assert config.dimensions_at(10) == (10, 3, 6)

    def test_dimensions_for_type_sweep(self):
        config = self._config(sweep="types", num_tasks=20, sweep_values=(2, 4))
        assert config.dimensions_at(4) == (20, 4, 6)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            self._config(sweep="bogus")
        with pytest.raises(ExperimentError):
            self._config(sweep_values=())
        with pytest.raises(ExperimentError):
            self._config(repetitions=0)
        with pytest.raises(ExperimentError):
            ScenarioConfig(
                name="x",
                num_machines=4,
                num_types=2,
                sweep="types",
                sweep_values=(2,),
            )

    def test_scaled_reduces_points_and_reps(self):
        config = self._config(sweep_values=tuple(range(10, 101, 10)), repetitions=30)
        scaled = config.scaled(repetitions=3, max_points=4)
        assert scaled.repetitions == 3
        assert len(scaled.sweep_values) == 4
        assert scaled.sweep_values[0] == 10
        assert scaled.sweep_values[-1] == 100

    def test_scaled_noop(self):
        config = self._config()
        assert config.scaled().sweep_values == config.sweep_values

    def test_sample_instance_dimensions(self):
        config = self._config()
        streams = RandomStreamFactory(0)
        inst = sample_instance(config, 10, 0, streams)
        assert inst.num_tasks == 10
        assert inst.num_types == 3
        assert inst.num_machines == 6
        assert inst.application.is_chain()

    def test_sample_instance_reproducible(self):
        config = self._config()
        a = sample_instance(config, 10, 1, RandomStreamFactory(3))
        b = sample_instance(config, 10, 1, RandomStreamFactory(3))
        assert np.array_equal(a.processing_times, b.processing_times)
        assert np.array_equal(a.failure_rates, b.failure_rates)
        assert list(a.application.types) == list(b.application.types)

    def test_sample_instance_varies_with_repetition(self):
        config = self._config()
        streams = RandomStreamFactory(3)
        a = sample_instance(config, 10, 0, streams)
        b = sample_instance(config, 10, 1, streams)
        assert not np.array_equal(a.processing_times, b.processing_times)

    def test_sample_instance_infeasible_dimensions(self):
        config = self._config(num_types=5, sweep_values=(3,))
        with pytest.raises(ExperimentError):
            sample_instance(config, 3, 0, RandomStreamFactory(0))
        big_types = self._config(num_machines=2, num_types=3, sweep_values=(10,))
        with pytest.raises(ExperimentError):
            sample_instance(big_types, 10, 0, RandomStreamFactory(0))

    def test_task_dependent_failures_flag(self):
        config = self._config(task_dependent_failures=True)
        inst = sample_instance(config, 10, 0, RandomStreamFactory(1))
        assert inst.failures.is_task_dependent()
