"""Unit tests for curve-provider resolution and chunk evaluation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ExperimentError, InvalidInstanceError
from repro.experiments.providers import (
    MIP_LABEL,
    OTO_LABEL,
    BlockChunk,
    BlockResult,
    CellBlock,
    HeuristicProvider,
    LocalSearchProvider,
    MilpProvider,
    OneToOneProvider,
    resolve_curves,
    resolve_provider,
)
from repro.generators import ScenarioConfig
from repro.heuristics import get_heuristic
from repro.simulation.rng import RandomStreamFactory


def _scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="prov-test",
        num_machines=5,
        num_types=2,
        sweep="tasks",
        sweep_values=(6,),
        repetitions=3,
        heuristics=("H2", "H4w"),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _chunk(scenario=None, sweep_value=6, seed=7) -> BlockChunk:
    """A one-point chunk: the block of ``sweep_value``, stacked."""
    scenario = scenario or _scenario()
    return BlockChunk.sample(scenario, (sweep_value,), RandomStreamFactory(seed))


def _scores(provider, chunk: BlockChunk) -> BlockResult:
    """``provider``'s result on a one-point chunk."""
    (result,) = provider.evaluate(chunk)
    return result


class TestCellBlock:
    def test_sample_stacks_all_repetitions(self):
        chunk = _chunk()
        (block,) = chunk.blocks
        assert block.repetitions == 3
        assert chunk.instances == block.instances
        assert chunk.stack.num_instances == 3
        assert chunk.stack.num_tasks == 6
        assert chunk.stack.num_machines == 5

    def test_sampled_instances_match_the_per_cell_draw(self):
        from repro.generators.scenarios import sample_instance

        scenario = _scenario()
        block = CellBlock.sample(scenario, 6, RandomStreamFactory(7))
        for repetition, instance in enumerate(block.instances):
            reference = sample_instance(
                scenario, 6, repetition, RandomStreamFactory(7)
            )
            assert (instance.processing_times == reference.processing_times).all()
            assert (instance.failure_rates == reference.failure_rates).all()


class TestBlockChunk:
    def _types_scenario(self) -> ScenarioConfig:
        return _scenario(
            num_types=None, num_tasks=6, sweep="types", sweep_values=(2, 3)
        )

    def test_rows_keep_their_point_stream(self):
        chunk = BlockChunk.sample(self._types_scenario(), (2, 3), RandomStreamFactory(7))
        rng = chunk.rng_for("heuristic/H1")
        streams = RandomStreamFactory(7)
        for row, (point, repetition) in enumerate(
            (point, repetition) for point in (2, 3) for repetition in range(3)
        ):
            expected = streams.stream(f"heuristic/H1/{point}", repetition).random()
            assert rng(row).random() == expected

    def test_results_cut_periods_and_failures_per_block(self):
        chunk = BlockChunk.sample(self._types_scenario(), (2, 3), RandomStreamFactory(7))
        periods = np.arange(6, dtype=np.float64)
        failed = np.array([True, False, False, True, True, False])
        first, second = chunk.results("X", periods, failed)
        assert (first.periods == [0, 1, 2]).all() and first.failures == 1
        assert (second.periods == [3, 4, 5]).all() and second.failures == 2
        assert [r.failures for r in chunk.results("X", periods)] == [0, 0]

    def test_stacking_points_of_different_shape_raises(self):
        with pytest.raises(InvalidInstanceError):
            BlockChunk.sample(_scenario(sweep_values=(6, 7)), (6, 7), RandomStreamFactory(7))


class TestHeuristicProvider:
    def test_block_periods_match_scalar_solve(self):
        chunk = _chunk()
        result = _scores(HeuristicProvider("H4w"), chunk)
        streams = RandomStreamFactory(7)
        for repetition, instance in enumerate(chunk.instances):
            rng = streams.stream("heuristic/H4w/6", repetition)
            expected = get_heuristic("H4w").solve(instance, rng).period
            assert result.periods[repetition] == expected  # bit-for-bit

    def test_randomized_heuristic_uses_the_runner_streams(self):
        chunk = _chunk(_scenario(heuristics=("H1",)))
        a = _scores(HeuristicProvider("H1"), chunk)
        b = _scores(HeuristicProvider("H1"), chunk)
        assert (a.periods == b.periods).all()

    def test_label_keeps_requested_spelling(self):
        assert HeuristicProvider("h4w").label == "h4w"


class TestLocalSearchProvider:
    def test_never_above_base(self):
        chunk = _chunk(_scenario(repetitions=5))
        base = _scores(HeuristicProvider("H4w"), chunk)
        refined = _scores(LocalSearchProvider("H4w"), chunk)
        assert refined.label == "H4w+ls"
        assert (refined.periods <= base.periods).all()

    def test_matches_h4ls_heuristic_curve(self):
        chunk = _chunk(_scenario(repetitions=4))
        via_provider = _scores(LocalSearchProvider("H4w"), chunk)
        via_heuristic = _scores(HeuristicProvider("H4ls"), chunk)
        np.testing.assert_allclose(
            via_provider.periods, via_heuristic.periods, rtol=1e-9
        )


class TestExactProviders:
    def test_milp_is_a_lower_bound(self):
        chunk = _chunk(_scenario(repetitions=2, sweep_values=(4,)), sweep_value=4)
        milp = _scores(MilpProvider(time_limit=20.0), chunk)
        heur = _scores(HeuristicProvider("H4w"), chunk)
        assert milp.label == MIP_LABEL
        assert milp.failures == 0
        assert (milp.periods <= heur.periods + 1e-6).all()

    def test_one_to_one_runs_on_task_dependent_failures(self):
        scenario = _scenario(
            num_machines=8,
            repetitions=2,
            sweep_values=(4,),
            task_dependent_failures=True,
        )
        result = _scores(OneToOneProvider(), _chunk(scenario, sweep_value=4))
        assert result.label == OTO_LABEL
        assert np.isfinite(result.periods).all()

    def test_resolve_provider_sets_milp_time_limit(self):
        assert resolve_provider("MIP", milp_time_limit=5.0).time_limit == 5.0
        assert resolve_provider("MIP").time_limit == MilpProvider().time_limit


class TestRegistryAndResolution:
    def test_builtin_providers_registered(self):
        # The exact baselines resolve by label, case-insensitively.
        for label in (MIP_LABEL, MIP_LABEL.lower()):
            assert isinstance(resolve_provider(label), MilpProvider)
        for label in (OTO_LABEL, OTO_LABEL.upper()):
            assert isinstance(resolve_provider(label), OneToOneProvider)
        assert resolve_provider("mip").label == MIP_LABEL

    def test_resolution_order(self):
        assert isinstance(resolve_provider("MIP"), MilpProvider)
        assert isinstance(resolve_provider("OtO"), OneToOneProvider)
        assert isinstance(resolve_provider("H4w"), HeuristicProvider)
        assert isinstance(resolve_provider("H2+ls"), LocalSearchProvider)

    def test_unknown_curve_rejected(self):
        with pytest.raises(ExperimentError) as excinfo:
            resolve_provider("nope")
        # The error still lists the curves that do resolve.
        for known in (MIP_LABEL, OTO_LABEL, "H4w", "+ls"):
            assert known in str(excinfo.value)
        with pytest.raises(ExperimentError):
            resolve_provider("nope+ls")

    def test_resolve_curves_order_and_duplicates(self):
        scenario = _scenario()
        labels = resolve_curves(
            replace(scenario, include_one_to_one=True),
            include_milp=True,
            extra_curves=("H4ls",),
        )
        assert labels == ["H2", "H4w", "H4ls", MIP_LABEL, OTO_LABEL]
        # A curve listed both in the scenario and as an extra is
        # deduplicated — case-insensitively, like provider resolution.
        assert resolve_curves(scenario, include_milp=False, extra_curves=("H4w",)) == [
            "H2",
            "H4w",
        ]
        assert resolve_curves(scenario, include_milp=False, extra_curves=("h4w",)) == [
            "H2",
            "H4w",
        ]
        # Labels are validated without building providers.
        with pytest.raises(ExperimentError, match="unknown curve 'nope'"):
            resolve_curves(scenario, extra_curves=("nope",))
