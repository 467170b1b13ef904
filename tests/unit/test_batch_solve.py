"""Unit tests of the batch solve layer.

The contract: for every heuristic implementing the
:class:`~repro.heuristics.BatchHeuristic` protocol, ``solve_batch`` over a
block of structurally identical instances returns, row for row, exactly
the assignment that ``solve_mapping`` produces on the corresponding
instance — bit for bit, including local-search move sequences.  The
binary-search heuristics (H2, H3) have no lock-step kernel: they run
per instance and must still return the sequential rows.  A
second battery covers the block refinement, the
provider-level wiring (batch/loop route, validation, fallback) and the
hoisted binary-search period bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MappingRuleViolation, ReproError
from repro.experiments.providers import (
    BlockChunk,
    HeuristicProvider,
    LocalSearchProvider,
)
from repro.generators import ScenarioConfig
from repro.heuristics import get_heuristic, supports_batch
from repro.heuristics.base import BATCH_MIN_ROWS, BatchAssignmentState
from repro.heuristics.binary_search import (
    HeterogeneityBinarySearchHeuristic,
    RankBinarySearchHeuristic,
)
from repro.heuristics.local_search import (
    refine_specialized,
    refine_specialized_batch,
)
from repro.simulation.rng import RandomStreamFactory
from tests.helpers import kernel_assignments

BATCHABLE = ("H4", "H4w", "H4f", "H4ls")

#: Every deterministic paper heuristic: the batchable ones plus H2/H3,
#: which run per instance.
DETERMINISTIC = ("H2", "H3", *BATCHABLE)


def make_chunk(
    *, num_machines=8, num_types=3, num_tasks=12, repetitions=5, seed=3,
    task_dependent_failures=False,
) -> BlockChunk:
    """One sweep point's block, as the one-point chunk providers score."""
    scenario = ScenarioConfig(
        name="batch-unit",
        num_machines=num_machines,
        num_types=num_types,
        sweep="tasks",
        sweep_values=(num_tasks,),
        repetitions=repetitions,
        heuristics=("H4w",),
        task_dependent_failures=task_dependent_failures,
    )
    return BlockChunk.sample(scenario, (num_tasks,), RandomStreamFactory(seed))


def stacked_assignments(heuristic, chunk: BlockChunk) -> np.ndarray:
    return kernel_assignments(heuristic, chunk.instances)


def sequential_assignments(name: str, chunk: BlockChunk) -> np.ndarray:
    return np.stack(
        [
            get_heuristic(name).solve_mapping(instance)[0].as_array
            for instance in chunk.instances
        ]
    )


class TestProtocol:
    @pytest.mark.parametrize("name", BATCHABLE)
    def test_paper_heuristics_support_batch(self, name):
        assert supports_batch(get_heuristic(name))

    @pytest.mark.parametrize(
        "name", ["H1", "H2", "H3", "RandomUniform", "RoundRobin", "H4-forward"]
    )
    def test_non_batch_heuristics_are_flagged(self, name):
        assert not supports_batch(get_heuristic(name))


class TestSolveBatchEquivalence:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_matches_sequential_solves(self, name):
        chunk = make_chunk()
        batch = stacked_assignments(get_heuristic(name), chunk)
        assert batch.shape == (len(chunk.instances), chunk.stack.num_tasks)
        assert (batch == sequential_assignments(name, chunk)).all()

    @pytest.mark.parametrize("name", ["H2", "H3", "H4", "H4ls"])
    def test_matches_sequential_when_machines_barely_suffice(self, name):
        # m close to p exercises the free-machine feasibility guard rows.
        chunk = make_chunk(num_machines=5, num_types=4, num_tasks=10, seed=11)
        batch = stacked_assignments(get_heuristic(name), chunk)
        assert (batch == sequential_assignments(name, chunk)).all()

    @pytest.mark.parametrize("name", ["H2", "H3"])
    def test_matches_sequential_with_task_dependent_failures(self, name):
        chunk = make_chunk(task_dependent_failures=True, seed=7)
        batch = stacked_assignments(get_heuristic(name), chunk)
        assert (batch == sequential_assignments(name, chunk)).all()

    def test_single_row_block(self):
        chunk = make_chunk(repetitions=1)
        for name in ("H2", "H4w"):
            batch = stacked_assignments(get_heuristic(name), chunk)
            assert (batch == sequential_assignments(name, chunk)).all()


class TestBatchAssignmentState:
    def test_rejects_empty_instance_list(self):
        with pytest.raises(ReproError):
            BatchAssignmentState([])

    def test_rejects_mismatched_structure(self):
        small = make_chunk(num_tasks=10, repetitions=2)
        big = make_chunk(num_tasks=12, repetitions=2)
        with pytest.raises(ReproError):
            BatchAssignmentState([small.instances[0], big.instances[0]])


class TestRefineBatch:
    def test_refinement_matches_scalar_descents(self):
        chunk = make_chunk(num_machines=10, num_types=2, num_tasks=20, seed=2)
        seeds = get_heuristic("H4w").solve_batch(chunk.instances)
        refined, moves = refine_specialized_batch(chunk.instances, seeds)
        for repetition, instance in enumerate(chunk.instances):
            mapping, scalar_moves = refine_specialized(instance, seeds[repetition])
            assert moves[repetition] == scalar_moves
            assert (refined[repetition] == mapping.as_array).all()

    @pytest.mark.parametrize("cap", [0, 1])
    def test_move_cap_matches_scalar(self, cap):
        chunk = make_chunk(num_machines=10, num_types=2, num_tasks=20, seed=2)
        seeds = get_heuristic("H4w").solve_batch(chunk.instances)
        refined, moves = refine_specialized_batch(chunk.instances, seeds, max_moves=cap)
        assert (moves <= cap).all()
        for repetition, instance in enumerate(chunk.instances):
            mapping, scalar_moves = refine_specialized(
                instance, seeds[repetition], max_moves=cap
            )
            assert moves[repetition] == scalar_moves
            assert (refined[repetition] == mapping.as_array).all()


class TestPerInstanceInputs:
    def test_walk_inputs_are_built_once_per_instance(self, monkeypatch):
        first, second = make_chunk().instances[:2]
        heuristic = RankBinarySearchHeuristic()
        built = []
        original = heuristic.build_walk_inputs

        def counting(instance):
            built.append(instance)
            return original(instance)

        monkeypatch.setattr(heuristic, "build_walk_inputs", counting)
        up = np.ones(first.num_machines, dtype=bool)
        up[0] = False
        heuristic.solve_mapping(first)
        heuristic.solve_mapping(first, up=up)
        assert built == [first]
        heuristic.solve_mapping(second)
        heuristic.solve_mapping(first)
        assert built == [first, second, first]

    def test_solve_computes_the_bound_exactly_once(self, monkeypatch):
        import repro.heuristics.binary_search as module

        calls = []
        original = module.worst_case_period_bound

        def counting(instance, up=None):
            calls.append(instance)
            return original(instance, up)

        monkeypatch.setattr(module, "worst_case_period_bound", counting)
        instance = make_chunk().instances[0]
        module.RankBinarySearchHeuristic().solve_mapping(instance)
        assert len(calls) == 1

    def test_subclass_overriding_prepare_without_super_still_solves(self):
        # prepare() is a plain hook for the ranking data (H3's
        # heterogeneity): the bound is the driver's, so a subclass need
        # not call super().
        class LegacyH3(HeterogeneityBinarySearchHeuristic):
            def prepare(self, instance):  # no super().prepare()
                w = instance.processing_times
                centred = w - w.mean(axis=0)
                self._heterogeneity = np.sqrt((centred * centred).mean(axis=0))

        instance = make_chunk().instances[0]
        legacy = LegacyH3().solve_mapping(instance)[0]
        modern = HeterogeneityBinarySearchHeuristic().solve_mapping(instance)[0]
        assert (legacy.as_array == modern.as_array).all()


class TestProviderWiring:
    def test_provider_matches_sequential_solves(self):
        chunk = make_chunk(repetitions=4)
        for name in ("H2", "H4w", "H4ls"):
            solved = HeuristicProvider(name).solve(chunk)
            assert (solved == sequential_assignments(name, chunk)).all(), name

    def test_auto_threshold_switches_on_block_depth(self, monkeypatch):
        calls = []
        heuristic = get_heuristic("H4w")
        original = type(heuristic).solve_batch

        def counting(self, instances):
            calls.append(len(instances))
            return original(self, instances)

        monkeypatch.setattr(type(heuristic), "solve_batch", counting)
        small = make_chunk(repetitions=BATCH_MIN_ROWS - 1)
        HeuristicProvider("H4w").solve(small)
        assert calls == []
        big = make_chunk(repetitions=BATCH_MIN_ROWS)
        HeuristicProvider("H4w").solve(big)
        assert calls == [BATCH_MIN_ROWS]

    def test_fallback_for_heuristic_without_solve_batch(self):
        chunk = make_chunk(repetitions=BATCH_MIN_ROWS)
        provider = HeuristicProvider("H1")
        result = provider.evaluate(chunk)[0]
        assert result.periods.shape == (len(chunk.instances),)
        assert np.isfinite(result.periods).all()

    def test_batch_results_are_rule_validated(self, monkeypatch):
        chunk = make_chunk(repetitions=4)
        heuristic = get_heuristic("H4w")

        def corrupted(self, instances):
            # Everything on machine 0: violates the specialized rule for
            # any block whose rows use more than one type.
            return np.zeros((len(instances), instances[0].num_tasks), dtype=np.int64)

        monkeypatch.setattr(type(heuristic), "solve_batch", corrupted)
        with pytest.raises(MappingRuleViolation):
            HeuristicProvider("H4w").solve(chunk)

    def test_local_search_provider_matches_scalar_descents(self):
        chunk = make_chunk(num_machines=10, num_types=2, num_tasks=15, repetitions=4)
        result = LocalSearchProvider("H4w").evaluate(chunk)[0]
        seeds = sequential_assignments("H4w", chunk)
        refined = np.stack(
            [
                refine_specialized(instance, seed)[0].as_array
                for instance, seed in zip(chunk.instances, seeds)
            ]
        )
        expected = np.minimum(chunk.stack.periods(refined), chunk.stack.periods(seeds))
        assert (result.periods == expected).all()
