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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, FailureModel, Platform, ProblemInstance, TypeAssignment
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
from repro.heuristics.greedy import solve_family
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


@st.composite
def _fused_blocks(draw):
    """``R`` in 3..12 instances on one precedence graph, plus a non-empty
    subset of the H4 family in any order.

    Tie-heavy on purpose: ``w`` is a few integers per type, and the
    platform is often barely feasible (``m = p``).  Failure rates are
    per cell or task-dependent (``f[i, u] = f[i]``).
    """
    n = draw(st.integers(1, 14))
    p = draw(st.integers(1, min(n, 4)))
    m = draw(st.sampled_from([p, p, p + 1, p + 3]))
    successors = [draw(st.none() | st.integers(i + 1, n - 1)) for i in range(n - 1)]
    chain = draw(st.booleans())
    edges = [(i, j) for i, j in enumerate(successors) if j is not None]
    task_dependent = draw(st.booleans())
    rate = st.sampled_from([0.0, 0.01, 0.05, 0.2])
    instances = []
    for _ in range(draw(st.integers(3, 12))):
        types = draw(st.permutations(range(p)))
        types += draw(st.lists(st.integers(0, p - 1), min_size=n - p, max_size=n - p))
        assignment = TypeAssignment(types, num_types=p)
        app = Application.chain(assignment) if chain else Application(assignment, edges)
        grid = st.lists(st.integers(1, 3), min_size=m, max_size=m)
        per_type_w = np.asarray(draw(st.lists(grid, min_size=p, max_size=p)), dtype=np.float64)
        if task_dependent:
            f = np.repeat(
                np.asarray(draw(st.lists(rate, min_size=n, max_size=n)))[:, np.newaxis], m, axis=1
            )
        else:
            cells = st.lists(st.lists(rate, min_size=m, max_size=m), min_size=n, max_size=n)
            f = np.asarray(draw(cells))
        w = per_type_w[np.asarray(types)]
        instances.append(ProblemInstance(app, Platform(w), FailureModel(f)))
    names = draw(st.lists(st.sampled_from(["H4", "H4w", "H4f"]), min_size=1, max_size=3, unique=True))
    return instances, names


class TestFusedSolve:
    @settings(max_examples=150)
    @given(block=_fused_blocks())
    def test_each_block_equals_its_own_solves(self, block):
        """Block ``h`` of one fused pass is heuristic ``h``'s own
        ``solve_batch`` and its per-instance ``solve_mapping``."""
        instances, names = block
        heuristics = [get_heuristic(name) for name in names]
        first, *fused = heuristics
        rows = first.solve_batch(instances, fused=fused)
        depth = len(instances)
        assert rows.shape == (len(names) * depth, instances[0].num_tasks)
        solved = solve_family(heuristics, instances)
        assert list(solved) == names
        for h, heuristic in enumerate(heuristics):
            own = rows[h * depth : (h + 1) * depth]
            assert (own == heuristic.solve_batch(instances)).all(), heuristic.name
            assert (own == solved[heuristic.name]).all(), heuristic.name
            for row, instance in zip(own, instances):
                assert (row == heuristic.solve_mapping(instance)[0].as_array).all()

    def test_below_the_batch_depth_nothing_is_solved(self):
        chunk = make_chunk(repetitions=BATCH_MIN_ROWS - 1)
        assert solve_family([get_heuristic("H4"), get_heuristic("H4w")], chunk.instances) == {}

    def test_an_overridden_solve_batch_keeps_its_own_kernel(self):
        class Custom(type(get_heuristic("H4w"))):
            def solve_batch(self, instances):
                return super().solve_batch(instances)

        chunk = make_chunk()
        solved = solve_family([get_heuristic("H4"), Custom()], chunk.instances)
        assert list(solved) == ["H4"]

    def test_a_chunk_sampled_with_its_greedy_curves_holds_their_blocks(self):
        scenario = ScenarioConfig(
            name="batch-unit",
            num_machines=8,
            num_types=3,
            sweep="tasks",
            sweep_values=(12,),
            repetitions=5,
            heuristics=("H4w",),
        )
        greedy = [get_heuristic("H4f"), get_heuristic("H4w"), get_heuristic("H4f")]
        chunk = BlockChunk.sample(scenario, (12,), RandomStreamFactory(3), greedy)
        assert list(chunk.solved) == ["H4f", "H4w"]
        for name in ("H4f", "H4w"):
            expected = sequential_assignments(name, chunk)
            assert (chunk.solved[name] == expected).all()
            assert (HeuristicProvider(name).solve(chunk) == expected).all()


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
