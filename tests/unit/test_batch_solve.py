"""Unit tests of the batch solve layer.

The contract: for every heuristic implementing the
:class:`~repro.heuristics.BatchHeuristic` protocol, ``solve_batch`` over a
block of structurally identical instances returns, row for row, exactly
the assignment that ``solve_mapping`` produces on the corresponding
instance — bit for bit, including binary-search trajectories and
local-search move sequences.  A second battery covers the stacked
incremental evaluator, the provider-level wiring (auto threshold,
validation, fallback) and the hoisted binary-search period bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.incremental import MappingEvaluator, StackMappingEvaluator
from repro.exceptions import InvalidMappingError, MappingRuleViolation, ReproError
from repro.experiments.providers import (
    batch_solve_min_repetitions,
    CellBlock,
    HeuristicProvider,
    LocalSearchProvider,
)
from repro.generators import ScenarioConfig
from repro.heuristics import binary_search, get_heuristic, supports_batch
from repro.heuristics.base import BatchAssignmentState
from repro.heuristics.binary_search import (
    RankBinarySearchHeuristic,
    worst_case_period_bound,
)
from repro.heuristics.local_search import (
    refine_specialized,
    refine_specialized_batch,
    specialized_move_mask,
    specialized_move_mask_batch,
)
from repro.simulation.rng import RandomStreamFactory

BATCHABLE = ("H2", "H3", "H4", "H4w", "H4f", "H4ls")


def make_block(
    *, num_machines=8, num_types=3, num_tasks=12, repetitions=5, seed=3,
    task_dependent_failures=False,
) -> CellBlock:
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
    return CellBlock.sample(scenario, num_tasks, RandomStreamFactory(seed))


def sequential_assignments(name: str, block: CellBlock) -> np.ndarray:
    return np.stack(
        [
            get_heuristic(name).solve_mapping(instance)[0].as_array
            for instance in block.instances
        ]
    )


class TestProtocol:
    @pytest.mark.parametrize("name", BATCHABLE)
    def test_paper_heuristics_support_batch(self, name):
        assert supports_batch(get_heuristic(name))

    @pytest.mark.parametrize("name", ["H1", "RandomUniform", "RoundRobin", "H4-forward"])
    def test_non_batch_heuristics_are_flagged(self, name):
        assert not supports_batch(get_heuristic(name))


class TestSolveBatchEquivalence:
    @pytest.mark.parametrize("name", BATCHABLE)
    def test_matches_sequential_solves(self, name):
        block = make_block()
        batch = get_heuristic(name).solve_batch(block.instances)
        assert batch.shape == (block.repetitions, block.stack.num_tasks)
        assert (batch == sequential_assignments(name, block)).all()

    @pytest.mark.parametrize("name", ["H2", "H3", "H4", "H4ls"])
    def test_matches_sequential_when_machines_barely_suffice(self, name):
        # m close to p exercises the free-machine feasibility guard rows.
        block = make_block(num_machines=5, num_types=4, num_tasks=10, seed=11)
        batch = get_heuristic(name).solve_batch(block.instances)
        assert (batch == sequential_assignments(name, block)).all()

    @pytest.mark.parametrize("name", ["H2", "H3"])
    def test_matches_sequential_with_task_dependent_failures(self, name):
        block = make_block(task_dependent_failures=True, seed=7)
        batch = get_heuristic(name).solve_batch(block.instances)
        assert (batch == sequential_assignments(name, block)).all()

    def test_non_integer_bisection_matches_sequential(self):
        block = make_block(seed=5)
        batch_h = RankBinarySearchHeuristic(integer_search=False, rel_tol=1e-3)
        batch = batch_h.solve_batch(block.instances)
        expected = np.stack(
            [
                RankBinarySearchHeuristic(integer_search=False, rel_tol=1e-3)
                .solve_mapping(instance)[0]
                .as_array
                for instance in block.instances
            ]
        )
        assert (batch == expected).all()

    def test_single_row_block(self):
        block = make_block(repetitions=1)
        for name in ("H2", "H4w"):
            batch = get_heuristic(name).solve_batch(block.instances)
            assert (batch == sequential_assignments(name, block)).all()


class TestSpeculativeBisection:
    """``solve_batch`` speculates on narrow rounds; rows stay sequential."""

    @staticmethod
    def sequential(make, block):
        return np.stack(
            [make().solve_mapping(instance)[0].as_array for instance in block.instances]
        )

    @pytest.mark.parametrize("integer_search", [True, False])
    @pytest.mark.parametrize("gate", [0, 2, 1000])
    @pytest.mark.parametrize("name", ["H2", "H3"])
    def test_matches_sequential_at_any_gate(self, monkeypatch, name, gate, integer_search):
        # gate 0 never speculates, 1000 always does, 2 switches once the
        # round narrows to two open rows.
        monkeypatch.setattr(binary_search, "SPECULATION_MAX_ROWS", gate)
        block = make_block(seed=13)

        def make():
            return type(get_heuristic(name))(integer_search=integer_search, rel_tol=1e-3)

        batch = make().solve_batch(block.instances)
        assert (batch == self.sequential(make, block)).all()

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", ["H2", "H3"])
    def test_iteration_cap_between_the_levels_of_a_round(self, name, max_iterations):
        # An odd cap ends the bisection after a round's first level.
        block = make_block(seed=17)

        def make():
            return type(get_heuristic(name))(max_iterations=max_iterations)

        batch = make().solve_batch(block.instances)
        assert (batch == self.sequential(make, block)).all()

    def test_speculation_halves_the_passes(self, monkeypatch):
        block = make_block(repetitions=1, seed=19)
        heuristic = RankBinarySearchHeuristic()
        _, iterations, _ = heuristic.solve_mapping(block.instances[0])
        passes = []
        original = RankBinarySearchHeuristic._try_period_batch

        def counting(self, template, rows, targets):
            passes.append(rows.size)
            return original(self, template, rows, targets)

        monkeypatch.setattr(RankBinarySearchHeuristic, "_try_period_batch", counting)
        heuristic.solve_batch(block.instances)
        # One pass at the upper bound, then one per two bisection steps.
        assert len(passes) == 1 + (iterations + 1) // 2
        assert max(passes) == 3

    @pytest.mark.parametrize("name", ["H2", "H3"])
    def test_doubled_bound_fallback(self, monkeypatch, name):
        # Start every bisection at a period the greedy placement cannot
        # meet (the sequential solve's final lower bound), so both solvers
        # take the doubled-bound fallback.
        block = make_block(seed=23)
        lows = {
            id(instance): get_heuristic(name).solve_mapping(instance)[2]["final_low"]
            for instance in block.instances
        }
        for instance in block.instances:
            low, probe = lows[id(instance)], get_heuristic(name)
            probe.prepare(instance)
            assert probe._try_period(instance, low) is None
            assert probe._try_period(instance, 2.0 * low) is not None
        monkeypatch.setattr(
            binary_search, "worst_case_period_bound", lambda instance: lows[id(instance)]
        )
        batch = get_heuristic(name).solve_batch(block.instances)
        assert (batch == self.sequential(lambda: get_heuristic(name), block)).all()


class TestBatchAssignmentState:
    def test_rejects_empty_instance_list(self):
        with pytest.raises(ReproError):
            BatchAssignmentState([])

    def test_rejects_mismatched_structure(self):
        small = make_block(num_tasks=10, repetitions=2)
        big = make_block(num_tasks=12, repetitions=2)
        with pytest.raises(ReproError):
            BatchAssignmentState([small.instances[0], big.instances[0]])

    def test_subset_resets_progress(self):
        block = make_block()
        state = BatchAssignmentState(block.instances)
        rows = np.array([0, 2])
        clone = state.subset(rows)
        assert clone.num_rows == 2
        assert (clone.assignment == -1).all()
        assert (clone.types == state.types[rows]).all()
        assert (clone.pending_types == state.pending_types[rows]).all()


class TestStackMappingEvaluator:
    def setup_method(self):
        self.block = make_block(seed=9)
        self.seeds = get_heuristic("H4w").solve_batch(self.block.instances)

    def test_candidate_periods_matches_scalar_evaluators(self):
        stacked = StackMappingEvaluator(self.block.instances, self.seeds)
        for task in range(self.block.stack.num_tasks):
            candidates = stacked.candidate_periods(task)
            for repetition, instance in enumerate(self.block.instances):
                scalar = MappingEvaluator(instance, self.seeds[repetition])
                assert (
                    candidates[repetition] == scalar.candidate_periods(task)
                ).all(), (task, repetition)

    def test_best_moves_matches_scalar_best_move(self):
        stacked = StackMappingEvaluator(self.block.instances, self.seeds)
        allowed = specialized_move_mask_batch(self.block.instances, self.seeds)
        tasks, machines, has_move = stacked.best_moves(allowed=allowed)
        for repetition, instance in enumerate(self.block.instances):
            scalar = MappingEvaluator(instance, self.seeds[repetition])
            best = scalar.best_move(allowed=allowed[repetition])
            if best is None:
                assert not has_move[repetition]
            else:
                assert has_move[repetition]
                assert (tasks[repetition], machines[repetition]) == best[:2]

    def test_move_matches_scalar_move(self):
        stacked = StackMappingEvaluator(self.block.instances, self.seeds)
        scalar = MappingEvaluator(self.block.instances[1], self.seeds[1])
        task = 3
        machine = int(
            np.argmin(MappingEvaluator(
                self.block.instances[1], self.seeds[1]
            ).candidate_periods(task))
        )
        stacked.move(1, task, machine)
        scalar.move(task, machine)
        assert (stacked.assignment[1] == scalar.assignment).all()
        assert stacked.periods[1] == scalar.period
        assert (stacked.machine_periods[1] == scalar.machine_periods).all()

    def test_subset_carries_state_bit_for_bit(self):
        stacked = StackMappingEvaluator(self.block.instances, self.seeds)
        stacked.move(2, 1, int(np.argmin(stacked.candidate_periods(1)[2])))
        rows = np.array([2, 0])
        sub = stacked.subset(rows)
        assert sub.num_rows == 2
        assert (sub.assignment == stacked.assignment[rows]).all()
        assert (sub.machine_periods == stacked.machine_periods[rows]).all()
        assert (sub.periods == stacked.periods[rows]).all()
        # Probes on the subset are exactly the full stack's rows.
        for task in range(self.block.stack.num_tasks):
            assert (
                sub.candidate_periods(task) == stacked.candidate_periods(task)[rows]
            ).all(), task
        # Moves on the subset do not touch the parent.
        before = stacked.assignment
        sub.move(0, 0, int(np.argmin(sub.candidate_periods(0)[0])))
        assert (stacked.assignment == before).all()

    def test_subset_rejects_bad_rows(self):
        stacked = StackMappingEvaluator(self.block.instances, self.seeds)
        with pytest.raises(InvalidMappingError):
            stacked.subset(np.array([], dtype=np.int64))
        with pytest.raises(InvalidMappingError):
            stacked.subset(np.array([stacked.num_rows]))
        with pytest.raises(InvalidMappingError):
            stacked.subset(np.array([-1]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidMappingError):
            StackMappingEvaluator(self.block.instances, self.seeds[:, :-1])
        with pytest.raises(InvalidMappingError):
            StackMappingEvaluator([], self.seeds)
        bad = self.seeds.copy()
        bad[0, 0] = self.block.stack.num_machines
        with pytest.raises(InvalidMappingError):
            StackMappingEvaluator(self.block.instances, bad)


class TestRefineBatch:
    def test_mask_matches_scalar(self):
        block = make_block(seed=13)
        seeds = get_heuristic("H4w").solve_batch(block.instances)
        batched = specialized_move_mask_batch(block.instances, seeds)
        for repetition, instance in enumerate(block.instances):
            assert (
                batched[repetition]
                == specialized_move_mask(instance, seeds[repetition])
            ).all()

    def test_refinement_matches_scalar_descents(self):
        block = make_block(num_machines=10, num_types=2, num_tasks=20, seed=2)
        seeds = get_heuristic("H4w").solve_batch(block.instances)
        refined, moves = refine_specialized_batch(block.instances, seeds)
        for repetition, instance in enumerate(block.instances):
            mapping, scalar_moves = refine_specialized(instance, seeds[repetition])
            assert moves[repetition] == scalar_moves
            assert (refined[repetition] == mapping.as_array).all()

    @pytest.mark.parametrize("cap", [0, 1])
    def test_move_cap_matches_scalar(self, cap):
        block = make_block(num_machines=10, num_types=2, num_tasks=20, seed=2)
        seeds = get_heuristic("H4w").solve_batch(block.instances)
        refined, moves = refine_specialized_batch(block.instances, seeds, max_moves=cap)
        assert (moves <= cap).all()
        for repetition, instance in enumerate(block.instances):
            mapping, scalar_moves = refine_specialized(
                instance, seeds[repetition], max_moves=cap
            )
            assert moves[repetition] == scalar_moves
            assert (refined[repetition] == mapping.as_array).all()


class TestPeriodBoundHoist:
    def test_prepare_caches_the_bound(self):
        block = make_block()
        instance = block.instances[0]
        heuristic = RankBinarySearchHeuristic()
        assert heuristic._period_bound is None
        heuristic.prepare(instance)
        assert heuristic._period_bound == worst_case_period_bound(instance)

    def test_solve_computes_the_bound_exactly_once(self, monkeypatch):
        import repro.heuristics.binary_search as module

        calls = []
        original = module.worst_case_period_bound

        def counting(instance):
            calls.append(instance)
            return original(instance)

        monkeypatch.setattr(module, "worst_case_period_bound", counting)
        instance = make_block().instances[0]
        module.RankBinarySearchHeuristic().solve_mapping(instance)
        assert len(calls) == 1

    def test_subclass_overriding_prepare_without_super_still_solves(self):
        # Pre-hoist subclasses treated prepare() as a plain hook; the
        # driver recomputes the bound lazily so they keep working.
        class LegacyH2(RankBinarySearchHeuristic):
            def prepare(self, instance):  # no super().prepare()
                w = instance.processing_times
                order = np.argsort(w, axis=0, kind="stable")
                ranks = np.empty_like(order)
                rows = np.arange(w.shape[0])
                for u in range(w.shape[1]):
                    ranks[order[:, u], u] = rows
                self._ranks = ranks

        instance = make_block().instances[0]
        legacy = LegacyH2().solve_mapping(instance)[0]
        modern = RankBinarySearchHeuristic().solve_mapping(instance)[0]
        assert (legacy.as_array == modern.as_array).all()

    def test_batch_prepare_caches_per_row_bounds(self):
        block = make_block()
        heuristic = RankBinarySearchHeuristic()
        heuristic.solve_batch(block.instances)
        expected = [worst_case_period_bound(inst) for inst in block.instances]
        assert heuristic._period_bounds is not None
        assert heuristic._period_bounds.tolist() == expected


class TestProviderWiring:
    def test_forced_paths_agree(self):
        block = make_block(repetitions=4)
        for name in ("H2", "H4w", "H4ls"):
            batched = HeuristicProvider(name, batch=True).solve_block(block)
            looped = HeuristicProvider(name, batch=False).solve_block(block)
            assert (batched == looped).all(), name

    def test_auto_threshold_switches_on_block_depth(self, monkeypatch):
        calls = []
        heuristic = get_heuristic("H4w")
        original = type(heuristic).solve_batch

        def counting(self, instances):
            calls.append(len(instances))
            return original(self, instances)

        monkeypatch.setattr(type(heuristic), "solve_batch", counting)
        small = make_block(repetitions=batch_solve_min_repetitions("H4w") - 1)
        HeuristicProvider("H4w").solve_block(small)
        assert calls == []
        big = make_block(repetitions=batch_solve_min_repetitions("H4w"))
        HeuristicProvider("H4w").solve_block(big)
        assert calls == [batch_solve_min_repetitions("H4w")]

    def test_fallback_for_heuristic_without_solve_batch(self):
        block = make_block(repetitions=batch_solve_min_repetitions("H4w"))
        provider = HeuristicProvider("H1")
        result = provider.evaluate_block(block)
        assert result.periods.shape == (block.repetitions,)
        assert np.isfinite(result.periods).all()

    def test_batch_results_are_rule_validated(self, monkeypatch):
        block = make_block(repetitions=4)
        heuristic = get_heuristic("H4w")

        def corrupted(self, instances):
            # Everything on machine 0: violates the specialized rule for
            # any block whose rows use more than one type.
            return np.zeros((len(instances), instances[0].num_tasks), dtype=np.int64)

        monkeypatch.setattr(type(heuristic), "solve_batch", corrupted)
        with pytest.raises(MappingRuleViolation):
            HeuristicProvider("H4w", batch=True).solve_block(block)

    def test_local_search_provider_paths_agree(self):
        block = make_block(num_machines=10, num_types=2, num_tasks=15, repetitions=4)
        batched = LocalSearchProvider("H4w", batch=True).evaluate_block(block)
        looped = LocalSearchProvider("H4w", batch=False).evaluate_block(block)
        assert (batched.periods == looped.periods).all()
