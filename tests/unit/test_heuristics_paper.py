"""Unit tests for the six paper heuristics (H1, H2, H3, H4, H4w, H4f)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FailureModel, Platform, ProblemInstance, TypeAssignment, evaluate
from repro.core.application import Application
from repro.heuristics import get_heuristic
from repro.heuristics.binary_search import (
    HeterogeneityBinarySearchHeuristic,
    RankBinarySearchHeuristic,
    greedy_walk,
    worst_case_period_bound,
)
from repro.heuristics.greedy import (
    BestPerformanceHeuristic,
    FastestMachineHeuristic,
    ReliableMachineHeuristic,
)
from repro.heuristics.h1_random import RandomHeuristic

from tests.helpers import make_random_instance


class TestH1Random:
    def test_produces_valid_specialized_mapping(self):
        inst = make_random_instance(20, 4, 8, seed=1)
        result = RandomHeuristic().solve(inst, np.random.default_rng(0))
        result.mapping.validate(inst, "specialized")

    def test_reproducible_with_same_rng_seed(self):
        inst = make_random_instance(15, 3, 6, seed=2)
        r1 = RandomHeuristic().solve(inst, np.random.default_rng(42))
        r2 = RandomHeuristic().solve(inst, np.random.default_rng(42))
        assert list(r1.mapping) == list(r2.mapping)

    def test_different_seeds_usually_differ(self):
        inst = make_random_instance(30, 3, 15, seed=3)
        mappings = {
            tuple(RandomHeuristic().solve(inst, np.random.default_rng(s)).mapping)
            for s in range(5)
        }
        assert len(mappings) > 1

    def test_randomized_flag(self):
        assert RandomHeuristic.randomized is True

    def test_works_when_machines_equal_types(self):
        # m == p forces every task of a type onto the single machine of its type.
        inst = make_random_instance(10, 3, 3, seed=4)
        result = RandomHeuristic().solve(inst, np.random.default_rng(0))
        result.mapping.validate(inst, "specialized")
        assert len(result.mapping.used_machines()) == 3


class TestBinarySearchHeuristics:
    def test_worst_case_bound_dominates_any_mapping(self):
        inst = make_random_instance(10, 3, 4, seed=5)
        bound = worst_case_period_bound(inst)
        for name in ("H1", "H2", "H3", "H4", "H4w", "H4f"):
            result = get_heuristic(name).solve(inst, np.random.default_rng(0))
            assert result.period <= bound + 1e-6

    def test_h2_rank_computation(self):
        # Machine 0 is fastest on task 1, machine 1 fastest on task 0.
        app = Application.chain(TypeAssignment([0, 1]))
        w = np.array([[300.0, 100.0], [100.0, 300.0]])
        inst = ProblemInstance(app, Platform(w), FailureModel.failure_free(2, 2))
        orders = RankBinarySearchHeuristic().build_walk_inputs(inst)[1].orders
        # Task 1 has rank 0 on machine 0 (its fastest task there) and rank
        # 1 on machine 1; task 0 has rank 0 on machine 1, rank 1 on machine 0.
        assert list(orders[1]) == [0, 1]
        assert list(orders[0]) == [1, 0]

    def test_h2_converges_close_to_best_greedy(self):
        inst = make_random_instance(20, 3, 10, seed=6)
        h2 = get_heuristic("H2").solve(inst)
        h4w = get_heuristic("H4w").solve(inst)
        # H2's bisection should not be wildly worse than the greedy winner.
        assert h2.period <= 3.0 * h4w.period

    def test_h3_prefers_heterogeneous_machines(self):
        # Two machines: machine 0 heterogeneous, machine 1 homogeneous; a
        # single-task instance must pick machine 0 when both are feasible.
        app = Application.chain(TypeAssignment([0, 0]))
        w = np.array([[100.0, 200.0], [900.0, 200.0]])
        inst = ProblemInstance(
            app,
            Platform(w, enforce_type_consistency=False),
            FailureModel.failure_free(2, 2),
        )
        tables, preference = HeterogeneityBinarySearchHeuristic().build_walk_inputs(inst)
        assert list(preference.orders[1]) == [0, 1]
        # The walk at a period both machines meet places the sink (task
        # 1, first in the backward order) on machine 0.
        assignment, _ = greedy_walk(tables, preference, 10_000.0)
        assert assignment[1] == 0

    def test_integer_search_iteration_count_bounded(self):
        inst = make_random_instance(12, 2, 5, seed=7)
        result = RankBinarySearchHeuristic().solve(inst)
        # log2(worst-case bound) iterations at most, bound is < 2^40.
        assert result.iterations <= 64


class TestGreedyFamily:
    def test_h4_uses_failure_and_speed(self):
        # Machine 0: fast but very unreliable; machine 1: slower but safe.
        # H4w picks machine 0 (speed only); H4 must pick machine 1 because the
        # effective cost 100/(1-0.9) = 1000 > 200.
        app = Application.chain(TypeAssignment([0]))
        w = np.array([[100.0, 200.0]])
        f = np.array([[0.9, 0.0]])
        inst = ProblemInstance(app, Platform(w), FailureModel(f))
        assert BestPerformanceHeuristic().solve(inst).mapping[0] == 1
        assert FastestMachineHeuristic().solve(inst).mapping[0] == 0
        assert ReliableMachineHeuristic().solve(inst).mapping[0] == 1

    def test_h4f_ignores_speed(self):
        # Machine 0: slow and slightly safer; machine 1: fast, slightly riskier.
        app = Application.chain(TypeAssignment([0]))
        w = np.array([[900.0, 100.0]])
        f = np.array([[0.01, 0.02]])
        inst = ProblemInstance(app, Platform(w), FailureModel(f))
        assert ReliableMachineHeuristic().solve(inst).mapping[0] == 0
        assert FastestMachineHeuristic().solve(inst).mapping[0] == 1

    def test_greedy_balances_load_across_machines_of_same_type(self):
        # Four identical type-0 tasks, two identical machines: the greedy
        # heuristics should split them 2/2 rather than 4/0.
        app = Application.chain(TypeAssignment([0, 0, 0, 0]))
        inst = ProblemInstance(
            app, Platform.homogeneous(4, 2, 100.0), FailureModel.failure_free(4, 2)
        )
        result = BestPerformanceHeuristic().solve(inst)
        loads = result.mapping.machine_loads()
        assert sorted(len(tasks) for tasks in loads.values()) == [2, 2]

    def test_evaluation_matches_core_evaluate(self):
        inst = make_random_instance(15, 3, 6, seed=9)
        result = FastestMachineHeuristic().solve(inst)
        assert result.period == pytest.approx(evaluate(inst, result.mapping).period)

    @pytest.mark.parametrize(
        "cls", [BestPerformanceHeuristic, FastestMachineHeuristic, ReliableMachineHeuristic]
    )
    def test_single_pass(self, cls):
        inst = make_random_instance(10, 2, 4, seed=10)
        assert cls().solve(inst).iterations == 1


class TestHeuristicRelativeQuality:
    """Coarse quality relations the paper's experiments rely on."""

    def test_h4w_beats_h1_on_average(self):
        ratios = []
        for seed in range(8):
            inst = make_random_instance(40, 5, 20, seed=seed)
            h1 = get_heuristic("H1").solve(inst, np.random.default_rng(seed))
            h4w = get_heuristic("H4w").solve(inst)
            ratios.append(h1.period / h4w.period)
        assert np.mean(ratios) > 1.3  # H1 is clearly worse on average

    def test_informed_heuristics_beat_h4f_on_average(self):
        h4f_ratios = []
        for seed in range(8):
            inst = make_random_instance(40, 5, 10, seed=100 + seed)
            h4f = get_heuristic("H4f").solve(inst)
            h4 = get_heuristic("H4").solve(inst)
            h4f_ratios.append(h4f.period / h4.period)
        assert np.mean(h4f_ratios) > 1.0
