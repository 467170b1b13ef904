"""Unit tests for the exact one-to-one solvers (Theorem 1 / Figure 9)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FailureModel,
    Platform,
    ProblemInstance,
    evaluate,
    linear_chain,
)
from repro.exact import one_to_one
from repro.exact.bruteforce import bruteforce_optimal
from repro.exact.one_to_one import (
    optimal_one_to_one,
    optimal_one_to_one_homogeneous,
    optimal_one_to_one_task_dependent,
)
from repro.exceptions import InfeasibleProblemError, SolverError
from tests.helpers import dfs_bottleneck_assignment, make_random_instance


def _homogeneous_chain_instance(n: int, m: int, seed: int) -> ProblemInstance:
    rng = np.random.default_rng(seed)
    app = linear_chain(n, num_types=n)
    platform = Platform.homogeneous(n, m, 100.0)
    failures = FailureModel(rng.uniform(0.0, 0.3, size=(n, m)))
    return ProblemInstance(app, platform, failures)


class TestHomogeneousTheorem1:
    def test_matches_bruteforce_optimum(self):
        for seed in range(5):
            inst = _homogeneous_chain_instance(4, 5, seed)
            exact = optimal_one_to_one_homogeneous(inst)
            brute = bruteforce_optimal(inst, "one-to-one")
            assert exact.period == pytest.approx(brute.period, rel=1e-9)

    def test_one_to_one_rule_respected(self):
        inst = _homogeneous_chain_instance(5, 7, 11)
        result = optimal_one_to_one_homogeneous(inst)
        result.mapping.validate(inst, "one-to-one")
        assert result.method == "hungarian-homogeneous"

    def test_requires_chain(self):
        from repro.core import in_tree

        tree = in_tree([1, 1], num_types=3)
        platform = Platform.homogeneous(3, 4, 100.0)
        inst = ProblemInstance(tree, platform, FailureModel.failure_free(3, 4))
        with pytest.raises(SolverError):
            optimal_one_to_one_homogeneous(inst)

    def test_requires_homogeneous_platform(self):
        inst = make_random_instance(4, 4, 6, seed=0)
        with pytest.raises(SolverError):
            optimal_one_to_one_homogeneous(inst)

    def test_requires_enough_machines(self):
        inst = _homogeneous_chain_instance(5, 3, 0)
        with pytest.raises(InfeasibleProblemError):
            optimal_one_to_one_homogeneous(inst)

    def test_period_is_first_task_bottleneck(self):
        # With homogeneous w, the period equals x_1 * w where x_1 is the
        # product of the chosen F factors (Theorem 1's argument).
        inst = _homogeneous_chain_instance(4, 6, 3)
        result = optimal_one_to_one_homogeneous(inst)
        x = evaluate(inst, result.mapping).expected_products
        assert result.period == pytest.approx(x[0] * 100.0)


class TestTaskDependentBottleneck:
    def test_matches_bruteforce_optimum(self):
        for seed in range(5):
            inst = make_random_instance(4, 4, 5, seed=seed, task_dependent=True, f_high=0.2)
            exact = optimal_one_to_one_task_dependent(inst)
            brute = bruteforce_optimal(inst, "one-to-one")
            assert exact.period == pytest.approx(brute.period, rel=1e-9)

    def test_requires_task_dependent_failures(self):
        inst = make_random_instance(4, 4, 5, seed=1)
        with pytest.raises(SolverError):
            optimal_one_to_one_task_dependent(inst)

    def test_mapping_is_one_to_one(self):
        inst = make_random_instance(6, 3, 8, seed=2, task_dependent=True)
        result = optimal_one_to_one_task_dependent(inst)
        result.mapping.validate(inst, "one-to-one")
        assert result.method == "bottleneck-task-dependent"


def _tied_task_dependent_instance(n: int, m: int, seed: int) -> ProblemInstance:
    """Integer ``w`` from a handful of values and ``f = 0``: every cost
    ``x_i * w[i, u]`` is an integer, with many ties."""
    rng = np.random.default_rng(seed)
    app = linear_chain(n, num_types=n)
    w = rng.integers(1, 4, size=(n, m)).astype(np.float64)
    return ProblemInstance(app, Platform(w, types=app.types), FailureModel(np.zeros((n, m))))


class TestCompiledBottleneckMatching:
    """The scipy-matched bottleneck optimum equals the DFS matching's."""

    @staticmethod
    def instances():
        for seed in range(6):
            n = 5 + 4 * seed
            yield make_random_instance(n, 3, n + seed % 3, seed, task_dependent=True)
            yield _tied_task_dependent_instance(n, n + seed % 2, seed)

    def test_period_is_bit_identical_to_the_dfs_matching(self, monkeypatch):
        for inst in self.instances():
            result = optimal_one_to_one(inst)
            assert result.method == "bottleneck-task-dependent"
            x = np.asarray(result.evaluation.expected_products)
            cost = x[:, None] * inst.processing_times
            chosen = cost[np.arange(inst.num_tasks), result.mapping.as_array]
            assert result.period == chosen.max()
            with monkeypatch.context() as patch:
                patch.setattr(one_to_one, "bottleneck_assignment", dfs_bottleneck_assignment)
                assert optimal_one_to_one(inst).period == result.period


class TestDispatcher:
    def test_prefers_homogeneous_branch(self):
        inst = _homogeneous_chain_instance(4, 5, 7)
        assert optimal_one_to_one(inst).method == "hungarian-homogeneous"

    def test_uses_bottleneck_for_task_dependent(self):
        inst = make_random_instance(5, 2, 6, seed=3, task_dependent=True)
        assert optimal_one_to_one(inst).method == "bottleneck-task-dependent"

    def test_falls_back_to_bruteforce_for_small_general(self):
        inst = make_random_instance(4, 2, 5, seed=4)
        result = optimal_one_to_one(inst)
        assert result.method == "bruteforce"
        brute = bruteforce_optimal(inst, "one-to-one")
        assert result.period == pytest.approx(brute.period)

    def test_infeasible_when_not_enough_machines(self):
        inst = make_random_instance(6, 2, 4, seed=5)
        with pytest.raises(InfeasibleProblemError):
            optimal_one_to_one(inst)

    def test_specialized_optimum_never_worse_than_one_to_one_optimum(self):
        # Every one-to-one mapping is a valid specialized mapping, so the
        # specialized optimum can only be better (or equal).
        inst = make_random_instance(4, 2, 5, seed=6, task_dependent=True)
        oto = optimal_one_to_one_task_dependent(inst)
        specialized = bruteforce_optimal(inst, "specialized")
        assert specialized.period <= oto.period + 1e-9
