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
from repro.exact.hungarian import bottleneck_assignment
from repro.exact.one_to_one import (
    optimal_one_to_one,
    optimal_one_to_one_homogeneous,
    optimal_one_to_one_task_dependent,
)
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.experiments.figures import FIGURES
from repro.generators.scenarios import sample_instance
from repro.simulation.rng import RandomStreamFactory
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


def _assert_same_bottleneck_as_dfs(cost: np.ndarray) -> None:
    n, m = cost.shape
    columns = bottleneck_assignment(cost)
    assert columns.shape == (n,)
    assert columns.min() >= 0 and columns.max() < m
    assert len(set(columns.tolist())) == n  # an injection
    oracle = dfs_bottleneck_assignment(cost)
    rows = np.arange(n)
    assert cost[rows, columns].max() == cost[rows, oracle].max()


class TestThresholdBottleneckMatching:
    """The threshold algorithm's bottleneck value equals the DFS oracle's."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_floats(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        m = n + int(rng.integers(0, 4))
        _assert_same_bottleneck_as_dfs(rng.uniform(0.0, 10.0, size=(n, m)))

    @pytest.mark.parametrize("seed", range(40))
    def test_integer_costs_with_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 9))
        m = n + int(rng.integers(0, 4))
        _assert_same_bottleneck_as_dfs(rng.integers(0, 4, size=(n, m)).astype(np.float64))

    @pytest.mark.parametrize("seed", range(10))
    def test_fewer_rows_than_columns(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 6))
        _assert_same_bottleneck_as_dfs(rng.uniform(0.0, 1.0, size=(n, 2 * n + 1)))

    def test_column_minima_do_not_bound_a_rectangular_optimum(self):
        # Column 2 is never needed: its minimum (9) is no lower bound.
        cost = np.array([[1.0, 2.0, 9.0], [2.0, 1.0, 9.0]])
        columns = bottleneck_assignment(cost)
        assert columns.tolist() == [0, 1]
        _assert_same_bottleneck_as_dfs(cost)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_row(self, seed):
        cost = np.random.default_rng(300 + seed).uniform(0.0, 1.0, size=(1, 7))
        assert bottleneck_assignment(cost).tolist() == [int(cost.argmin())]
        _assert_same_bottleneck_as_dfs(cost)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 6)])
    def test_all_equal(self, shape):
        _assert_same_bottleneck_as_dfs(np.full(shape, 2.5))

    def test_fig9_period_equals_the_dfs_oracle_at_every_sweep_point(self, monkeypatch):
        scenario = FIGURES["fig9"].scenario
        streams = RandomStreamFactory(11)
        for types in scenario.sweep_values:
            for repetition in range(2):
                inst = sample_instance(scenario, types, repetition, streams)
                period = optimal_one_to_one(inst).period
                with monkeypatch.context() as patch:
                    patch.setattr(
                        one_to_one, "bottleneck_assignment", dfs_bottleneck_assignment
                    )
                    assert optimal_one_to_one(inst).period == period, (types, repetition)

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


def test_fig9_run_loads_no_sparse_module():
    # The bottleneck assignment is numpy-only: a fig9 run with the OtO
    # baseline leaves scipy.sparse (~0.25 s and ~25 MB to import) unloaded.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from repro.experiments.runner import run_figure\n"
        "result = run_figure('fig9', seed=0, repetitions=1, max_points=1, include_milp=False)\n"
        "assert 'OtO' in result.series\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
