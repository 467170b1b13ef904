"""Unit tests for the Section-6.1 MIP (model construction and solve)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FailureModel, Platform, ProblemInstance
from repro.core.application import Application
from repro.core.types import TypeAssignment
from repro.exact.bruteforce import bruteforce_optimal
from repro.exact.milp import _stdout_to_stderr, build_milp_model, solve_specialized_milp
from repro.exceptions import InfeasibleProblemError
from repro.experiments.figures import FIGURES
from repro.experiments.providers import BlockChunk
from repro.simulation.rng import RandomStreamFactory
from tests.helpers import make_random_instance


class TestModelConstruction:
    def test_variable_layout(self, small_instance):
        model = build_milp_model(small_instance)
        n, p, m = 4, 2, 3
        assert model.num_tasks == n
        assert model.num_types == p
        assert model.num_machines == m
        # a (n*m) + t (m*p) + x (n) + y (n*m) + K
        assert model.num_variables == n * m + m * p + n + n * m + 1
        assert model.k_offset == model.num_variables - 1
        # Index helpers are consistent with the offsets.
        assert model.a_index(0, 0) == 0
        assert model.t_index(0, 0) == n * m
        assert model.x_index(0) == n * m + m * p
        assert model.y_index(0, 0) == n * m + m * p + n

    def test_constraint_count(self, small_instance):
        model = build_milp_model(small_instance)
        n, p, m = 4, 2, 3
        # (3): n, (4): m, (5): n*m, (6): n*m, (7): m, (8): 3*n*m
        expected = n + m + n * m + n * m + m + 3 * n * m
        assert model.num_constraint_rows == expected

    def test_integrality_flags(self, small_instance):
        model = build_milp_model(small_instance)
        n, p, m = 4, 2, 3
        assert model.integrality.sum() == n * m + m * p
        assert model.integrality[model.k_offset] == 0
        assert model.integrality[model.x_index(0)] == 0

    def test_bounds(self, small_instance):
        model = build_milp_model(small_instance)
        assert np.all(model.lower[model.x_index(0) : model.x_index(0) + 4] == 1.0)
        assert np.all(model.max_x >= 1.0)
        # x upper bounds equal the MAXx big-M values.
        for i in range(4):
            assert model.upper[model.x_index(i)] == pytest.approx(model.max_x[i])

    def test_max_x_monotone_along_chain(self, small_instance):
        model = build_milp_model(small_instance)
        max_x = model.max_x
        assert max_x[0] >= max_x[1] >= max_x[2] >= max_x[3] >= 1.0

    def test_infeasible_when_more_types_than_machines(self):
        app = Application.chain(TypeAssignment([0, 1, 2]))
        inst = ProblemInstance(
            app, Platform.homogeneous(3, 2, 10.0), FailureModel.failure_free(3, 2)
        )
        with pytest.raises(InfeasibleProblemError):
            build_milp_model(inst)


class TestSolve:
    def test_matches_bruteforce_on_small_instances(self):
        for seed in range(4):
            inst = make_random_instance(5, 2, 3, seed=seed)
            milp = solve_specialized_milp(inst)
            brute = bruteforce_optimal(inst, "specialized")
            assert milp.is_optimal
            assert milp.period == pytest.approx(brute.period, rel=1e-6)

    def test_returns_valid_specialized_mapping(self, small_instance):
        result = solve_specialized_milp(small_instance)
        assert result.is_optimal
        result.mapping.validate(small_instance, "specialized")
        # Objective K and the analytic period of the mapping agree.
        assert result.objective == pytest.approx(result.period, rel=1e-4)

    def test_never_beaten_by_heuristics(self):
        from repro.heuristics import PAPER_HEURISTICS, get_heuristic

        inst = make_random_instance(7, 3, 4, seed=11)
        milp = solve_specialized_milp(inst)
        assert milp.is_optimal
        for name in PAPER_HEURISTICS:
            result = get_heuristic(name).solve(inst, np.random.default_rng(0))
            assert result.period >= milp.period - 1e-6

    def test_failure_free_single_type(self):
        # Every task same type, no failures, homogeneous machines: the MIP
        # must find the balanced split.
        app = Application.chain(TypeAssignment([0, 0, 0, 0]))
        inst = ProblemInstance(
            app, Platform.homogeneous(4, 2, 100.0), FailureModel.failure_free(4, 2)
        )
        result = solve_specialized_milp(inst)
        assert result.is_optimal
        assert result.period == pytest.approx(200.0, rel=1e-6)

    def test_time_limit_reported_as_failure(self):
        inst = make_random_instance(14, 3, 6, seed=12)
        result = solve_specialized_milp(inst, time_limit=1e-3)
        # Either HiGHS got lucky instantly (unlikely) or it reports a failure;
        # in both cases the call must not raise.
        assert result.status in {"optimal", "failed", "infeasible"}
        if not result.is_optimal:
            assert result.mapping is None
            assert result.period == float("inf")

    def test_solve_time_recorded(self, small_instance):
        result = solve_specialized_milp(small_instance)
        assert result.solve_time >= 0.0

    def test_highs_diagnostics_stay_off_stdout(self, capfd):
        # HiGHS prints "HighsMipSolverData::transformNewIntegerFeasibleSolution
        # tmpSolver.run();" from C++ straight to file descriptor 1 on this
        # fig10 instance (n=6, repetition 3 of `run fig10 --repetitions 4
        # --max-points 4`); `run --csv` output must stay clean.
        scenario = FIGURES["fig10"].scenario.scaled(repetitions=4, max_points=4)
        chunk = BlockChunk.sample(scenario, (6,), RandomStreamFactory(0))
        result = solve_specialized_milp(chunk.instances[3], time_limit=2)
        assert result.is_optimal
        assert capfd.readouterr().out == ""

    def test_stdout_redirect_is_undone_when_the_solve_raises(self, capfd):
        # Inside the block fd 1 writes land on fd 2; an exception out of
        # the solve must still give the process its stdout back.
        with pytest.raises(RuntimeError):
            with _stdout_to_stderr():
                os.write(1, b"inside\n")
                raise RuntimeError("solver blew up")
        os.write(1, b"after\n")
        captured = capfd.readouterr()
        assert captured.out == "after\n"
        assert captured.err == "inside\n"
