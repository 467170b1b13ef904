"""Unit tests for repro.heuristics.base (registry and AssignmentState)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import FailureModel, Mapping, Platform, ProblemInstance, TypeAssignment
from repro.core.application import Application
from repro.exceptions import InfeasibleProblemError, ReproError
from repro.heuristics import (
    PAPER_HEURISTICS,
    available_heuristics,
    backward_task_order,
    get_heuristic,
)
from repro.heuristics import base
from repro.heuristics.base import AssignmentState


class TestRegistry:
    def test_all_paper_heuristics_registered(self):
        names = available_heuristics()
        for paper_name in PAPER_HEURISTICS:
            assert paper_name in names

    def test_get_heuristic_case_insensitive(self):
        assert get_heuristic("h4w").name == "H4w"
        assert get_heuristic("H2").name == "H2"

    def test_get_heuristic_unknown(self):
        with pytest.raises(ReproError, match="unknown heuristic"):
            get_heuristic("H99")

    def test_get_heuristic_returns_fresh_instances(self):
        assert get_heuristic("H2") is not get_heuristic("H2")


class TestBatchThresholds:
    def test_calibration_file_holds_only_read_keys(self):
        path = Path(base.__file__).with_name("thresholds.json")
        data = json.loads(path.read_text())
        assert set(data) == {"comment", "thresholds"}
        assert base.BATCH_SOLVE_THRESHOLDS == {
            name: max(2, value) for name, value in data["thresholds"].items()
        }
        for name, depth in base.BATCH_SOLVE_THRESHOLDS.items():
            assert base.batch_solve_min_repetitions(name) == depth


class TestBackwardOrder:
    def test_chain_backward_order(self, small_instance):
        assert backward_task_order(small_instance) == (3, 2, 1, 0)


class TestHeuristicSolve:
    def test_infeasible_when_more_types_than_machines(self):
        app = Application.chain(TypeAssignment([0, 1, 2]))
        platform = Platform.homogeneous(3, 2, 100.0)
        inst = ProblemInstance(app, platform, FailureModel.failure_free(3, 2))
        with pytest.raises(InfeasibleProblemError):
            get_heuristic("H4w").solve(inst)

    @pytest.mark.parametrize("name", PAPER_HEURISTICS)
    def test_every_heuristic_returns_valid_specialized_mapping(self, name, small_instance):
        result = get_heuristic(name).solve(small_instance, np.random.default_rng(0))
        result.mapping.validate(small_instance, "specialized")
        assert result.period > 0
        assert result.heuristic == name
        assert result.throughput == pytest.approx(1.0 / result.period)

    def test_result_metadata_iterations(self, small_instance):
        result = get_heuristic("H2").solve(small_instance)
        assert result.iterations >= 1
        assert "final_low" in result.metadata


class TestAssignmentState:
    def test_traversal_order_enforced(self, small_instance):
        state = AssignmentState(small_instance)
        with pytest.raises(ReproError):
            state.assign(0, 0)  # task 0 is the *last* task of the traversal

    def test_requires_permutation_order(self, small_instance):
        with pytest.raises(ReproError):
            AssignmentState(small_instance, order=(3, 2, 1))

    def test_downstream_demand_sink_is_one(self, small_instance):
        state = AssignmentState(small_instance)
        assert state.downstream_demand(3) == 1.0

    def test_downstream_demand_requires_assigned_successor(self, small_instance):
        state = AssignmentState(small_instance)
        with pytest.raises(ReproError):
            state.downstream_demand(0)

    def test_candidate_products_uses_candidate_failure(self, small_instance):
        state = AssignmentState(small_instance)
        expected = 1.0 / (1.0 - small_instance.f(3, 2))
        assert state.candidate_products(3, 2) == pytest.approx(expected)

    def test_assign_updates_loads_and_specialization(self, small_instance):
        state = AssignmentState(small_instance)
        state.assign(3, 1)
        assert state.machine_type[1] == small_instance.type_of(3)
        assert state.accumulated[1] > 0
        assert state.x[3] > 1.0
        # Machine 1 is now dedicated to type 1; task 2 has type 0.
        assert not state.is_eligible(2, 1)

    def test_assign_rejects_ineligible_machine(self, small_instance):
        state = AssignmentState(small_instance)
        state.assign(3, 1)  # machine 1 dedicated to type 1
        state.assign(2, 0)  # machine 0 dedicated to type 0
        with pytest.raises(ReproError):
            state.assign(1, 0)  # type 1 on a type-0 machine

    def test_free_machine_guard_keeps_feasibility(self):
        # 2 machines, 2 types: after dedicating machine 0 to type 0, the last
        # free machine must be reserved for type 1.
        app = Application.chain(TypeAssignment([1, 0, 0]))
        platform = Platform.homogeneous(3, 2, 100.0)
        inst = ProblemInstance(app, platform, FailureModel.failure_free(3, 2))
        state = AssignmentState(inst)
        # Backward order is (2, 1, 0) with types (0, 0, 1).
        state.assign(2, 0)
        # Machine 1 is the only free machine left and type 1 is still pending:
        # task 1 (type 0) must NOT be allowed to grab machine 1.
        assert state.eligible_machines(1) == [0]
        state.assign(1, 0)
        assert state.eligible_machines(0) == [1]
        state.assign(0, 1)
        mapping = state.to_mapping()
        mapping.validate(inst, "specialized")

    def test_to_mapping_requires_completion(self, small_instance):
        state = AssignmentState(small_instance)
        with pytest.raises(ReproError):
            state.to_mapping()

    def test_full_assignment_produces_mapping(self, small_instance):
        state = AssignmentState(small_instance)
        while not state.is_complete():
            task = state.next_task()
            machine = state.eligible_machines(task)[0]
            state.assign(task, machine)
        mapping = state.to_mapping()
        assert isinstance(mapping, Mapping)
        mapping.validate(small_instance, "specialized")
        assert state.next_task() is None
        assert state.remaining_tasks() == ()
