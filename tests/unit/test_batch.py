"""Tests for the vectorized batch evaluation subsystem (`repro.batch`).

The central contract: every batch kernel must agree with the scalar
:mod:`repro.core.period` path — bit-for-bit for the array kernels, and
within 1e-9 for the incremental evaluator (whose updates are
multiplicative deltas).  The equivalence is exercised on well over 200
randomized (instance, mapping) pairs including chains, in-trees,
zero-failure and near-1 failure-probability edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.batch import InstanceStack, MappingEvaluator, evaluate_batch
from repro.batch import graph as graph_mod
from repro.batch.evaluation import as_assignment_array
from repro.batch.graph import graph_tables
from repro.core import (
    Application,
    FailureModel,
    Mapping,
    Platform,
    ProblemInstance,
    TypeAssignment,
    evaluate,
    in_tree,
    linear_chain,
)
from repro.exceptions import InvalidInstanceError, InvalidMappingError
from tests.helpers import reference_candidate_periods


def _random_instance(rng: np.random.Generator, *, f_low=0.0, f_high=0.3, tree=False):
    """A small random chain or in-tree instance."""
    if tree:
        branches = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
        p = int(rng.integers(1, 4))
        app = in_tree(branches, p, shared_tail_length=int(rng.integers(1, 3)))
        n = app.num_tasks
    else:
        n = int(rng.integers(1, 13))
        p = int(rng.integers(1, n + 1))
        types = rng.integers(0, p, size=n)
        types[: min(p, n)] = np.arange(min(p, n))
        app = Application.chain(TypeAssignment(types.tolist(), num_types=p))
        n = app.num_tasks
    m = int(rng.integers(1, 7))
    per_type_w = rng.uniform(1.0, 1000.0, size=(app.num_types, m))
    w = per_type_w[np.asarray(list(app.types)), :]
    f = rng.uniform(f_low, f_high, size=(n, m))
    return ProblemInstance(app, Platform(w), FailureModel(f))


def _assert_batch_matches_scalar(instance, assignments):
    batch = evaluate_batch(instance, assignments)
    for r in range(assignments.shape[0]):
        scalar = evaluate(instance, Mapping(assignments[r], instance.num_machines))
        assert batch.periods[r] == scalar.period
        assert np.array_equal(batch.machine_periods[r], np.array(scalar.machine_periods))
        assert np.array_equal(
            batch.expected_products[r], np.array(scalar.expected_products)
        )
        assert batch.critical_machines(r) == scalar.critical_machines
        assert batch.throughputs[r] == scalar.throughput


class TestBatchEquivalence:
    def test_matches_scalar_on_200_randomized_cases(self):
        """≥200 random (instance, mapping) pairs, exact agreement."""
        rng = np.random.default_rng(987)
        cases = 0
        for trial in range(60):
            instance = _random_instance(rng, tree=trial % 4 == 0)
            R = 4
            assignments = rng.integers(
                0, instance.num_machines, size=(R, instance.num_tasks)
            )
            _assert_batch_matches_scalar(instance, assignments)
            cases += R
        assert cases >= 200

    def test_zero_failure_edge_case(self):
        rng = np.random.default_rng(5)
        instance = _random_instance(rng, f_low=0.0, f_high=0.0)
        assignments = rng.integers(0, instance.num_machines, size=(8, instance.num_tasks))
        _assert_batch_matches_scalar(instance, assignments)
        # With no failures every x is exactly 1.
        assert np.all(evaluate_batch(instance, assignments).expected_products == 1.0)

    def test_near_one_failure_probability_edge_case(self):
        rng = np.random.default_rng(6)
        instance = _random_instance(rng, f_low=0.999, f_high=0.999999)
        assignments = rng.integers(0, instance.num_machines, size=(8, instance.num_tasks))
        _assert_batch_matches_scalar(instance, assignments)
        assert np.all(np.isfinite(evaluate_batch(instance, assignments).periods))

    def test_accepts_mapping_objects_and_single_vector(self):
        rng = np.random.default_rng(7)
        instance = _random_instance(rng)
        vec = rng.integers(0, instance.num_machines, size=instance.num_tasks)
        mappings = [Mapping(vec, instance.num_machines)]
        from_objects = evaluate_batch(instance, mappings)
        from_vector = evaluate_batch(instance, vec)
        assert from_objects.periods[0] == from_vector.periods[0]
        assert len(from_vector) == 1

    def test_periods_are_the_machine_period_maxima(self):
        rng = np.random.default_rng(8)
        instance = _random_instance(rng)
        assignments = rng.integers(0, instance.num_machines, size=(5, instance.num_tasks))
        batch = evaluate_batch(instance, assignments)
        assert batch.machine_periods.shape == (5, instance.num_machines)
        assert np.array_equal(batch.machine_periods.max(axis=1), batch.periods)

    def test_best_index_and_evaluation_view(self):
        rng = np.random.default_rng(9)
        instance = _random_instance(rng)
        assignments = rng.integers(0, instance.num_machines, size=(10, instance.num_tasks))
        batch = evaluate_batch(instance, assignments)
        best = batch.best_index()
        assert batch.periods[best] == batch.periods.min()
        view = batch.evaluation(best)
        direct = evaluate(instance, Mapping(assignments[best], instance.num_machines))
        assert view.period == direct.period
        assert view.machine_periods == direct.machine_periods
        assert view.critical_machines == direct.critical_machines
        assert batch.best().period == direct.period

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_equivalence_on_random_seeds(self, seed):
        rng = np.random.default_rng(seed)
        instance = _random_instance(rng, tree=bool(seed % 3 == 0))
        assignments = rng.integers(0, instance.num_machines, size=(3, instance.num_tasks))
        _assert_batch_matches_scalar(instance, assignments)

    def test_rejects_wrong_shapes_and_indices(self):
        rng = np.random.default_rng(10)
        instance = _random_instance(rng)
        with pytest.raises(InvalidMappingError):
            evaluate_batch(instance, np.zeros((2, instance.num_tasks + 1), dtype=int))
        bad = np.zeros((1, instance.num_tasks), dtype=int)
        bad[0, 0] = instance.num_machines
        with pytest.raises(InvalidMappingError):
            evaluate_batch(instance, bad)
        with pytest.raises(InvalidMappingError):
            as_assignment_array(
                np.zeros((2, 2, 2), dtype=int), num_tasks=2, num_machines=2
            )


class TestInstanceStack:
    def _stacked(self, rng, count=6):
        base = _random_instance(rng)
        app = base.application
        instances = []
        for _ in range(count):
            per_type_w = rng.uniform(1.0, 1000.0, size=(app.num_types, base.num_machines))
            w = per_type_w[np.asarray(list(app.types)), :]
            f = rng.uniform(0.0, 0.4, size=(app.num_tasks, base.num_machines))
            instances.append(ProblemInstance(app, Platform(w), FailureModel(f)))
        return instances

    def test_stack_matches_per_instance_scalar_evaluation(self):
        rng = np.random.default_rng(11)
        instances = self._stacked(rng)
        stack = InstanceStack.from_instances(instances)
        assignments = rng.integers(
            0, stack.num_machines, size=(len(instances), stack.num_tasks)
        )
        result = stack.evaluate(assignments)
        for s, inst in enumerate(instances):
            scalar = evaluate(inst, Mapping(assignments[s], inst.num_machines))
            assert result.periods[s] == scalar.period
            assert np.array_equal(
                result.machine_periods[s], np.array(scalar.machine_periods)
            )
        assert np.array_equal(stack.periods(assignments), result.periods)

    def test_single_mapping_broadcasts_over_the_stack(self):
        rng = np.random.default_rng(12)
        instances = self._stacked(rng)
        stack = InstanceStack.from_instances(instances)
        vec = rng.integers(0, stack.num_machines, size=stack.num_tasks)
        result = stack.evaluate(vec)
        for s, inst in enumerate(instances):
            assert result.periods[s] == evaluate(inst, Mapping(vec, inst.num_machines)).period

    def test_rows_with_different_type_vectors_stack(self):
        # Periods depend on the graph and each row's w/f, not on task
        # types: chains that share n and m stack whatever their types.
        rng = np.random.default_rng(13)
        instances = [
            ProblemInstance(
                Application.chain(TypeAssignment(types, num_types=2)),
                Platform(rng.uniform(1.0, 1000.0, (4, 3)), enforce_type_consistency=False),
                FailureModel(rng.uniform(0.0, 0.4, (4, 3))),
            )
            for types in ([0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1])
        ]
        stack = InstanceStack.from_instances(instances)
        assignments = rng.integers(0, 3, size=(3, 4))
        for s, inst in enumerate(instances):
            scalar = evaluate(inst, Mapping(assignments[s], 3)).period
            assert stack.periods(assignments)[s] == scalar

    def test_rejects_structurally_different_instances(self):
        rng = np.random.default_rng(14)
        a = _random_instance(rng)
        b = _random_instance(rng)
        while (
            b.application.successors == a.application.successors
            and b.num_machines == a.num_machines
        ):
            b = _random_instance(rng)
        with pytest.raises(InvalidInstanceError):
            InstanceStack.from_instances([a, b])
        with pytest.raises(InvalidInstanceError):
            InstanceStack.from_instances([])


def _table_arrays(tables) -> list[np.ndarray]:
    pair_tasks, pair_ups, _ = tables.pairs
    return [
        tables.order,
        tables.succ,
        *(tasks for tasks, _ in tables.paths),
        *tables.upstream,
        pair_tasks,
        pair_ups,
    ]


class TestGraphTables:
    """The per-graph index tables are shared by equal graphs and read-only."""

    def test_equal_chains_share_one_table_set(self):
        first, second = linear_chain(30, 3), linear_chain(30, 5)
        assert first is not second and first.successors == second.successors
        assert graph_tables(first) is graph_tables(second)
        assert graph_tables(linear_chain(31, 3)) is not graph_tables(first)
        rng = np.random.default_rng(4)
        instances = [
            ProblemInstance(app, Platform(rng.uniform(1.0, 5.0, (30, 4))),
                            FailureModel(rng.uniform(0.0, 0.2, (30, 4))))
            for app in (first, second)
        ]
        evaluators = [MappingEvaluator(inst, np.zeros(30, dtype=np.int64)) for inst in instances]
        assert evaluators[0]._graph is evaluators[1]._graph

    @pytest.mark.parametrize(
        "app", [linear_chain(12, 3), in_tree([3, 1, 4], 2, shared_tail_length=2)]
    )
    def test_every_table_is_read_only(self, app):
        arrays = _table_arrays(graph_tables(app))
        assert all(not arr.flags.writeable for arr in arrays)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_upstream_sets_are_the_transitive_predecessors(self):
        app = in_tree([3, 1, 4], 2, shared_tail_length=2)
        tables = graph_tables(app)
        for task in range(app.num_tasks):
            members, frontier = set(), [task]
            while frontier:
                node = frontier.pop()
                members.add(node)
                frontier.extend(app.predecessors(node))
            expected = [task] + sorted(members - {task})
            assert tables.upstream[task].tolist() == expected
        pair_tasks, pair_ups, count = tables.pairs
        heads = [int(ups[0]) for ups in tables.upstream]
        assert count == sum(ups.size for ups in tables.upstream)
        assert pair_ups[:count].tolist() == [int(u) for ups in tables.upstream for u in ups]
        assert pair_ups[count:].tolist() == [int(u) for ups in tables.upstream for u in ups[1:]]
        assert pair_tasks[:count].tolist() == [
            t for t, ups in enumerate(tables.upstream) for _ in ups
        ]
        assert heads == list(range(app.num_tasks))

    def test_the_cache_is_bounded_and_rebuilds_equal_tables(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "_CACHE", {})
        monkeypatch.setattr(graph_mod, "GRAPH_CACHE_BUDGET", 6**2 + 7**2 + 8**2)
        first = graph_tables(linear_chain(5, 1))
        for n in (6, 7, 8):
            graph_tables(linear_chain(n, 1))
        assert [len(key) for key in graph_mod._CACHE] == [6, 7, 8]
        graph_tables(linear_chain(20, 1))  # over budget alone: kept by itself
        assert [len(key) for key in graph_mod._CACHE] == [20]
        again = graph_tables(linear_chain(5, 1))
        assert again is not first
        assert [a.tolist() for a in _table_arrays(again)] == [
            a.tolist() for a in _table_arrays(first)
        ]


class TestMappingEvaluator:
    def test_initial_state_matches_scalar_evaluate(self):
        rng = np.random.default_rng(20)
        instance = _random_instance(rng)
        vec = rng.integers(0, instance.num_machines, size=instance.num_tasks)
        ev = MappingEvaluator(instance, Mapping(vec, instance.num_machines))
        scalar = evaluate(instance, Mapping(vec, instance.num_machines))
        assert ev.period == scalar.period
        assert tuple(ev.machine_periods) == scalar.machine_periods
        assert tuple(ev.expected_products) == scalar.expected_products
        assert ev.critical_machines() == scalar.critical_machines
        assert ev.evaluation().period == scalar.period

    def test_moves_track_fresh_evaluation(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            instance = _random_instance(rng, tree=trial % 2 == 0)
            if instance.num_machines < 2:
                continue
            vec = rng.integers(0, instance.num_machines, size=instance.num_tasks)
            ev = MappingEvaluator(instance, vec)
            for _ in range(30):
                task = int(rng.integers(0, instance.num_tasks))
                machine = int(rng.integers(0, instance.num_machines))
                predicted = ev.candidate_period(task, machine)
                vector = reference_candidate_periods(ev, task)
                new_period = ev.move(task, machine)
                truth = evaluate(instance, ev.mapping).period
                assert predicted == pytest.approx(truth, rel=1e-9)
                assert vector[machine] == pytest.approx(truth, rel=1e-9)
                assert new_period == pytest.approx(truth, rel=1e-9)

    def test_candidate_periods_agrees_with_candidate_period(self):
        rng = np.random.default_rng(22)
        instance = _random_instance(rng)
        vec = rng.integers(0, instance.num_machines, size=instance.num_tasks)
        ev = MappingEvaluator(instance, vec)
        for task in range(instance.num_tasks):
            vector = reference_candidate_periods(ev, task)
            for machine in range(instance.num_machines):
                assert vector[machine] == pytest.approx(
                    ev.candidate_period(task, machine), rel=1e-12
                )

    def test_noop_move_keeps_period(self):
        rng = np.random.default_rng(23)
        instance = _random_instance(rng)
        vec = rng.integers(0, instance.num_machines, size=instance.num_tasks)
        ev = MappingEvaluator(instance, vec)
        before = ev.period
        assert ev.move(0, int(vec[0])) == before
        assert ev.candidate_period(0, int(vec[0])) == before

    def test_refresh_resyncs_exactly(self):
        rng = np.random.default_rng(24)
        instance = _random_instance(rng)
        if instance.num_machines < 2:
            instance = _random_instance(np.random.default_rng(25))
        vec = rng.integers(0, instance.num_machines, size=instance.num_tasks)
        ev = MappingEvaluator(instance, vec)
        for _ in range(50):
            ev.move(
                int(rng.integers(0, instance.num_tasks)),
                int(rng.integers(0, instance.num_machines)),
            )
        ev.refresh()
        scalar = evaluate(instance, ev.mapping)
        assert ev.period == scalar.period
        assert tuple(ev.machine_periods) == scalar.machine_periods

    def test_rejects_invalid_arguments(self):
        rng = np.random.default_rng(26)
        instance = _random_instance(rng)
        vec = rng.integers(0, instance.num_machines, size=instance.num_tasks)
        ev = MappingEvaluator(instance, vec)
        with pytest.raises(InvalidMappingError):
            ev.move(instance.num_tasks, 0)
        with pytest.raises(InvalidMappingError):
            ev.move(0, instance.num_machines)
        with pytest.raises(InvalidMappingError):
            MappingEvaluator(instance, np.zeros(instance.num_tasks + 1, dtype=int))
