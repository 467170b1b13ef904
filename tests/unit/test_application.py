"""Unit tests for repro.core.application."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.application import Application, Task, in_tree, linear_chain
from repro.core.types import TypeAssignment
from repro.exceptions import InvalidApplicationError


class TestConstruction:
    def test_chain_constructor(self):
        app = Application.chain(TypeAssignment([0, 1, 0]))
        assert app.num_tasks == 3
        assert app.num_edges == 2
        assert app.is_chain()

    def test_single_task(self):
        app = Application(TypeAssignment([0]))
        assert app.num_tasks == 1
        assert app.is_chain()
        assert app.sinks() == [0]
        assert app.sources() == [0]

    def test_rejects_cycle(self):
        with pytest.raises(InvalidApplicationError):
            Application(TypeAssignment([0, 0, 0]), [(0, 1), (1, 2), (2, 0)])
        # A cycle beside a valid component leaves tasks the order never reaches.
        with pytest.raises(InvalidApplicationError, match="cycle"):
            Application(TypeAssignment([0, 0, 0, 0]), [(2, 3), (0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidApplicationError):
            Application(TypeAssignment([0, 0]), [(0, 0)])

    def test_rejects_fork(self):
        # Task 0 with two successors is a fork: physical products cannot split.
        with pytest.raises(InvalidApplicationError, match="fork"):
            Application(TypeAssignment([0, 0, 0]), [(0, 1), (0, 2)])
        with pytest.raises(InvalidApplicationError, match="fork"):
            Application(TypeAssignment([0, 0, 0]), [(0, 1), (0, 1), (0, 2)])

    def test_allows_join(self):
        app = Application(TypeAssignment([0, 0, 0]), [(0, 2), (1, 2)])
        assert app.predecessors(2) == (0, 1)
        assert app.successor(0) == 2

    def test_rejects_unknown_task_in_edge(self):
        with pytest.raises(InvalidApplicationError):
            Application(TypeAssignment([0, 0]), [(0, 5)])
        with pytest.raises(InvalidApplicationError):
            Application(TypeAssignment([0, 0]), [(-1, 0)])
        # Non-integral endpoints are rejected, not truncated to a task index.
        with pytest.raises(InvalidApplicationError, match="non-integer"):
            Application(TypeAssignment([0, 0, 0]), [(0, 1.7)])

    def test_names_length_checked(self):
        with pytest.raises(InvalidApplicationError):
            Application(TypeAssignment([0, 0]), [(0, 1)], names=["only-one"])
        with pytest.raises(InvalidApplicationError):
            Application.chain(TypeAssignment([0, 0]), names=["only-one"])

    def test_chain_tables_equal_the_generic_constructor(self):
        """``chain`` writes its tables directly; the edge walk must agree."""
        for n in range(1, 201):
            types = TypeAssignment([i % 3 for i in range(n)])
            names = [f"t{i}" for i in range(n)] if n % 2 else None
            fast = Application.chain(types, names)
            generic = Application(types, [(i, i + 1) for i in range(n - 1)], names)
            assert fast.successors == generic.successors
            assert fast.topological_order() == generic.topological_order()
            assert [fast.predecessors(i) for i in range(n)] == [
                generic.predecessors(i) for i in range(n)
            ]
            assert fast.to_dict() == generic.to_dict()
            assert fast.tasks == generic.tasks

    def test_task_objects(self):
        app = Application(TypeAssignment([0, 1]), [(0, 1)], names=["grip", "glue"])
        assert app[0].name == "grip"
        assert app[1].type_index == 1
        assert str(app[0]) == "grip"

    def test_tasks_are_built_from_types_and_names(self):
        app = Application(TypeAssignment([2, 0, 1]), [(0, 1)], names=["a", "b", "c"])
        expected = (Task(0, 2, "a"), Task(1, 0, "b"), Task(2, 1, "c"))
        assert app.tasks == expected
        assert tuple(app) == expected
        assert [app[i] for i in range(3)] == list(expected)
        assert app[-1] == expected[-1]
        assert app[1:] == expected[1:]
        with pytest.raises(IndexError):
            app[3]
        assert len(app) == app.num_tasks == 3

    def test_unnamed_tasks_have_empty_names(self):
        app = linear_chain(4, num_types=2)
        assert [task.name for task in app] == [""] * 4
        assert app.to_dict()["names"] == [""] * 4

    def test_pickle_round_trip(self):
        app = Application(TypeAssignment([0, 1, 0]), [(0, 2), (1, 2)], names=["x", "y", "z"])
        clone = pickle.loads(pickle.dumps(app))
        assert clone.to_dict() == app.to_dict()
        assert clone.tasks == app.tasks
        assert clone.topological_order() == app.topological_order()


class TestStructureQueries:
    def test_chain_order_and_topological(self):
        app = linear_chain(5, num_types=2)
        assert app.chain_order() == (0, 1, 2, 3, 4)
        assert app.topological_order() == (0, 1, 2, 3, 4)
        assert app.reverse_topological_order() == (4, 3, 2, 1, 0)

    def test_chain_order_rejected_for_tree(self):
        tree = in_tree([2, 2], num_types=2)
        with pytest.raises(InvalidApplicationError):
            tree.chain_order()

    def test_successor_and_predecessors_chain(self):
        app = linear_chain(4, num_types=2)
        assert app.successor(0) == 1
        assert app.successor(3) is None
        assert app.predecessors(0) == ()
        assert app.predecessors(2) == (1,)

    def test_unknown_task_raises(self):
        app = linear_chain(3, num_types=1)
        with pytest.raises(InvalidApplicationError):
            app.successor(9)
        with pytest.raises(InvalidApplicationError):
            app.predecessors(9)
        # Negative indices must not wrap onto the last task.
        with pytest.raises(InvalidApplicationError):
            app.successor(-1)
        with pytest.raises(InvalidApplicationError):
            app.predecessors(-1)

    def test_sources_and_sinks_for_tree(self):
        tree = in_tree([2, 3], num_types=2, shared_tail_length=2)
        # 2 + 3 branch tasks + 2 tail tasks = 7 tasks, one sink.
        assert tree.num_tasks == 7
        assert len(tree.sinks()) == 1
        assert len(tree.sources()) == 2
        assert not tree.is_chain()

    def test_depth_from_sink_chain(self):
        app = linear_chain(4, num_types=1)
        depth = app.depth_from_sink()
        assert depth == {0: 3, 1: 2, 2: 1, 3: 0}

    def test_tasks_of_type(self):
        app = Application.chain(TypeAssignment([0, 1, 0, 1, 0]))
        assert app.tasks_of_type(0) == [0, 2, 4]
        assert app.tasks_of_type(1) == [1, 3]

    def test_type_of(self):
        app = Application.chain(TypeAssignment([0, 1, 2]))
        assert [app.type_of(i) for i in range(3)] == [0, 1, 2]

    def test_is_chain_false_for_disconnected(self):
        app = Application(TypeAssignment([0, 0]), [])
        assert not app.is_chain()
        assert len(app.sinks()) == 2

    def test_successors_is_the_graph(self):
        tree = in_tree([2, 1], num_types=1)
        assert tree.successors == (1, 3, 3, None)
        assert tree.predecessors(3) == (1, 2)


class TestConstructors:
    def test_linear_chain_with_num_types(self):
        app = linear_chain(6, num_types=3)
        assert app.num_types == 3
        assert app.num_tasks == 6

    def test_linear_chain_with_explicit_types(self):
        app = linear_chain(3, types=[1, 1, 0])
        assert list(app.types) == [1, 1, 0]

    def test_linear_chain_defaults_to_unique_types(self):
        app = linear_chain(4)
        assert app.num_types == 4

    def test_linear_chain_rejects_both_arguments(self):
        with pytest.raises(InvalidApplicationError):
            linear_chain(3, num_types=2, types=[0, 0, 1])

    def test_linear_chain_rejects_mismatched_types_length(self):
        with pytest.raises(InvalidApplicationError):
            linear_chain(3, types=[0, 1])

    def test_constructor_accepts_numpy_int_edges(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        app = Application([0, 1, 0], [tuple(edge) for edge in edges])
        assert app.is_chain()
        assert app.to_dict()["edges"] == [(0, 1), (1, 2)]

    def test_in_tree_structure(self):
        tree = in_tree([1, 1, 1], num_types=2, shared_tail_length=1)
        assert tree.num_tasks == 4
        join = tree.sinks()[0]
        assert len(tree.predecessors(join)) == 3

    def test_in_tree_validation(self):
        with pytest.raises(InvalidApplicationError):
            in_tree([], num_types=1)
        with pytest.raises(InvalidApplicationError):
            in_tree([0, 2], num_types=1)
        with pytest.raises(InvalidApplicationError):
            in_tree([2, 2], num_types=1, shared_tail_length=0)


class TestSerialization:
    def test_round_trip_chain(self):
        app = linear_chain(5, num_types=2)
        clone = Application.from_dict(app.to_dict())
        assert clone.num_tasks == app.num_tasks
        assert list(clone.types) == list(app.types)
        assert clone.is_chain()

    def test_round_trip_tree(self):
        tree = in_tree([2, 2], num_types=3, shared_tail_length=2)
        clone = Application.from_dict(tree.to_dict())
        assert clone.num_tasks == tree.num_tasks
        assert clone.successors == tree.successors

    def test_round_trip_names(self):
        app = Application(TypeAssignment([0, 1]), [(0, 1)], names=["a", "b"])
        clone = Application.from_dict(app.to_dict())
        assert [t.name for t in clone.tasks] == ["a", "b"]
