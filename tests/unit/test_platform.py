"""Unit tests for repro.core.platform."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.platform import Machine, Platform
from repro.core.types import TypeAssignment
from repro.exceptions import InvalidPlatformError


class TestMachine:
    def test_attributes(self):
        m = Machine(1, "robot-arm")
        assert m.index == 1
        assert str(m) == "robot-arm"
        assert str(Machine(0)) == "M1"

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Machine(-2)


class TestPlatformConstruction:
    def test_basic(self):
        p = Platform([[100.0, 200.0], [300.0, 400.0]])
        assert p.num_tasks == 2
        assert p.num_machines == 2
        assert len(p) == 2
        assert p.time(1, 0) == 300.0

    def test_rejects_non_positive_times(self):
        with pytest.raises(InvalidPlatformError):
            Platform([[100.0, 0.0]])
        with pytest.raises(InvalidPlatformError):
            Platform([[100.0, -5.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidPlatformError):
            Platform([[100.0, np.inf]])
        with pytest.raises(InvalidPlatformError):
            Platform([[np.nan, 100.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidPlatformError):
            Platform([100.0, 200.0])
        with pytest.raises(InvalidPlatformError):
            Platform(np.empty((0, 3)))

    def test_names(self):
        p = Platform([[1.0, 2.0]], names=["a", "b"])
        assert p[1].name == "b"
        with pytest.raises(InvalidPlatformError):
            Platform([[1.0, 2.0]], names=["only-one"])

    def test_machines_are_built_from_the_names(self):
        named = Platform([[1.0, 2.0]], names=["a", "b"])
        assert named.machines == (Machine(0, "a"), Machine(1, "b"))
        assert list(named) == list(named.machines)
        unnamed = Platform([[1.0, 2.0, 3.0]])
        assert unnamed.machines == (Machine(0), Machine(1), Machine(2))
        assert unnamed[2] == Machine(2)
        assert unnamed.to_dict()["names"] == ["", "", ""]

    def test_pickle_keeps_the_names(self):
        import pickle

        p = Platform([[1.0, 2.0]], names=["a", "b"])
        clone = pickle.loads(pickle.dumps(p))
        assert clone.machines == p.machines
        assert np.array_equal(clone.processing_times, p.processing_times)

    def test_matrix_is_read_only_copy(self):
        raw = np.array([[1.0, 2.0]])
        p = Platform(raw)
        raw[0, 0] = 99.0
        assert p.time(0, 0) == 1.0
        with pytest.raises(ValueError):
            p.processing_times[0, 0] = 5.0

    def test_type_consistency_enforced(self):
        types = TypeAssignment([0, 0])
        with pytest.raises(InvalidPlatformError):
            Platform([[100.0, 200.0], [150.0, 200.0]], types=types)

    def test_type_consistency_can_be_disabled(self):
        types = TypeAssignment([0, 0])
        p = Platform(
            [[100.0, 200.0], [150.0, 200.0]],
            types=types,
            enforce_type_consistency=False,
        )
        assert p.num_tasks == 2

    def test_type_consistency_ok_when_rows_match(self):
        types = TypeAssignment([0, 1, 0])
        w = [[100.0, 200.0], [50.0, 60.0], [100.0, 200.0]]
        assert Platform(w, types=types).num_tasks == 3


class TestPlatformConstructors:
    def test_homogeneous(self):
        p = Platform.homogeneous(3, 4, 250.0)
        assert p.is_homogeneous()
        assert p.processing_times.shape == (3, 4)
        assert np.all(p.processing_times == 250.0)

    def test_homogeneous_validation(self):
        with pytest.raises(InvalidPlatformError):
            Platform.homogeneous(0, 3, 10.0)
        with pytest.raises(InvalidPlatformError):
            Platform.homogeneous(3, 3, -1.0)

    def test_from_type_times(self):
        types = TypeAssignment([0, 1, 0])
        p = Platform.from_type_times(types, [[100.0, 200.0], [300.0, 400.0]])
        assert p.time(0, 1) == 200.0
        assert p.time(1, 1) == 400.0
        assert p.time(2, 0) == 100.0

    def test_from_type_times_validation(self):
        types = TypeAssignment([0, 1])
        with pytest.raises(InvalidPlatformError):
            Platform.from_type_times(types, [[100.0, 200.0]])  # missing type row
        with pytest.raises(InvalidPlatformError):
            Platform.from_type_times(types, [100.0, 200.0])


class TestPlatformQueries:
    def test_heterogeneity_is_column_std(self):
        w = np.array([[100.0, 500.0], [300.0, 500.0]])
        p = Platform(w)
        het = p.machine_heterogeneity()
        assert het[0] == pytest.approx(np.std([100.0, 300.0]))
        assert het[1] == 0.0

    def test_is_homogeneous_false(self):
        assert not Platform([[1.0, 2.0]]).is_homogeneous()

    def test_slowest_sequential_period_unweighted(self):
        p = Platform([[100.0, 10.0], [200.0, 10.0]])
        assert p.slowest_sequential_period() == 300.0

    def test_slowest_sequential_period_weighted(self):
        p = Platform([[100.0, 10.0], [200.0, 10.0]])
        assert p.slowest_sequential_period(np.array([2.0, 1.0])) == 400.0

    def test_slowest_sequential_period_shape_check(self):
        p = Platform([[100.0, 10.0]])
        with pytest.raises(InvalidPlatformError):
            p.slowest_sequential_period(np.array([1.0, 2.0]))

    def test_restrict_tasks(self):
        p = Platform([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        sub = p.restrict_tasks([0, 2])
        assert sub.num_tasks == 2
        assert sub.time(1, 1) == 6.0
        with pytest.raises(InvalidPlatformError):
            p.restrict_tasks([])

    def test_round_trip_serialization(self):
        p = Platform([[1.0, 2.0], [3.0, 4.0]], names=["x", "y"])
        clone = Platform.from_dict(p.to_dict())
        assert np.array_equal(clone.processing_times, p.processing_times)
        assert clone[0].name == "x"
