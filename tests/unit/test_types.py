"""Unit tests for repro.core.types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.failure import FailureModel
from repro.core.platform import Platform
from repro.core.types import (
    TaskType,
    TypeAssignment,
    cyclic_type_assignment,
    random_type_assignment,
)
from repro.exceptions import (
    InvalidApplicationError,
    InvalidFailureModelError,
    InvalidPlatformError,
)


class TestTaskType:
    def test_basic_attributes(self):
        t = TaskType(2, "gripping")
        assert t.index == 2
        assert int(t) == 2
        assert str(t) == "gripping"

    def test_default_name(self):
        assert str(TaskType(0)) == "type0"

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidApplicationError):
            TaskType(-1)

    def test_equality_with_int_and_tasktype(self):
        assert TaskType(3) == 3
        assert TaskType(3) == TaskType(3, "other-name")
        assert TaskType(3) != TaskType(4)

    def test_hashable_by_index(self):
        assert {TaskType(1, "a"), TaskType(1, "b")} == {TaskType(1)}


class TestTypeAssignment:
    def test_length_and_indexing(self):
        ta = TypeAssignment([0, 1, 1, 0])
        assert len(ta) == 4
        assert ta[1] == 1
        assert list(ta) == [0, 1, 1, 0]

    def test_num_types_inferred(self):
        assert TypeAssignment([0, 2, 1]).num_types == 3

    def test_num_types_explicit_larger(self):
        assert TypeAssignment([0, 0], num_types=4).num_types == 4

    def test_num_types_explicit_too_small_rejected(self):
        with pytest.raises(InvalidApplicationError):
            TypeAssignment([0, 3], num_types=2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidApplicationError):
            TypeAssignment([])

    def test_negative_rejected(self):
        with pytest.raises(InvalidApplicationError):
            TypeAssignment([0, -1])

    def test_tasks_of_type(self):
        ta = TypeAssignment([0, 1, 0, 2, 1])
        assert ta.tasks_of_type(0).tolist() == [0, 2]
        assert ta.tasks_of_type(1).tolist() == [1, 4]
        assert ta.tasks_of_type(2).tolist() == [3]
        assert ta.tasks_of_type(7).tolist() == []

    def test_type_counts(self):
        counts = TypeAssignment([0, 1, 0, 2, 1]).type_counts()
        assert counts == {0: 2, 1: 2, 2: 1}

    def test_used_types_skips_unused(self):
        ta = TypeAssignment([0, 2], num_types=5)
        assert ta.used_types() == [0, 2]

    def test_equality(self):
        assert TypeAssignment([0, 1]) == TypeAssignment([0, 1])
        assert TypeAssignment([0, 1]) != TypeAssignment([1, 0])
        assert TypeAssignment([0, 1]) != TypeAssignment([0, 1], num_types=3)

    def test_validate_against(self):
        ta = TypeAssignment([0, 1, 0])
        ta.validate_against(3)
        with pytest.raises(InvalidApplicationError):
            ta.validate_against(4)

    def test_array_is_read_only(self):
        ta = TypeAssignment([0, 1])
        with pytest.raises(ValueError):
            ta.as_array[0] = 5


class TestGenerativeAssignments:
    def test_cyclic_covers_all_types(self):
        ta = cyclic_type_assignment(10, 3)
        assert ta.num_types == 3
        assert ta.used_types() == [0, 1, 2]
        assert list(ta)[:6] == [0, 1, 2, 0, 1, 2]

    def test_cyclic_rejects_more_types_than_tasks(self):
        with pytest.raises(InvalidApplicationError):
            cyclic_type_assignment(2, 3)

    def test_random_assignment_covers_all_types(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ta = random_type_assignment(8, 5, rng, ensure_all_types=True)
            assert ta.used_types() == [0, 1, 2, 3, 4]

    def test_random_assignment_reproducible(self):
        a = random_type_assignment(20, 4, np.random.default_rng(7))
        b = random_type_assignment(20, 4, np.random.default_rng(7))
        assert list(a) == list(b)

    def test_random_assignment_rejects_bad_dimensions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidApplicationError):
            random_type_assignment(0, 1, rng)
        with pytest.raises(InvalidApplicationError):
            random_type_assignment(3, 4, rng)


def _allclose_tolerance(ref: float) -> float:
    """``np.allclose``'s default tolerance around a reference value."""
    return 1e-08 + 1e-05 * abs(ref)


def _platform(rows, types):
    return Platform(rows, types=types)


def _failures(rows, types):
    return FailureModel(rows, types=types, enforce_type_consistency=True)


#: (builder, its error, a base value inside the matrix's valid range).
CONSISTENCY_CHECKS = [
    pytest.param(_platform, InvalidPlatformError, 100.0, id="platform"),
    pytest.param(_failures, InvalidFailureModelError, 0.1, id="failure-model"),
]


@pytest.mark.parametrize("build, error, base", CONSISTENCY_CHECKS)
class TestTypeConsistencyBoundary:
    """Same-type rows are compared with their type's *first* row under
    ``np.allclose``'s predicate ``|a - ref| <= 1e-08 + 1e-05 * |ref|``.

    Offsets of ``(1 ± 1e-6)`` tolerances sit inside the gap between that
    predicate and its variants: measuring from the other row, from the
    previous same-type row, or with ``rtol`` and ``atol`` swapped.
    """

    @staticmethod
    def _rows(*firsts: float) -> list[list[float]]:
        return [[value, value * 0.5] for value in firsts]

    def test_just_inside_above_passes(self, build, error, base):
        near = base + _allclose_tolerance(base) * (1 - 1e-6)
        build(self._rows(base, near), TypeAssignment([0, 0]))

    def test_just_inside_below_passes(self, build, error, base):
        near = base - _allclose_tolerance(base) * (1 - 1e-6)
        build(self._rows(base, near), TypeAssignment([0, 0]))

    def test_just_outside_above_raises(self, build, error, base):
        far = base + _allclose_tolerance(base) * (1 + 1e-6)
        with pytest.raises(error, match="tasks of type 0 "):
            build(self._rows(base, far), TypeAssignment([0, 0]))

    def test_just_outside_below_raises(self, build, error, base):
        far = base - _allclose_tolerance(base) * (1 + 1e-6)
        with pytest.raises(error, match="tasks of type 0 "):
            build(self._rows(base, far), TypeAssignment([0, 0]))

    def test_second_column_is_checked(self, build, error, base):
        far = base * 0.5 + _allclose_tolerance(base * 0.5) * (1 + 1e-6)
        with pytest.raises(error, match="tasks of type 0 "):
            build([[base, base * 0.5], [base, far]], TypeAssignment([0, 0]))

    def test_drift_is_measured_from_the_first_row(self, build, error, base):
        # Each row is within tolerance of the previous one, the last is not
        # within tolerance of the first.
        step = _allclose_tolerance(base) * 0.6
        rows = self._rows(base, base + step, base + 2 * step)
        with pytest.raises(error, match="tasks of type 0 "):
            build(rows, TypeAssignment([0, 0, 0]))

    def test_types_are_checked_separately(self, build, error, base):
        far = base + _allclose_tolerance(base) * 10
        build(self._rows(base, far, base, far), TypeAssignment([0, 1, 0, 1]))

    def test_error_names_the_lowest_violating_type(self, build, error, base):
        # Type 3 violates at an earlier task than type 2; type 0 and 1 hold.
        far = base + _allclose_tolerance(base) * 10
        types = TypeAssignment([3, 2, 3, 2, 0, 1, 0, 1])
        rows = self._rows(base, base, far, far, base, base, base, base)
        with pytest.raises(error, match="tasks of type 2 "):
            build(rows, types)

    def test_matches_allclose_per_type(self, build, error, base):
        rng = np.random.default_rng(3)
        types = TypeAssignment([0, 1, 2, 0, 1, 2, 0, 1, 2])
        for _ in range(200):
            offsets = rng.uniform(-1.2, 1.2, size=(9, 3)) * _allclose_tolerance(base)
            offsets[:3] = 0.0
            rows = np.full((9, 3), base) + offsets
            expected = next(
                (
                    t
                    for t in range(3)
                    if not np.allclose(rows[t::3], rows[t::3][0][None, :])
                ),
                None,
            )
            assert types.first_inconsistent_type(rows) == expected
            if expected is None:
                build(rows, types)
            else:
                with pytest.raises(error, match=f"tasks of type {expected} "):
                    build(rows, types)
