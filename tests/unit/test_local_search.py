"""Unit tests for H4ls and the specialized local-search machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import MappingEvaluator
from repro.core import (
    Application,
    FailureModel,
    Mapping,
    MappingRule,
    Platform,
    ProblemInstance,
    TypeAssignment,
    evaluate,
)
from repro.heuristics import available_heuristics, get_heuristic
from repro.heuristics.local_search import descend, refine_specialized, specialized_move_mask
from tests.helpers import make_random_instance, reference_best_move, reference_descend


class TestSpecializedMoveMask:
    def test_mask_allows_only_type_compatible_destinations(self, small_instance):
        # chain4: types [0, 1, 0, 1]; machines 0/1 host type 0, machine 2
        # hosts type 1.
        assignment = np.array([0, 2, 1, 2])
        mask = specialized_move_mask(small_instance, assignment)
        # Tasks of type 0 may go to machines 0 and 1 (dedicated to type 0)
        # but not to machine 2 (hosts type 1).
        assert mask[0].tolist() == [True, True, False]
        assert mask[2].tolist() == [True, True, False]
        # Tasks of type 1 may only go to machine 2.
        assert mask[1].tolist() == [False, False, True]
        assert mask[3].tolist() == [False, False, True]

    def test_empty_machines_accept_every_type(self, small_instance):
        assignment = np.array([0, 0, 0, 0])  # machines 1 and 2 empty
        mask = specialized_move_mask(small_instance, assignment)
        assert mask[:, 1].all() and mask[:, 2].all()

    def test_every_allowed_move_keeps_the_mapping_specialized(self):
        instance = make_random_instance(8, 3, 5, seed=3)
        mapping = get_heuristic("H4w").solve(instance).mapping
        assignment = mapping.as_array
        mask = specialized_move_mask(instance, assignment)
        for task in range(instance.num_tasks):
            for machine in range(instance.num_machines):
                if not mask[task, machine]:
                    continue
                moved = assignment.copy()
                moved[task] = machine
                Mapping(moved, instance.num_machines).validate(
                    instance, MappingRule.SPECIALIZED
                )


class TestRefineSpecialized:
    def test_refinement_never_increases_period(self):
        for seed in range(10):
            instance = make_random_instance(10, 3, 6, seed=seed)
            seed_mapping = get_heuristic("H4w").solve(instance).mapping
            refined, moves = refine_specialized(instance, seed_mapping)
            assert evaluate(instance, refined).period <= evaluate(
                instance, seed_mapping
            ).period
            assert moves >= 0

    def test_refined_mapping_is_a_local_optimum(self):
        instance = make_random_instance(9, 2, 5, seed=4)
        seed_mapping = get_heuristic("H4w").solve(instance).mapping
        refined, _ = refine_specialized(instance, seed_mapping)
        evaluator = MappingEvaluator(instance, refined)
        mask = specialized_move_mask(instance, refined.as_array)
        assert evaluator.best_move(allowed=mask) is None

    def test_max_moves_caps_the_descent(self):
        instance = make_random_instance(12, 2, 6, seed=8)
        # An intentionally bad (but specialized) seed: everything on the
        # machines H4f would pick — plenty of improving moves available.
        bad = get_heuristic("H4f").solve(instance).mapping
        _, unlimited = refine_specialized(instance, bad)
        if unlimited == 0:
            pytest.skip("seed mapping already locally optimal")
        _, capped = refine_specialized(instance, bad, max_moves=1)
        assert capped == 1


def _tie_heavy_instance(draw, *, max_tasks: int, max_machines: int) -> ProblemInstance:
    """A chain or random in-forest with many equal candidate periods.

    ``w`` is drawn from a few integers per type and some machine columns
    (``w`` and ``f`` alike) are copies of others, so equal candidate
    periods across tasks and machines are common.
    """
    n = draw(st.integers(1, max_tasks))
    m = draw(st.integers(1, max_machines))
    p = draw(st.integers(1, min(n, 3)))
    types = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    types[:p] = range(p)
    if draw(st.booleans()):
        app = Application.chain(TypeAssignment(types, num_types=p))
    else:
        successors = [draw(st.none() | st.integers(i + 1, n - 1)) for i in range(n - 1)]
        edges = [(i, j) for i, j in enumerate(successors) if j is not None]
        app = Application(TypeAssignment(types, num_types=p), edges)
    grid = st.lists(st.integers(1, 3), min_size=m, max_size=m)
    per_type_w = np.asarray(draw(st.lists(grid, min_size=p, max_size=p)), dtype=np.float64)
    w = per_type_w[np.asarray(types)]
    rate = st.sampled_from([0.0, 0.01, 0.05, 0.2])
    f = np.asarray(draw(st.lists(st.lists(rate, min_size=m, max_size=m), min_size=n, max_size=n)))
    for target in range(m):
        source = draw(st.integers(0, target))
        w[:, target], f[:, target] = w[:, source], f[:, source]
    return ProblemInstance(app, Platform(w), FailureModel(f))


@st.composite
def _probe_states(draw):
    """An evaluator mid-descent, plus an ``allowed`` mask and ``rel_tol``.

    Tie-heavy on purpose (:func:`_tie_heavy_instance`).  The mapping is
    arbitrary (not necessarily specialized) and a few moves are applied
    before the probe, so the incremental state is exercised too.
    """
    instance = _tie_heavy_instance(draw, max_tasks=12, max_machines=6)
    n, m = instance.num_tasks, instance.num_machines
    assignment = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    evaluator = MappingEvaluator(instance, np.asarray(assignment))
    for _ in range(draw(st.integers(0, 3))):
        evaluator.move(draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)))
    allowed = None
    if draw(st.booleans()):
        cells = st.lists(st.booleans(), min_size=m, max_size=m)
        allowed = np.asarray(draw(st.lists(cells, min_size=n, max_size=n)), dtype=bool)
        allowed[draw(st.integers(0, n - 1))] = False  # an all-False row
    rel_tol = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    return evaluator, allowed, rel_tol


@settings(max_examples=200)
@given(state=_probe_states())
def test_best_move_equals_the_per_task_scan(state):
    """One probe per step picks exactly the per-task scan's move."""
    evaluator, allowed, rel_tol = state
    expected = reference_best_move(evaluator, allowed=allowed, rel_tol=rel_tol)
    assert evaluator.best_move(allowed=allowed, rel_tol=rel_tol) == expected


@st.composite
def _descent_states(draw):
    """A start mapping for :func:`descend`, with ``up``, ``max_moves`` and ``rel_tol``.

    The start is specialized (a greedy seed) or arbitrary; ``up`` is
    ``None`` or a random machine mask (machines the mapping uses may be
    down: their tasks can still move off); the cap is ``None`` or small
    enough to stop descents early.
    """
    instance = _tie_heavy_instance(draw, max_tasks=14, max_machines=7)
    n, m = instance.num_tasks, instance.num_machines
    if draw(st.booleans()) and m >= instance.num_types:
        start = get_heuristic(draw(st.sampled_from(["H4w", "H4f", "H2"]))).solve(instance)
        assignment = start.mapping.as_array.copy()
    else:
        assignment = np.asarray(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    up = None
    if draw(st.booleans()):
        up = np.asarray(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    max_moves = draw(st.none() | st.integers(0, 4))
    rel_tol = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    return instance, assignment, up, max_moves, rel_tol


@settings(max_examples=300)
@given(state=_descent_states())
def test_descend_equals_the_rebuilt_mask_descent(state):
    """Keeping the move mask gives every move and every bit of a rebuild per step."""
    instance, assignment, up, max_moves, rel_tol = state
    kept = MappingEvaluator(instance, assignment)
    rebuilt = MappingEvaluator(instance, assignment)
    moves = descend(kept, up=up, max_moves=max_moves, rel_tol=rel_tol)
    expected = reference_descend(rebuilt, up=up, max_moves=max_moves, rel_tol=rel_tol)
    assert moves == len(expected)
    assert kept.assignment.tolist() == rebuilt.assignment.tolist()
    assert kept.expected_products.tobytes() == rebuilt.expected_products.tobytes()
    assert kept.machine_periods.tobytes() == rebuilt.machine_periods.tobytes()


def test_descend_recomputes_both_touched_columns():
    """A move that empties its source machine opens it to every type."""
    # Chain of types [0, 1, 1] on [M2, M0, M0].  The first move takes
    # task 0 from M2 to M1 and leaves M2 empty; the second then moves
    # task 1 (type 1) to M2, which a stale source column would refuse.
    app = Application.chain(TypeAssignment([0, 1, 1], num_types=2))
    w = np.array([[6.0, 2.0, 9.0], [4.0, 2.0, 1.0], [4.0, 7.0, 3.0]])
    instance = ProblemInstance(app, Platform(w), FailureModel(np.zeros((3, 3))))
    kept = MappingEvaluator(instance, np.array([2, 0, 0]))
    rebuilt = MappingEvaluator(instance, np.array([2, 0, 0]))
    assert reference_descend(rebuilt) == [(0, 1), (1, 2)]
    assert descend(kept) == 2
    assert kept.assignment.tolist() == rebuilt.assignment.tolist() == [1, 2, 0]


def test_descend_keeps_an_emptied_down_machine_closed():
    """A task may leave a down machine, but nothing may move onto it."""
    # Types [0, 1, 1] on [M1, M0, M2] with M0 down: task 1 leaves M0 for
    # M2, and the emptied M0 must stay closed to task 0.
    app = Application.chain(TypeAssignment([0, 1, 1], num_types=2))
    w = np.array([[2.0, 7.0, 7.0], [9.0, 3.0, 4.0], [2.0, 1.0, 1.0]])
    instance = ProblemInstance(app, Platform(w), FailureModel(np.zeros((3, 3))))
    up = np.array([False, True, True])
    kept = MappingEvaluator(instance, np.array([1, 0, 2]))
    rebuilt = MappingEvaluator(instance, np.array([1, 0, 2]))
    assert reference_descend(rebuilt, up=up) == [(1, 2)]
    assert descend(kept, up=up) == 1
    assert kept.assignment.tolist() == rebuilt.assignment.tolist() == [1, 2, 2]


class TestBestMove:
    def test_best_move_matches_exhaustive_probe(self):
        instance = make_random_instance(7, 2, 4, seed=5)
        evaluator = MappingEvaluator(
            instance, get_heuristic("RoundRobin").solve(instance).mapping
        )
        move = evaluator.best_move()
        probes = {
            (task, machine): evaluator.candidate_period(task, machine)
            for task in range(instance.num_tasks)
            for machine in range(instance.num_machines)
        }
        best_value = min(probes.values())
        if best_value < evaluator.period * (1.0 - 1e-12):
            assert move is not None
            task, machine, value = move
            assert value == pytest.approx(best_value, rel=1e-12)
        else:
            assert move is None

    def test_allowed_mask_shape_checked(self, small_instance):
        evaluator = MappingEvaluator(small_instance, np.array([0, 2, 1, 2]))
        with pytest.raises(Exception):
            evaluator.best_move(allowed=np.ones((2, 2), dtype=bool))


class TestH4ls:
    def test_registered(self):
        assert "H4ls" in available_heuristics()

    def test_never_worse_than_h4w(self):
        for seed in range(15):
            instance = make_random_instance(10, 3, 6, seed=seed)
            h4w = get_heuristic("H4w").solve(instance)
            h4ls = get_heuristic("H4ls").solve(instance)
            assert h4ls.period <= h4w.period
            h4ls.mapping.validate(instance, MappingRule.SPECIALIZED)

    def test_strictly_improves_somewhere(self):
        improved = 0
        for seed in range(15):
            instance = make_random_instance(10, 3, 6, seed=seed)
            if (
                get_heuristic("H4ls").solve(instance).period
                < get_heuristic("H4w").solve(instance).period
            ):
                improved += 1
        assert improved > 0

    def test_metadata_reports_base_and_moves(self):
        instance = make_random_instance(10, 3, 6, seed=0)
        result = get_heuristic("H4ls").solve(instance)
        assert result.metadata["base"] == "H4w"
        assert result.metadata["moves"] >= 0
        assert result.period <= result.metadata["seed_period"]
