"""The H2/H3 greedy walk and its proof-skipping bisection.

``BinarySearchHeuristic.solve_mapping`` probes with :func:`greedy_walk`
and settles midpoints covered by an earlier walk's proof interval
without walking.  The oracle in :mod:`tests.helpers` is the plain
bisection: an :class:`~tests.helpers.AssignmentState` probe with a
sorted machine preference at every midpoint.  Both must agree on the
mapping, the iteration count and the final bracket.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FailureModel, Platform, ProblemInstance
from repro.core.application import in_tree
from repro.exceptions import ReproError
from repro.generators import random_chain_application
from repro.heuristics import binary_search, get_heuristic
from repro.heuristics.binary_search import greedy_walk
from tests.helpers import make_random_instance, reference_bisection

NAMES = ("H2", "H3")


@st.composite
def tie_heavy_instances(draw):
    """Small chains biased towards ties in every key the walk compares.

    Integer processing times tie completion times and H2's ``w``
    tie-break; copied machine columns tie H3's heterogeneity (a whole
    tie group) and H2's ranks; ``m == p`` exercises the free-machine
    guard on every step.
    """
    p = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.one_of(st.just(p), st.integers(min_value=p, max_value=p + 8)))
    n = draw(st.integers(min_value=p, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    generator = np.random.default_rng(seed)
    app = random_chain_application(n, p, generator)
    if draw(st.booleans()):
        per_type = generator.integers(1, 6, size=(p, m)).astype(np.float64)
    else:
        per_type = generator.uniform(100.0, 1000.0, size=(p, m))
    f = generator.uniform(0.0, 0.05, size=(n, m))
    copies = draw(st.integers(min_value=0, max_value=m - 1))
    for column in generator.choice(m, size=copies, replace=True):
        per_type[:, column] = per_type[:, 0]
        f[:, column] = f[:, 0]
    if draw(st.booleans()):
        f[:] = 0.0
    w = per_type[app.types.as_array, :]
    return ProblemInstance(app, Platform(w, types=app.types), FailureModel(f))


def assert_matches_reference(heuristic, name, instance, **options):
    reference, iterations, low, high, probes = reference_bisection(name, instance, **options)
    mapping, got_iterations, metadata = heuristic.solve_mapping(instance)
    assert reference is not None
    assert mapping.as_array.tolist() == reference.tolist()
    assert got_iterations == iterations
    assert (metadata["final_low"], metadata["final_high"]) == (low, high)
    assert metadata["walks"] <= probes


@settings(max_examples=40, deadline=None)
@given(
    instance=tie_heavy_instances(),
    name=st.sampled_from(NAMES),
    max_iterations=st.sampled_from([1, 2, 3, 5, 128]),
)
def test_solve_mapping_equals_the_plain_bisection(instance, name, max_iterations):
    with mock.patch.object(binary_search, "MAX_BISECTION_STEPS", max_iterations):
        assert_matches_reference(
            get_heuristic(name), name, instance, max_iterations=max_iterations
        )


@settings(max_examples=20, deadline=None)
@given(
    instance=tie_heavy_instances(),
    name=st.sampled_from(NAMES),
    scale=st.sampled_from([0.05, 0.3, 0.6]),
)
def test_doubled_bound_fallback_equals_the_plain_bisection(instance, name, scale):
    # Start the bisection below the worst-case bound, where the first
    # walk may fail: both solvers double the bound once, then either
    # agree on the bisection or both give up.
    bound = scale * binary_search.worst_case_period_bound(instance)
    reference = reference_bisection(name, instance, bound=bound)
    with mock.patch.object(binary_search, "worst_case_period_bound", lambda *_: bound):
        if reference[0] is None:
            with pytest.raises(ReproError):
                get_heuristic(name).solve_mapping(instance)
        else:
            assert_matches_reference(get_heuristic(name), name, instance, bound=bound)


@pytest.mark.parametrize("name", NAMES)
def test_integer_bisection_stops_when_a_step_repeats(name):
    # One machine: every target below the worst-case bound fails, so
    # ``low`` climbs through integers to 1420 under a bound of 1421.46.
    # There ``mid == low``, the step changes nothing, and the loop ends
    # instead of repeating it up to ``max_iterations``.
    instance = make_random_instance(4, 1, 1, seed=0)
    mapping, iterations, metadata = get_heuristic(name).solve_mapping(instance)
    high = binary_search.worst_case_period_bound(instance)
    assert (metadata["final_low"], metadata["final_high"]) == (1420.0, high)
    assert high == pytest.approx(1421.4588)
    # Eleven steps raise ``low`` (710, 1065, ..., 1419, 1420); the
    # twelfth repeats 1420.
    assert iterations == 12
    assert metadata["walks"] == 3
    assert mapping.as_array.tolist() == [0, 0, 0, 0]
    assert_matches_reference(get_heuristic(name), name, instance)


@pytest.mark.parametrize("name", NAMES)
def test_doubled_bound_fallback_on_a_fixed_instance(name):
    # The sequential solve's final lower bound is a period the greedy
    # placement cannot meet, and twice it can be met.
    instance = make_random_instance(30, 3, 8, seed=23)
    low = get_heuristic(name).solve_mapping(instance)[2]["final_low"]
    heuristic = get_heuristic(name)
    tables, preference = heuristic.build_walk_inputs(instance)
    assert greedy_walk(tables, preference, low)[0] is None
    assert greedy_walk(tables, preference, 2.0 * low)[0] is not None
    with mock.patch.object(binary_search, "worst_case_period_bound", lambda *_: low):
        assert_matches_reference(get_heuristic(name), name, instance, bound=low)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walk_proofs_hold_at_their_ends(name, seed):
    instance = make_random_instance(40, 4, 12, seed=seed)
    heuristic = get_heuristic(name)
    tables, preference = heuristic.build_walk_inputs(instance)
    period = get_heuristic(name).solve_mapping(instance)[2]["final_high"]
    checked = {"placed": 0, "failed": 0}
    for target in np.linspace(0.5, 1.5, 21) * period:
        target = float(target)
        assignment, proof = greedy_walk(tables, preference, target)
        if assignment is not None:
            assert proof <= target
            for other in (proof, target):
                assert greedy_walk(tables, preference, other) == (assignment, proof)
            checked["placed"] += 1
        else:
            assert proof > target
            below_hi = math.nextafter(proof, -math.inf) if math.isfinite(proof) else 2 * period
            for other in (target, below_hi):
                assert greedy_walk(tables, preference, other)[0] is None
            checked["failed"] += 1
    assert checked["placed"] and checked["failed"]


@pytest.mark.parametrize("name", NAMES)
def test_proofs_skip_walks(name):
    instance = make_random_instance(100, 5, 50, seed=7)
    _, iterations, metadata = get_heuristic(name).solve_mapping(instance)
    assert metadata["walks"] < iterations + 1


def test_walk_on_an_in_tree_matches_the_reference():
    # Three branches joining a shared tail: the successor table, not a
    # chain order, carries each task's downstream demand.
    app = in_tree([3, 2, 4], 3, shared_tail_length=2)
    generator = np.random.default_rng(5)
    per_type = generator.integers(1, 9, size=(3, 5)).astype(np.float64)
    w = per_type[app.types.as_array, :]
    f = generator.uniform(0.0, 0.05, size=(app.num_tasks, 5))
    instance = ProblemInstance(app, Platform(w, types=app.types), FailureModel(f))
    for name in NAMES:
        assert_matches_reference(get_heuristic(name), name, instance)
