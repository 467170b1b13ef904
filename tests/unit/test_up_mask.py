"""Solves under an up-mask equal solves of the renumbered sub-platform.

``solve_one(h, instance, rng, up=up)`` solves the full platform with the
machines ``up`` marks down pre-owned by a phantom type.  Its oracle is
:func:`tests.helpers.sub_instance`: the platform renumbered down to its
up machines, solved from scratch, and mapped back through the column
map.  Every registered heuristic must agree with it bit for bit, with
equal seeded generators on both sides for the randomized ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, FailureModel, Platform, ProblemInstance, TypeAssignment
from repro.exceptions import InfeasibleProblemError
from repro.heuristics import available_heuristics, get_heuristic
from repro.heuristics.base import solve_one
from tests.helpers import make_random_instance, sub_instance

HEURISTICS = tuple(available_heuristics())


def _oracle(name: str, instance: ProblemInstance, up: np.ndarray, seed: int) -> np.ndarray:
    sub, cols = sub_instance(instance, up)
    return cols[solve_one(get_heuristic(name), sub, np.random.default_rng(seed))]


def _masked(heuristic, instance: ProblemInstance, up: np.ndarray, seed: int) -> np.ndarray:
    return solve_one(heuristic, instance, np.random.default_rng(seed), up=up)


@st.composite
def masked_instances(draw):
    """A chain or in-forest instance plus 1-3 up-masks with >= p machines up.

    Half the instances draw ``w`` from a few integers and copy machine
    columns, so H2's ranks, H3's heterogeneity groups and the greedy
    scores tie often.  Up counts of exactly ``p`` are common, where the
    free-machine guard binds on every step.
    """
    p = draw(st.integers(1, 4))
    m = draw(st.integers(p, p + 7))
    n = draw(st.integers(p, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    generator = np.random.default_rng(seed)
    types = generator.integers(0, p, size=n).tolist()
    types[:p] = range(p)
    if draw(st.booleans()):
        app = Application.chain(TypeAssignment(types, num_types=p))
    else:
        successors = [
            None if generator.random() < 0.3 else int(generator.integers(i + 1, n))
            for i in range(n - 1)
        ]
        edges = [(i, j) for i, j in enumerate(successors) if j is not None]
        app = Application(TypeAssignment(types, num_types=p), edges)
    if draw(st.booleans()):
        per_type = generator.integers(1, 5, size=(p, m)).astype(np.float64)
        f = generator.choice([0.0, 0.01, 0.05], size=(n, m))
        for column in range(1, m):
            if generator.random() < 0.3:
                source = int(generator.integers(0, column))
                per_type[:, column], f[:, column] = per_type[:, source], f[:, source]
    else:
        per_type = generator.uniform(100.0, 1000.0, size=(p, m))
        f = generator.uniform(0.0, 0.1, size=(n, m))
    w = per_type[np.asarray(types)]
    instance = ProblemInstance(app, Platform(w, types=app.types), FailureModel(f))
    masks = []
    for _ in range(draw(st.integers(1, 3))):
        up_count = draw(st.one_of(st.just(p), st.integers(p, m)))
        up = np.zeros(m, dtype=bool)
        up[generator.permutation(m)[:up_count]] = True
        masks.append(up)
    return instance, masks


@settings(max_examples=150, deadline=None)
@given(case=masked_instances(), seed=st.integers(0, 2**16))
def test_masked_solve_equals_the_sub_instance_solve(case, seed):
    instance, masks = case
    for name in HEURISTICS:
        # One heuristic object across masks: its kept walk inputs serve
        # every masked solve of the instance.
        heuristic = get_heuristic(name)
        for up in masks:
            got = _masked(heuristic, instance, up, seed)
            assert got.tolist() == _oracle(name, instance, up, seed).tolist(), name
            assert up[got].all()
            # The whole search agrees too: H2/H3's bisection bracket and
            # walk count, H4ls's move count and seed period.
            _, iterations, metadata = heuristic.solve_mapping(
                instance, np.random.default_rng(seed), up=up
            )
            sub, _ = sub_instance(instance, up)
            _, sub_iterations, sub_metadata = get_heuristic(name).solve_mapping(
                sub, np.random.default_rng(seed)
            )
            assert (iterations, metadata) == (sub_iterations, sub_metadata), name


def _proportional_instance() -> ProblemInstance:
    """Every column orders the tasks alike, so H2's ranks tie across
    machines and ``w`` decides: machine 2 (the fastest) is every task's
    first H2 preference."""
    types = [0, 1, 2, 0, 1, 2, 0, 1]
    app = Application.chain(TypeAssignment(types, num_types=3))
    base = np.array([3.0, 5.0, 7.0])[np.asarray(types)]
    speed = np.array([2.0, 1.5, 1.0, 3.0, 2.5])
    f = np.random.default_rng(4).uniform(0.0, 0.05, size=(len(types), speed.size))
    w = np.outer(base, speed)
    return ProblemInstance(app, Platform(w, types=app.types), FailureModel(f))


@pytest.mark.parametrize("name", HEURISTICS)
def test_a_down_first_preference_of_every_task(name):
    instance = _proportional_instance()
    h2 = get_heuristic("H2")
    _, preference = h2.walk_inputs(instance)
    assert {order[0] for order in preference.orders} == {2}
    up = np.ones(instance.num_machines, dtype=bool)
    up[2] = False
    assert _masked(get_heuristic(name), instance, up, 7).tolist() == (
        _oracle(name, instance, up, 7).tolist()
    )


def _tie_group_instance() -> ProblemInstance:
    """Machines 1, 2 and 3 are copies: one H3 tie group of three."""
    instance = make_random_instance(12, 3, 6, seed=9)
    w, f = instance.processing_times.copy(), instance.failure_rates.copy()
    w[:, 2] = w[:, 3] = w[:, 1]
    f[:, 2] = f[:, 3] = f[:, 1]
    app = instance.application
    return ProblemInstance(app, Platform(w, types=app.types), FailureModel(f))


@pytest.mark.parametrize("name", HEURISTICS)
@pytest.mark.parametrize("down", [1, 2, 3])
def test_a_down_machine_inside_an_h3_tie_group(name, down):
    instance = _tie_group_instance()
    _, preference = get_heuristic("H3").walk_inputs(instance)
    assert list(preference.mates[0][1]) == [2, 3]
    up = np.ones(instance.num_machines, dtype=bool)
    up[down] = False
    assert _masked(get_heuristic(name), instance, up, 3).tolist() == (
        _oracle(name, instance, up, 3).tolist()
    )


@pytest.mark.parametrize("name", HEURISTICS)
def test_an_all_up_mask_equals_the_plain_solve(name):
    instance = make_random_instance(20, 4, 9, seed=2)
    up = np.ones(instance.num_machines, dtype=bool)
    plain = solve_one(get_heuristic(name), instance, np.random.default_rng(5))
    assert _masked(get_heuristic(name), instance, up, 5).tolist() == plain.tolist()


@pytest.mark.parametrize("name", HEURISTICS)
def test_fewer_up_machines_than_types_raises(name):
    instance = make_random_instance(10, 3, 6, seed=1)
    up = np.zeros(instance.num_machines, dtype=bool)
    up[[0, 4]] = True
    with pytest.raises(InfeasibleProblemError, match="2 up machine"):
        _masked(get_heuristic(name), instance, up, 0)
