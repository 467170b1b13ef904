"""Per-instance solve setup: walk tables built once per solve, H2's per-row orders,
H1's draws, the specialized-rule primitive and curve pricing."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, FailureModel, Mapping, Platform, ProblemInstance
from repro.core.mapping import hosts_one_type
from repro.core.types import TypeAssignment
from repro.exceptions import MappingRuleViolation
from repro.experiments.cost import classify_curve
from repro.experiments.providers import (
    MIP_LABEL,
    OTO_LABEL,
    HeuristicProvider,
    LocalSearchProvider,
    MilpProvider,
    OneToOneProvider,
    resolve_provider,
)
from repro.heuristics import (
    BinarySearchHeuristic,
    LocalSearchHeuristic,
    RandomHeuristic,
    available_heuristics,
    get_heuristic,
)
from repro.heuristics.base import WalkTables, solve_stack, validate_assignments
from repro.heuristics.binary_search import rank_orders
from tests.helpers import make_random_instance, reference_h1


def _instance(w, types, *, consistent):
    n, m = w.shape
    assignment = TypeAssignment(types)
    platform = (
        Platform(w, types=assignment, enforce_type_consistency=False)
        if consistent is False
        else Platform(w)
    )
    return ProblemInstance(
        Application.chain(assignment), platform, FailureModel.failure_free(n, m)
    )


def _reference_orders(w):
    order = np.argsort(w, axis=0, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(w.shape[0])[:, np.newaxis], axis=0)
    return np.lexsort((w, ranks), axis=1).tolist()


@st.composite
def tie_heavy(draw):
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 6))
    p = draw(st.integers(1, n))
    types = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    per_type = np.array(
        draw(st.lists(st.integers(1, 3), min_size=p * m, max_size=p * m)), dtype=float
    ).reshape(p, m)
    w = per_type[types]
    # Some tasks leave their type's row: still tie-heavy integers.
    for task in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        w[task] = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    return w, types, draw(st.sampled_from([None, False]))


@settings(max_examples=300, deadline=None)
@given(tie_heavy())
def test_h2_orders_equal_the_per_task_lexsort(case):
    w, types, consistent = case
    instance = _instance(w, types, consistent=consistent)
    assert rank_orders(w, WalkTables.build(instance)) == _reference_orders(w)


def test_h2_orders_equal_the_reference_on_generated_instances():
    for seed in range(10):
        instance = make_random_instance(60, 5, 20, seed=seed)
        w = instance.processing_times
        assert rank_orders(w, WalkTables.build(instance)) == _reference_orders(w)


def test_tables_share_exactly_equal_rows_only():
    w = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0 + 1e-12], [3.0, 4.0]])
    instance = _instance(w, [0, 0, 0, 1], consistent=False)
    tables = WalkTables.build(instance)
    assert tables.w[0] is tables.w[1]
    assert tables.w[2] is not tables.w[0]
    assert tables.w == w.tolist()
    assert tables.rows.tolist() == [0, 2, 3]


@pytest.mark.parametrize("n,p,m", [(1, 1, 1), (5, 2, 3), (30, 4, 12), (80, 10, 40)])
def test_h1_equals_the_choice_reference(n, p, m):
    for seed in range(25):
        instance = make_random_instance(n, p, m, seed=seed)
        expected, opened = reference_h1(instance, np.random.default_rng(seed))
        mapping, _, meta = get_heuristic("H1").solve_mapping(
            instance, np.random.default_rng(seed)
        )
        assert mapping.as_array.tolist() == expected.tolist()
        assert meta["groups_opened"] == opened


def _counting_build(monkeypatch):
    """Patch ``WalkTables.build`` to record a weak reference per build.

    A dataclass with slots takes no weak reference, so each entry is one
    to the tables' ``rows`` array, which only the tables hold: while it
    is alive, so may the tables be; once it is dead, so are they."""
    built = []
    original = WalkTables.build.__func__

    def counting(cls, instance):
        tables = original(cls, instance)
        built.append(weakref.ref(tables.rows))
        return tables

    monkeypatch.setattr(WalkTables, "build", classmethod(counting))
    return built


@pytest.mark.parametrize("name", ["H2", "H3", "H4w", "H4ls"])
def test_one_solve_builds_its_tables_once(monkeypatch, name):
    built = _counting_build(monkeypatch)
    instance = make_random_instance(20, 3, 8, seed=1)
    heuristic = get_heuristic(name)
    heuristic.solve_mapping(instance)
    assert len(built) == 1
    # A second solve of the same instance reuses the heuristic's inputs.
    heuristic.solve_mapping(instance)
    assert len(built) == 1


def test_a_finished_stack_or_request_leaves_no_tables(monkeypatch):
    from repro.service.requests import normalize_request, solve_group

    built = _counting_build(monkeypatch)
    instances = [make_random_instance(15, 3, 6, seed=seed) for seed in range(2)]
    # Held past their stacks, as a long-lived provider holds its heuristic.
    heuristics = [get_heuristic(name) for name in ("H2", "H3")]
    for heuristic in heuristics:
        solve_stack(heuristic, instances)
    request = normalize_request(
        {
            "heuristic": "H2",
            "application": {"tasks": 12, "types": 3},
            "platform": {"machines": 6},
        }
    )
    solve_group((request,))
    gc.collect()
    assert len(built) == 5
    assert [ref() for ref in built] == [None] * 5


@pytest.mark.parametrize("where", ["first", "last"])
def test_two_types_on_one_machine_are_caught(where):
    types = np.array([0, 1, 1, 1, 2])
    valid = np.array([0, 1, 1, 2, 3])
    assignment = valid.copy()
    assignment[0 if where == "first" else 4] = 1
    mapping = Mapping(assignment, 4)
    assert not mapping.satisfies_specialized(types)
    assert not mapping.satisfies_specialized(list(types))
    assert hosts_one_type(valid, types, 4)
    stacked = hosts_one_type(np.stack([valid, assignment]), np.stack([types, types]), 4)
    assert stacked.tolist() == [True, False]
    instance = _instance(np.ones((5, 4)), types.tolist(), consistent=False)
    with pytest.raises(MappingRuleViolation, match="row 1"):
        validate_assignments([instance, instance], np.stack([valid, assignment]))


def test_mapping_copies_array_input():
    source = np.array([0, 1, 1])
    mapping = Mapping(source, 2)
    source[0] = 1
    assert mapping.as_array.tolist() == [0, 1, 1]
    assert source.flags.writeable


def test_a_platform_within_tolerance_still_passes():
    types = TypeAssignment([0, 0, 1])
    w = np.array([[100.0, 200.0], [100.0 * (1 + 1e-9), 200.0], [5.0, 6.0]])
    assert types.first_inconsistent_type(w) is None
    Platform(w, types=types)
    w[1, 1] = 201.0
    assert types.first_inconsistent_type(w) == 0


def _provider_class(provider) -> str:
    if isinstance(provider, LocalSearchProvider):
        return "local_search"
    if isinstance(provider, MilpProvider):
        return "mip"
    if isinstance(provider, OneToOneProvider):
        return "oto"
    assert isinstance(provider, HeuristicProvider)
    heuristic = provider._heuristic
    if isinstance(heuristic, LocalSearchHeuristic):
        return "local_search"
    if isinstance(heuristic, BinarySearchHeuristic):
        return "bisection"
    if isinstance(heuristic, RandomHeuristic):
        return "random"
    return "heuristic"


def test_every_accepted_label_in_any_case_gets_its_providers_class():
    names = available_heuristics()
    labels = [MIP_LABEL, OTO_LABEL, *names, *(f"{name}+ls" for name in names)]
    for label in labels:
        for spelling in (label, label.lower(), label.upper()):
            expected = _provider_class(resolve_provider(spelling))
            assert classify_curve(spelling) == expected, spelling
