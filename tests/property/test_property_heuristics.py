"""Property-based tests on the heuristics and exact solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core import Application, FailureModel, Platform, ProblemInstance, TypeAssignment
from repro.exact.bruteforce import bruteforce_optimal
from repro.exact.hungarian import assignment_cost, bottleneck_assignment, min_cost_assignment
from repro.heuristics import PAPER_HEURISTICS, get_heuristic
from repro.heuristics.binary_search import worst_case_period_bound
from tests.helpers import reference_greedy, reference_h1


pytestmark = pytest.mark.slow


@st.composite
def feasible_instances(draw, max_tasks: int = 7, max_machines: int = 5, ties: bool = False):
    """Chain instances guaranteed to admit a specialized mapping (m >= p).

    ``ties`` draws ``w`` from a few integers and ``f`` from ``{0, 0.5}``,
    so that machines often score exactly alike.
    """
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    m = draw(st.integers(min_value=1, max_value=max_machines))
    p = draw(st.integers(min_value=1, max_value=min(n, m)))
    types = [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(n)]
    types[: min(p, n)] = list(range(min(p, n)))
    app = Application.chain(TypeAssignment(types, num_types=p))
    w_values = (
        st.sampled_from([10.0, 20.0, 30.0])
        if ties
        else st.floats(min_value=10.0, max_value=1000.0, allow_nan=False)
    )
    f_values = (
        st.sampled_from([0.0, 0.5])
        if ties
        else st.floats(min_value=0.0, max_value=0.3, allow_nan=False)
    )
    per_type_w = np.asarray(
        draw(
            st.lists(
                st.lists(
                    w_values,
                    min_size=m,
                    max_size=m,
                ),
                min_size=p,
                max_size=p,
            )
        )
    )
    w = per_type_w[np.asarray(types), :]
    f = np.asarray(
        draw(
            st.lists(
                st.lists(
                    f_values,
                    min_size=m,
                    max_size=m,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    return ProblemInstance(app, Platform(w), FailureModel(f))


class TestHeuristicProperties:
    @given(feasible_instances(), st.sampled_from(PAPER_HEURISTICS))
    @settings(max_examples=80, deadline=None)
    def test_every_heuristic_returns_a_valid_specialized_mapping(self, instance, name):
        result = get_heuristic(name).solve(instance, np.random.default_rng(0))
        result.mapping.validate(instance, "specialized")
        assert result.period > 0.0

    @given(feasible_instances(), st.sampled_from(PAPER_HEURISTICS))
    @settings(max_examples=60, deadline=None)
    def test_heuristics_never_exceed_worst_case_bound(self, instance, name):
        bound = worst_case_period_bound(instance)
        result = get_heuristic(name).solve(instance, np.random.default_rng(1))
        assert result.period <= bound + 1e-6

    @given(feasible_instances(max_tasks=5, max_machines=4))
    @settings(max_examples=25, deadline=None)
    def test_no_heuristic_beats_the_exhaustive_optimum(self, instance):
        optimum = bruteforce_optimal(instance, "specialized").period
        for name in ("H2", "H4", "H4w"):
            result = get_heuristic(name).solve(instance)
            assert result.period >= optimum - 1e-6

    @given(feasible_instances())
    @settings(max_examples=40, deadline=None)
    def test_deterministic_heuristics_are_deterministic(self, instance):
        for name in ("H2", "H3", "H4", "H4w", "H4f"):
            first = get_heuristic(name).solve(instance)
            second = get_heuristic(name).solve(instance)
            assert list(first.mapping) == list(second.mapping)

    @given(feasible_instances())
    @settings(max_examples=80, deadline=None)
    def test_h4ls_is_never_worse_than_h4w(self, instance):
        h4w = get_heuristic("H4w").solve(instance)
        h4ls = get_heuristic("H4ls").solve(instance)
        assert h4ls.period <= h4w.period
        h4ls.mapping.validate(instance, "specialized")


class TestWalksMatchTheirOracle:
    """H1's and the H4 family's plain-list walks equal their
    ``AssignmentState`` oracles bit for bit (H2/H3's ``greedy_walk`` is
    held to its oracle in ``tests/unit/test_greedy_walk.py``)."""

    @given(
        st.one_of(feasible_instances(), feasible_instances(ties=True)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_h1_and_h4_walks_equal_their_oracles(self, instance, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mapping, _, metadata = get_heuristic("H1").solve_mapping(instance, rng)
        assignment, groups_opened = reference_h1(instance, oracle_rng)
        assert mapping.as_array.tolist() == assignment.tolist()
        assert metadata["groups_opened"] == groups_opened
        # Same draws: both generators end in the same state.
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        for name in ("H4", "H4w", "H4f"):
            mapping = get_heuristic(name).solve_mapping(instance)[0]
            assert mapping.as_array.tolist() == reference_greedy(name, instance).tolist()


@st.composite
def cost_matrices(draw, max_rows: int = 6, max_cols: int = 7):
    n = draw(st.integers(min_value=1, max_value=max_rows))
    m = draw(st.integers(min_value=n, max_value=max_cols))
    rows = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=m,
                max_size=m,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(rows)


class TestAssignmentProperties:
    @given(cost_matrices())
    @settings(max_examples=80, deadline=None)
    def test_min_cost_matches_scipy(self, cost):
        ours = min_cost_assignment(cost)
        assert len(set(ours.tolist())) == cost.shape[0]
        rows, cols = linear_sum_assignment(cost)
        assert assignment_cost(cost, ours) == pytest.approx(
            float(cost[rows, cols].sum()), abs=1e-6
        )

    @given(cost_matrices(max_rows=5, max_cols=6))
    @settings(max_examples=60, deadline=None)
    def test_bottleneck_no_worse_than_min_sum_assignment_max(self, cost):
        bottleneck_cols = bottleneck_assignment(cost)
        sum_cols = min_cost_assignment(cost)
        n = cost.shape[0]
        bottleneck_max = cost[np.arange(n), bottleneck_cols].max()
        sum_max = cost[np.arange(n), sum_cols].max()
        assert bottleneck_max <= sum_max + 1e-9
        assert len(set(bottleneck_cols.tolist())) == n
