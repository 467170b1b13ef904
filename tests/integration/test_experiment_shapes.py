"""Integration tests: reduced-size experiment runs reproduce the paper's shape.

These tests run scaled-down versions of the paper's figures (fewer sweep
points and repetitions) and assert the *qualitative* conclusions of
Section 7 — which heuristic wins, roughly by how much — without pinning
absolute millisecond values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import run_figure
from repro.experiments.runner import MIP_LABEL, OTO_LABEL


pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def fig5_small():
    return run_figure("fig5", seed=1, repetitions=3, max_points=3)


@pytest.fixture(scope="module")
def fig10_small():
    return run_figure("fig10", seed=1, repetitions=3, max_points=3, milp_time_limit=20.0)


class TestFigure5Shape:
    def test_all_six_heuristics_reported(self, fig5_small):
        assert set(fig5_small.series) == {"H1", "H2", "H3", "H4", "H4w", "H4f"}

    def test_h1_and_h4f_are_the_worst(self, fig5_small):
        means = {name: np.mean(series.means()) for name, series in fig5_small.series.items()}
        informed_best = min(means["H2"], means["H3"], means["H4"], means["H4w"])
        assert means["H1"] > informed_best
        assert means["H4f"] > informed_best

    def test_period_grows_with_the_number_of_tasks(self, fig5_small):
        for name in ("H2", "H4w"):
            series = fig5_small.series[name]
            means = series.means()
            assert means[-1] > means[0]

    def test_h4w_close_to_the_best_informed_heuristic(self, fig5_small):
        means = {name: np.mean(series.means()) for name, series in fig5_small.series.items()}
        best = min(means[n] for n in ("H2", "H3", "H4", "H4w"))
        assert means["H4w"] <= 1.5 * best


class TestFigure9Shape:
    @pytest.fixture(scope="class")
    def fig9_small(self):
        return run_figure("fig9", seed=2, repetitions=2, max_points=3)

    def test_oto_curve_present_and_below_heuristics(self, fig9_small):
        assert OTO_LABEL in fig9_small.series
        report = fig9_small.normalization_report(OTO_LABEL)
        for name in ("H2", "H3", "H4w"):
            # The heuristics sit above the optimal one-to-one mapping.  Our
            # OtO baseline (a true bottleneck-assignment optimum) is stronger
            # than what the paper appears to plot, so the band is wider than
            # the paper's 1.28-1.84 (fig9's ``expected_shape`` string).
            assert 1.0 <= report.factor(name) < 4.0

    def test_heuristics_close_to_the_optimum_at_low_type_counts(self, fig9_small):
        # At the low end of the p sweep the heuristics are within ~2x of the
        # optimum (the paper's regime where H4w is "very close" to OtO).
        low_p = min(fig9_small.series[OTO_LABEL].x_values)
        oto_mean = fig9_small.series[OTO_LABEL].point(low_p).mean
        best_heuristic = min(
            fig9_small.series[name].point(low_p).mean for name in ("H2", "H3", "H4w")
        )
        assert best_heuristic <= 2.0 * oto_mean


class TestFigure10And11Shape:
    def test_mip_never_above_the_heuristics(self, fig10_small):
        assert MIP_LABEL in fig10_small.series
        mip = fig10_small.series[MIP_LABEL]
        for name in ("H2", "H3", "H4", "H4w"):
            series = fig10_small.series[name]
            for x in series.x_values:
                pairs = zip(series.samples[x], mip.samples[x])
                for heuristic_value, optimum in pairs:
                    if np.isfinite(optimum):
                        assert heuristic_value >= optimum - 1e-6

    def test_normalised_factors_in_paper_band(self, fig10_small):
        report = fig10_small.normalization_report(MIP_LABEL)
        # The paper reports H4w ~1.33, H3 ~1.58, H2 ~1.73 (and H1 much worse);
        # on reduced sweeps we only check the coarse band and ordering vs H1.
        for name in ("H2", "H3", "H4", "H4w"):
            assert 1.0 <= report.factor(name) < 2.2
        assert report.factor("H1") > report.factor("H4w")

    def test_figure11_is_figure10_normalised(self):
        result = run_figure("fig11", seed=1, repetitions=2, max_points=2, milp_time_limit=20.0)
        normalized = result.reported_series()
        assert MIP_LABEL not in normalized
        for series in normalized.values():
            for x in series.x_values:
                point = series.point(x)
                if point.count:
                    assert point.mean >= 1.0 - 1e-9


class TestFigure8HighFailures:
    def test_high_failure_periods_dominate_low_failure_periods(self):
        # Same scenario name and seed => identical applications and w
        # matrices; only the failure range differs, and the failure draws
        # scale the same underlying uniforms, so the high-failure rates
        # dominate pointwise and the periods must be larger.
        from dataclasses import replace

        from repro.experiments.figures import FIGURES
        from repro.experiments.runner import run_scenario

        scenario = FIGURES["fig8"].scenario.scaled(repetitions=2, max_points=2)
        high = run_scenario(scenario, seed=3)
        low = run_scenario(replace(scenario, f_range=(0.0, 0.02)), seed=3)
        for x in high.series["H2"].x_values:
            assert high.series["H2"].point(x).mean > low.series["H2"].point(x).mean
