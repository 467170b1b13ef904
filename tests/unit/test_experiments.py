"""Unit tests for the experiment layer (figures, runner, reporting)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import FIGURES, figure_ids, figure_report, run_figure, run_scenario
from repro.experiments.reporting import aggregate_results
from repro.experiments.runner import MIP_LABEL, OTO_LABEL
from repro.generators import ScenarioConfig


class TestFigureCatalogue:
    def test_all_eight_figures_present(self):
        assert figure_ids() == [f"fig{i}" for i in range(5, 13)]

    def test_paper_parameters(self):
        assert FIGURES["fig5"].scenario.num_machines == 50
        assert FIGURES["fig5"].scenario.num_types == 5
        assert FIGURES["fig6"].scenario.num_machines == 10
        assert FIGURES["fig7"].scenario.num_machines == 100
        assert FIGURES["fig8"].scenario.f_range == (0.0, 0.10)
        assert FIGURES["fig9"].scenario.task_dependent_failures
        assert FIGURES["fig9"].scenario.include_one_to_one
        assert FIGURES["fig9"].scenario.repetitions == 100
        assert FIGURES["fig10"].scenario.include_milp
        assert FIGURES["fig11"].normalize_to == "MIP"
        assert FIGURES["fig12"].scenario.num_machines == 9
        assert FIGURES["fig12"].scenario.num_types == 4

    def test_default_repetitions_match_paper(self):
        for fig in ("fig5", "fig6", "fig7", "fig8", "fig10", "fig12"):
            assert FIGURES[fig].scenario.repetitions == 30

    def test_every_figure_has_expected_shape_note(self):
        for spec in FIGURES.values():
            assert spec.expected_shape


class TestRunner:
    def _tiny_scenario(self, **overrides) -> ScenarioConfig:
        defaults = dict(
            name="tiny",
            num_machines=4,
            num_types=2,
            sweep="tasks",
            sweep_values=(4, 6),
            repetitions=2,
            heuristics=("H2", "H4w"),
        )
        defaults.update(overrides)
        return ScenarioConfig(**defaults)

    def test_run_scenario_produces_series_per_heuristic(self):
        result = run_scenario(self._tiny_scenario(), seed=1)
        assert set(result.series) == {"H2", "H4w"}
        for series in result.series.values():
            assert series.x_values == [4, 6]
            assert series.point(4).count == 2
        assert result.elapsed_seconds > 0
        assert result.x_name == "n"

    def test_run_scenario_reproducible(self):
        a = run_scenario(self._tiny_scenario(), seed=7)
        b = run_scenario(self._tiny_scenario(), seed=7)
        assert a.series["H4w"].samples == b.series["H4w"].samples

    def test_run_scenario_with_milp(self):
        result = run_scenario(self._tiny_scenario(), seed=2, include_milp=True)
        assert MIP_LABEL in result.series
        # The exact optimum is never above any heuristic on the same instance.
        for x in result.series[MIP_LABEL].x_values:
            for label in ("H2", "H4w"):
                pairs = zip(
                    result.series[label].samples[x], result.series[MIP_LABEL].samples[x]
                )
                for heuristic_value, optimum in pairs:
                    assert heuristic_value >= optimum - 1e-6

    def test_run_scenario_with_one_to_one(self):
        scenario = self._tiny_scenario(
            num_machines=8,
            sweep_values=(4,),
            task_dependent_failures=True,
        )
        result = run_scenario(replace(scenario, include_one_to_one=True), seed=3)
        assert OTO_LABEL in result.series
        assert result.series[OTO_LABEL].point(4).count == 2

    def test_normalization(self):
        result = run_scenario(
            self._tiny_scenario(), seed=4, include_milp=True, normalize_to=MIP_LABEL
        )
        normalized = result.reported_series()
        assert MIP_LABEL not in normalized
        for series in normalized.values():
            for x in series.x_values:
                assert series.point(x).mean >= 1.0 - 1e-9

    def test_normalize_to_missing_curve_rejected(self):
        with pytest.raises(ExperimentError):
            run_scenario(self._tiny_scenario(), seed=5, normalize_to="MIP")

    def test_normalization_report_requires_existing_reference(self):
        result = run_scenario(self._tiny_scenario(), seed=6)
        with pytest.raises(ExperimentError):
            result.normalization_report("MIP")

    def test_run_figure_scaled_down(self):
        result = run_figure(
            "fig6", seed=0, repetitions=1, max_points=2, include_milp=False
        )
        assert result.figure_id == "fig6"
        assert set(result.series) == set(FIGURES["fig6"].scenario.heuristics)
        assert len(result.scenario.sweep_values) == 2
        assert result.scenario.repetitions == 1

    def test_run_figure_unknown_id(self):
        with pytest.raises(ExperimentError):
            run_figure("fig99")

    def test_table_and_csv_output(self):
        result = run_scenario(self._tiny_scenario(), seed=8)
        table = result.to_table()
        assert "H4w" in table and "H2" in table
        csv_text = result.to_csv()
        assert csv_text.startswith("n,")
        assert "H4w_mean" in csv_text


class TestReporting:
    def test_summary_line(self):
        result = run_scenario(
            ScenarioConfig(
                name="tiny",
                num_machines=4,
                num_types=2,
                sweep="tasks",
                sweep_values=(4,),
                repetitions=1,
                heuristics=("H4w",),
                description="tiny scenario",
            ),
            seed=0,
            figure_id="fig5",
        )
        line = figure_report(result).splitlines()[1]
        assert line.startswith("fig5: tiny scenario [1 reps x 1 points, seed=0, ")

    def test_figure_report_contains_table_and_factors(self):
        scenario = ScenarioConfig(
            name="tiny",
            num_machines=4,
            num_types=2,
            sweep="tasks",
            sweep_values=(4,),
            repetitions=2,
            heuristics=("H2", "H4w"),
            include_milp=True,
        )
        result = run_scenario(scenario, seed=1, figure_id="fig10")
        report = figure_report(result)
        assert "== fig10 ==" in report
        assert "Aggregate factors relative to MIP" in report
        assert "H4w" in report


class TestBetweenSeedAggregation:
    def _runs(self):
        scenario = ScenarioConfig(
            name="tiny",
            num_machines=4,
            num_types=2,
            sweep="tasks",
            sweep_values=(4, 6),
            repetitions=2,
            heuristics=("H2", "H4w"),
        )
        return [
            run_scenario(scenario, seed=seed, figure_id="custom")
            for seed in (0, 1, 2)
        ]

    def test_between_reduces_each_seed_to_one_sample(self):
        results = self._runs()
        pooled = aggregate_results(results, ci="pooled")
        between = aggregate_results(results, ci="between")
        for label in between.series:
            for x in between.series[label].x_values:
                pooled_point = pooled.series[label].point(x)
                between_point = between.series[label].point(x)
                # 3 seeds x 2 reps pooled vs 3 seed-level means.
                assert pooled_point.count == 6
                assert between_point.count == 3
                # Equal per-seed counts: the point estimate is unchanged.
                assert between_point.mean == pytest.approx(pooled_point.mean)
                # Each between-sample is that seed's mean.
                per_seed = [
                    result.series[label].point(x).mean for result in results
                ]
                assert between.series[label].samples[x] == pytest.approx(per_seed)

    def test_between_cis_have_seed_level_degrees_of_freedom(self):
        results = self._runs()
        between = aggregate_results(results, ci="between")
        label = next(iter(between.series))
        x = between.series[label].x_values[0]
        point = between.series[label].point(x)
        # Student half-width over 3 seed means: finite and symmetric.
        assert point.ci_low <= point.mean <= point.ci_high

    def test_unknown_ci_mode_rejected(self):
        results = self._runs()
        with pytest.raises(ExperimentError, match="CI mode"):
            aggregate_results(results, ci="bogus")
