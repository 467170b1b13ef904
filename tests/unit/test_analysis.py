"""Unit tests for repro.analysis (stats, normalisation, tables)."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro
from repro.analysis import (
    NormalizationReport,
    Series,
    format_table,
    normalize_series,
    overall_factor,
    paired_ratio,
    series_table,
    series_to_csv,
    summarize,
)
from repro.analysis.stats import _t_critical


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert s.ci_low < 2.5 < s.ci_high
        # The memoized critical value is exactly scipy's, per confidence.
        sem = s.std / math.sqrt(4)
        assert s.ci_high - s.mean == scipy_stats.t.ppf(0.975, 3) * sem
        narrow = summarize([1.0, 2.0, 3.0, 4.0], confidence=0.9)
        assert narrow.ci_high == narrow.mean + scipy_stats.t.ppf(0.95, 3) * sem
        assert narrow.ci_low == narrow.mean - scipy_stats.t.ppf(0.95, 3) * sem
        assert narrow.ci_high < s.ci_high

    @pytest.mark.parametrize(
        ("confidence", "df", "expected"),
        [
            (0.9, 1, 6.313751514675037),
            (0.9, 29, 1.6991270265334972),
            (0.95, 3, 3.1824463052837078),
            (0.95, 9, 2.262157162798205),
            (0.95, 99, 1.9842169515864174),
            (0.99, 2, 9.924843200918287),
        ],
    )
    def test_t_critical_values(self, confidence, df, expected):
        # Two-sided Student t quantiles, as scipy.stats.t.ppf gives them.
        assert _t_critical(confidence, df) == expected

    def test_ci_needs_no_scipy_stats(self):
        # A figure report with confidence intervals loads scipy.special's
        # inverse t CDF only; scipy.stats takes about a second to import.
        code = (
            "import sys\n"
            "from repro.experiments import figure_report, run_figure\n"
            "result = run_figure('fig6', seed=0, repetitions=2, max_points=1,\n"
            "                    include_milp=False)\n"
            "assert figure_report(result)\n"
            "assert 'scipy.special' in sys.modules\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.count == 1
        assert s.mean == 5.0
        assert s.ci_low == s.ci_high == 5.0

    def test_ignores_non_finite(self):
        s = summarize([1.0, float("nan"), float("inf"), 3.0])
        assert s.count == 2
        assert s.mean == pytest.approx(2.0)

    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_as_dict(self):
        d = summarize([1.0, 2.0]).as_dict()
        assert set(d) == {"count", "mean", "std", "min", "max", "ci_low", "ci_high"}


class TestPairedRatio:
    def test_mean_of_ratios(self):
        s = paired_ratio([2.0, 6.0], [1.0, 3.0])
        assert s.mean == pytest.approx(2.0)

    def test_skips_invalid_pairs(self):
        s = paired_ratio([2.0, 6.0, 4.0], [1.0, float("nan"), 0.0])
        assert s.count == 1
        assert s.mean == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_ratio([1.0], [1.0, 2.0])


class TestSeries:
    def test_add_and_point(self):
        s = Series("H4w")
        s.add(10, 100.0)
        s.add(10, 120.0)
        s.add(20, 300.0)
        assert s.x_values == [10, 20]
        assert s.point(10).mean == pytest.approx(110.0)
        assert s.point(20).count == 1
        assert s.means() == [pytest.approx(110.0), pytest.approx(300.0)]

    def test_extend(self):
        s = Series("H2")
        s.extend(5, [1.0, 2.0, 3.0])
        assert s.point(5).count == 3

    def test_as_rows(self):
        s = Series("H2")
        s.add(5, 2.0)
        rows = s.as_rows()
        assert rows[0]["x"] == 5
        assert rows[0]["label"] == "H2"
        assert rows[0]["mean"] == 2.0

    def test_missing_point_is_empty_summary(self):
        assert Series("x").point(99).count == 0


class TestNormalization:
    def _series(self) -> tuple[Series, Series]:
        heuristic = Series("H4w")
        reference = Series("MIP")
        for x in (5, 10):
            for rep in range(3):
                base = 100.0 * (1 + rep)
                reference.add(x, base)
                heuristic.add(x, base * 1.5)
        return heuristic, reference

    def test_normalize_series_ratio(self):
        heuristic, reference = self._series()
        normalized = normalize_series(heuristic, reference)
        assert normalized.label == "H4w/MIP"
        for x in (5, 10):
            assert normalized.point(x).mean == pytest.approx(1.5)

    def test_normalize_skips_nan_reference(self):
        heuristic, reference = self._series()
        reference.add(15, float("nan"))
        heuristic.add(15, 100.0)
        normalized = normalize_series(heuristic, reference)
        assert normalized.point(15).count == 0

    def test_overall_factor(self):
        heuristic, reference = self._series()
        assert overall_factor(heuristic, reference).mean == pytest.approx(1.5)

    def test_normalization_report(self):
        heuristic, reference = self._series()
        other = Series("H1")
        for x in (5, 10):
            for rep in range(3):
                other.add(x, 100.0 * (1 + rep) * 2.5)
        report = NormalizationReport.from_series(
            {"H4w": heuristic, "H1": other, "MIP": reference}, "MIP"
        )
        assert report.factor("H4w") == pytest.approx(1.5)
        assert report.factor("H1") == pytest.approx(2.5)
        rows = report.as_rows()
        assert rows[0]["label"] == "H4w"  # sorted by increasing factor
        assert rows[-1]["label"] == "H1"


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bb" in lines[0]
        assert "-" in lines[1]
        assert "30" in lines[3]

    def test_series_table_contains_all_labels(self):
        s1, s2 = Series("H2"), Series("H4w")
        s1.add(10, 100.0)
        s2.add(10, 90.0)
        s2.add(20, 95.0)
        text = series_table({"H2": s1, "H4w": s2}, x_name="n")
        assert "H2" in text and "H4w" in text
        assert "nan" in text  # H2 has no value at n=20

    def test_series_to_csv_structure(self):
        s = Series("H2")
        s.add(10, 100.0)
        s.add(20, 200.0)
        csv_text = series_to_csv({"H2": s}, x_name="n")
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("n,H2_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "10"

    def test_series_to_csv_without_spread(self):
        s = Series("H2")
        s.add(10, 100.0)
        csv_text = series_to_csv({"H2": s}, include_spread=False)
        assert csv_text.splitlines()[0] == "n,H2_mean"
