"""Unit tests of the CI benchmark regression gate.

The gate (``benchmarks/compare_to_baseline.py``) compares pytest-benchmark
medians *normalized by a calibration benchmark of the same run*, so the
check is machine-independent: only a key benchmark that slowed down
relative to the interpreter/numpy dispatch baseline trips it.  These
tests drive the comparison logic on synthetic runs — including the
synthetic >30% regression the acceptance criteria call for — and
round-trip the committed baseline file.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from benchmarks.compare_to_baseline import (
    CALIBRATION,
    DEFAULT_BASELINE_PATH,
    KEY_BENCHMARKS,
    compare,
    evaluate,
    format_delta_table,
    load_medians,
    main,
    make_baseline,
)


def synthetic_results(scale: float = 1.0, **overrides: float) -> dict:
    """A fake pytest-benchmark dump; ``scale`` mimics machine speed."""
    medians = {CALIBRATION: 0.010 * scale}
    for index, name in enumerate(KEY_BENCHMARKS):
        medians[name] = (0.002 + 0.001 * index) * scale
    medians.update(overrides)
    return {
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }


class TestCompare:
    def test_identical_run_passes(self):
        results = synthetic_results()
        baseline = make_baseline(results)
        assert compare(results, baseline) == []

    def test_different_machine_speed_passes(self):
        # 5x slower machine, same ratios: normalization cancels it out.
        baseline = make_baseline(synthetic_results())
        assert compare(synthetic_results(scale=5.0), baseline) == []

    def test_synthetic_regression_over_threshold_fails(self):
        baseline = make_baseline(synthetic_results())
        slow = synthetic_results(**{KEY_BENCHMARKS[0]: 0.002 * 1.4})  # +40%
        failures = compare(slow, baseline)
        assert len(failures) == 1
        assert KEY_BENCHMARKS[0] in failures[0]

    def test_regression_within_threshold_passes(self):
        baseline = make_baseline(synthetic_results())
        slower = synthetic_results(**{KEY_BENCHMARKS[0]: 0.002 * 1.2})  # +20%
        assert compare(slower, baseline) == []

    def test_speedup_passes(self):
        baseline = make_baseline(synthetic_results())
        faster = synthetic_results(**{KEY_BENCHMARKS[0]: 0.0005})
        assert compare(faster, baseline) == []

    def test_missing_key_benchmark_fails(self):
        results = synthetic_results()
        baseline = make_baseline(results)
        trimmed = copy.deepcopy(results)
        trimmed["benchmarks"] = [
            bench
            for bench in trimmed["benchmarks"]
            if bench["fullname"] != KEY_BENCHMARKS[1]
        ]
        failures = compare(trimmed, baseline)
        assert failures and "missing" in failures[0]

    def test_missing_calibration_fails(self):
        baseline = make_baseline(synthetic_results())
        no_calibration = {
            "benchmarks": [
                bench
                for bench in synthetic_results()["benchmarks"]
                if bench["fullname"] != CALIBRATION
            ]
        }
        failures = compare(no_calibration, baseline)
        assert failures and "calibration" in failures[0]


class TestBaselineDocument:
    def test_make_baseline_requires_all_keys(self):
        with pytest.raises(KeyError):
            make_baseline({"benchmarks": []})

    def test_committed_baseline_covers_the_key_benchmarks(self):
        committed = json.loads(DEFAULT_BASELINE_PATH.read_text())
        assert committed["calibration"] == CALIBRATION
        assert set(committed["benchmarks"]) == set(KEY_BENCHMARKS)
        for entry in committed["benchmarks"].values():
            assert entry["normalized"] > 0.0

    def test_load_medians(self):
        medians = load_medians(synthetic_results())
        assert medians[CALIBRATION] == 0.010


class TestDeltaRows:
    def test_rows_cover_every_baselined_benchmark(self):
        results = synthetic_results()
        rows, failures = evaluate(results, make_baseline(results))
        assert failures == []
        assert [row["name"] for row in rows] == list(KEY_BENCHMARKS)
        assert all(row["status"] == "ok" for row in rows)
        assert all(row["delta"] == 0.0 for row in rows)

    def test_every_baselined_benchmark_is_required(self):
        # A stale ``optional`` tag from an older baseline no longer
        # excuses a benchmark that is missing from the run.
        baseline = make_baseline(synthetic_results(**{"extra::bench": 0.001}))
        baseline["benchmarks"]["extra::bench"] = {"normalized": 0.1, "optional": True}
        rows, failures = evaluate(synthetic_results(), baseline)
        by_name = {row["name"]: row for row in rows}
        assert by_name["extra::bench"]["status"] == "missing"
        assert failures == ["key benchmark missing from results: extra::bench"]

    def test_format_delta_table_lists_every_row(self):
        results = synthetic_results()
        rows, _ = evaluate(results, make_baseline(results))
        table = format_delta_table(rows)
        assert len(table.splitlines()) == len(rows) + 1
        for name in KEY_BENCHMARKS:
            assert name.split("::")[-1] in table


class TestCli:
    def write(self, path: Path, payload: dict) -> Path:
        path.write_text(json.dumps(payload))
        return path

    def test_update_then_gate_round_trip(self, tmp_path):
        results = self.write(tmp_path / "run.json", synthetic_results())
        baseline = tmp_path / "baseline.json"
        assert main([str(results), "--baseline", str(baseline), "--update"]) == 0
        assert main([str(results), "--baseline", str(baseline)]) == 0

    def test_cli_fails_on_regression(self, tmp_path):
        results = self.write(tmp_path / "run.json", synthetic_results())
        baseline = tmp_path / "baseline.json"
        main([str(results), "--baseline", str(baseline), "--update"])
        slow = self.write(
            tmp_path / "slow.json",
            synthetic_results(**{KEY_BENCHMARKS[2]: 10.0}),
        )
        assert main([str(slow), "--baseline", str(baseline)]) == 1

    def test_json_output_reports_status_and_rows(self, tmp_path, capsys):
        results = self.write(tmp_path / "run.json", synthetic_results())
        baseline = tmp_path / "baseline.json"
        main([str(results), "--baseline", str(baseline), "--update"])
        capsys.readouterr()
        assert main([str(results), "--baseline", str(baseline), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert payload["failures"] == []
        assert {row["name"] for row in payload["benchmarks"]} == set(KEY_BENCHMARKS)

    def test_gate_prints_delta_table_on_success(self, tmp_path, capsys):
        results = self.write(tmp_path / "run.json", synthetic_results())
        baseline = tmp_path / "baseline.json"
        main([str(results), "--baseline", str(baseline), "--update"])
        capsys.readouterr()
        assert main([str(results), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out and "passed" in out
