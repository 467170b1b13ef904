"""Block-scheduled engine vs the per-instance oracle; stored runs.

The contract under test: for the same seed, ``run_scenario`` /
``run_figure`` produce bit-for-bit the series of a per-instance
``Heuristic.solve`` loop (:func:`tests.helpers.per_instance_series`) —
serially, on a process pool, with memoized sampling, with cross-point
stacking and with the exact baselines.  A second battery checks that
``microrepro run --store`` runs through the campaign DAG: it prints the
in-memory run's bytes, resumes without recomputing stored blocks, and
leaves a store that ``dag run`` serves entirely from cache.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from repro.campaign import CampaignManifest, expand_units
from repro.cli import CAMPAIGN_MANIFEST, STORE_ENV_VAR, main
from repro.dag import execute_solves
from repro.experiments import ResultStore, run_figure, run_scenario
from repro.experiments import providers as providers_module
from repro.experiments.figures import FIGURES
from repro.experiments.providers import CellBlock, HeuristicProvider
from repro.generators import ScenarioConfig
from repro.heuristics import get_heuristic, supports_batch
from repro.heuristics.base import batch_solve_min_repetitions
from repro.simulation.rng import RandomStreamFactory
from tests.helpers import per_instance_series


def _series_payload(series):
    return {label: (curve.x_values, curve.samples) for label, curve in series.items()}


def _assert_identical(expected, actual):
    """Bit-for-bit equality of two ``{label: Series}`` maps, treating NaN
    cells (MIP timeouts / OtO infeasibility) as equal when they coincide."""
    pa, pb = _series_payload(expected), _series_payload(actual)
    assert pa.keys() == pb.keys()
    for label in pa:
        xa, sa = pa[label]
        xb, sb = pb[label]
        assert xa == xb, label
        for x in xa:
            va, vb = sa[x], sb[x]
            assert len(va) == len(vb), (label, x)
            for left, right in zip(va, vb):
                if math.isnan(left) and math.isnan(right):
                    continue
                assert left == right, (label, x)


def _oracle(scenario: ScenarioConfig, seed: int, **overrides):
    return per_instance_series(scenario, seed, **overrides)[0]


def _figure_scenario(figure_id: str, **scale) -> ScenarioConfig:
    return FIGURES[figure_id].scenario.scaled(**scale)


def _small_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="engine-test",
        num_machines=5,
        num_types=2,
        sweep="tasks",
        sweep_values=(6, 9),
        repetitions=4,
        heuristics=("H1", "H2", "H4w"),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestBlockVsOracle:
    def test_custom_scenario_identical(self):
        scenario = _small_scenario()
        _assert_identical(
            _oracle(scenario, 11), run_scenario(scenario, seed=11).series
        )

    def test_custom_scenario_with_exact_baselines(self):
        scenario = _small_scenario(
            num_machines=8,
            sweep_values=(4,),
            repetitions=2,
            heuristics=("H2", "H4w"),
            task_dependent_failures=True,
        )
        expected, failures = per_instance_series(
            scenario, 3, include_milp=True, include_one_to_one=True
        )
        block = run_scenario(
            scenario, seed=3, include_milp=True, include_one_to_one=True
        )
        _assert_identical(expected, block.series)
        assert failures == block.milp_failures

    def test_fig9_reduced_identical(self):
        _assert_identical(
            _oracle(_figure_scenario("fig9", repetitions=2, max_points=2), 5),
            run_figure("fig9", seed=5, repetitions=2, max_points=2).series,
        )

    def test_fig10_reduced_identical(self):
        # MILP-free in tier 1 (the n=16 solves take ~10s each); the slow
        # suite covers the full curve set below, and
        # test_custom_scenario_with_exact_baselines keeps a cheap
        # MILP-inclusive equivalence check in tier 1.
        _assert_identical(
            _oracle(
                _figure_scenario("fig10", repetitions=2, max_points=2),
                1,
                include_milp=False,
            ),
            run_figure(
                "fig10", seed=1, repetitions=2, max_points=2, include_milp=False
            ).series,
        )

    @pytest.mark.slow
    def test_fig10_reduced_identical_including_milp(self):
        _assert_identical(
            _oracle(_figure_scenario("fig10", repetitions=2, max_points=2), 1),
            run_figure("fig10", seed=1, repetitions=2, max_points=2).series,
        )

    @pytest.mark.slow
    def test_fig5_reduced_identical(self):
        _assert_identical(
            _oracle(_figure_scenario("fig5", repetitions=2, max_points=2), 7),
            run_figure("fig5", seed=7, repetitions=2, max_points=2).series,
        )

    def test_parallel_block_matches_oracle(self):
        scenario = _small_scenario(repetitions=3)
        _assert_identical(
            _oracle(scenario, 23), run_scenario(scenario, seed=23, workers=2).series
        )

    def test_parallel_block_matches_serial_block(self):
        scenario = _small_scenario()
        _assert_identical(
            run_scenario(scenario, seed=11).series,
            run_scenario(scenario, seed=11, workers=2).series,
        )

    def test_parallel_blocks_go_through_steal_dispatch(self, monkeypatch):
        from repro.dag import scheduler

        executed = []
        original = scheduler.steal_dispatch

        def counting(*args, **kwargs):
            report = original(*args, **kwargs)
            executed.append(report.executed)
            return report

        monkeypatch.setattr(scheduler, "steal_dispatch", counting)
        scenario = _small_scenario(repetitions=2)
        result = run_scenario(scenario, seed=11, workers=2)
        # One dispatch loop ran every (sweep point, curve) block.
        assert executed == [len(scenario.sweep_values) * len(result.series)]

    def test_memoized_block_run_is_identical(self):
        scenario = _small_scenario(repetitions=2)
        _assert_identical(
            _oracle(scenario, 9),
            run_scenario(scenario, seed=9, memoize_instances=True).series,
        )

    def test_run_functions_take_no_engine_store_or_resume(self):
        removed = {"engine", "store", "resume"}
        assert not removed & set(inspect.signature(run_scenario).parameters)
        assert not (removed | {"include_one_to_one"}) & set(
            inspect.signature(run_figure).parameters
        )


class TestBatchSolveEquivalence:
    """The batch solve layer vs the per-instance loop on real figure shapes.

    For every deterministic heuristic of a figure's curve set, the forced
    batch path (``solve_batch`` where the heuristic has one, the
    per-instance loop for H2/H3) must produce the per-instance path's
    assignments bit for bit on a block sampled from that figure's
    scenario.
    """

    @pytest.mark.parametrize("figure_id", ["fig5", "fig9", "fig10"])
    def test_block_solve_identical_to_per_instance(self, figure_id):
        scenario = FIGURES[figure_id].scenario.scaled(repetitions=3)
        sweep_value = scenario.sweep_values[0]
        block = CellBlock.sample(scenario, sweep_value, RandomStreamFactory(21))
        batchable = 0
        for name in scenario.heuristics:
            if get_heuristic(name).randomized:
                continue  # H1 draws per repetition; the oracle tests cover it
            batched = HeuristicProvider(name, batch=True).solve_block(block)
            looped = HeuristicProvider(name, batch=False).solve_block(block)
            assert (batched == looped).all(), (figure_id, name)
            batchable += supports_batch(get_heuristic(name))
        assert batchable >= 1  # at least one H4-family lock-step kernel

    def test_engine_uses_batch_solve_above_threshold(self, monkeypatch):
        """A run at production depth routes the batchable curves through
        solve_batch, H2 through the per-instance loop, and still matches
        the per-instance oracle bit for bit."""
        calls = []
        scenario = _small_scenario(
            repetitions=max(
                batch_solve_min_repetitions("H4"),
                batch_solve_min_repetitions("H4w"),
            ),
            heuristics=("H2", "H4", "H4w"),
        )
        assert not supports_batch(get_heuristic("H2"))
        for name in ("H4", "H4w"):
            cls = type(get_heuristic(name))
            original = cls.solve_batch

            def counting(self, instances, _original=original):
                calls.append(type(self).name)
                return _original(self, instances)

            monkeypatch.setattr(cls, "solve_batch", counting)
        block = run_scenario(scenario, seed=29)
        assert sorted(set(calls)) == ["H4", "H4w"]
        _assert_identical(_oracle(scenario, 29), block.series)


class TestCrossPointStacking:
    """Signature-aligned sweep points stacked into one kernel pass.

    A types sweep keeps (n, m) fixed across points, so the serial block
    engine chunks the whole figure into one solve per curve; results
    must stay bit-for-bit identical to the per-instance oracle, and the
    lock-step kernel must actually be entered once with every point's
    rows."""

    def _types_scenario(self, **overrides) -> ScenarioConfig:
        defaults = dict(
            name="cross-point-test",
            num_machines=12,
            num_types=None,
            num_tasks=12,
            sweep="types",
            sweep_values=(3, 4, 5, 6),
            repetitions=6,
            heuristics=("H2", "H4w", "H4ls", "H1"),
        )
        defaults.update(overrides)
        return ScenarioConfig(**defaults)

    def test_types_sweep_identical_to_oracle(self):
        scenario = self._types_scenario()
        _assert_identical(_oracle(scenario, 7), run_scenario(scenario, seed=7).series)

    def test_aligned_points_solve_in_one_batch_call(self, monkeypatch):
        calls = []
        scenario = self._types_scenario(heuristics=("H4", "H4w"))
        for name in scenario.heuristics:
            cls = type(get_heuristic(name))
            original = cls.solve_batch

            def counting(self, instances, _original=original):
                calls.append((type(self).name, len(instances)))
                return _original(self, instances)

            monkeypatch.setattr(cls, "solve_batch", counting)
        run_scenario(scenario, seed=7)
        rows = len(scenario.sweep_values) * scenario.repetitions
        assert sorted(calls) == [("H4", rows), ("H4w", rows)]

    def test_provider_stacking_matches_per_block(self):
        scenario = self._types_scenario(heuristics=("H2",))
        streams = RandomStreamFactory(19)
        blocks = [
            CellBlock.sample(scenario, value, streams)
            for value in scenario.sweep_values
        ]
        for name in ("H2", "H4w", "H4ls"):
            provider = providers_module.resolve_provider(name)
            stacked = provider.evaluate_blocks(blocks)
            per_block = [provider.evaluate_block(block) for block in blocks]
            for one, many in zip(per_block, stacked):
                assert (one.periods == many.periods).all(), name

    def test_misaligned_points_fall_back_per_block(self):
        # A tasks sweep changes n between points: nothing may stack.
        scenario = _small_scenario(heuristics=("H4w",), repetitions=6)
        streams = RandomStreamFactory(19)
        blocks = [
            CellBlock.sample(scenario, value, streams)
            for value in scenario.sweep_values
        ]
        chunks = providers_module._aligned_chunks(blocks)
        assert [len(chunk) for chunk in chunks] == [1, 1]
        provider = HeuristicProvider("H4w")
        stacked = provider.evaluate_blocks(blocks)
        for block, result in zip(blocks, stacked):
            reference = provider.evaluate_block(block)
            assert (result.periods == reference.periods).all()

    def test_row_cap_splits_chunks(self):
        scenario = self._types_scenario(heuristics=("H4w",), repetitions=4)
        streams = RandomStreamFactory(19)
        blocks = [
            CellBlock.sample(scenario, value, streams)
            for value in scenario.sweep_values
        ]
        chunks = providers_module._aligned_chunks(blocks, max_rows=8)
        assert [len(chunk) for chunk in chunks] == [2, 2]
        # An oversized single block still forms its own chunk.
        chunks = providers_module._aligned_chunks(blocks, max_rows=2)
        assert [len(chunk) for chunk in chunks] == [1, 1, 1, 1]


class TestBatchFallback:
    """Providers whose heuristic lacks ``solve_batch`` must keep working
    under the block engine — serially and on a process pool."""

    def test_h1_has_no_batch_kernel(self):
        assert not supports_batch(get_heuristic("H1"))

    def test_fallback_block_run_matches_oracle_with_workers(self):
        scenario = _small_scenario(
            repetitions=batch_solve_min_repetitions("H4w"),
            heuristics=("H1", "RoundRobin", "H4w"),
        )
        _assert_identical(
            _oracle(scenario, 31), run_scenario(scenario, seed=31, workers=2).series
        )

    def test_fallback_provider_solves_blocks_directly(self):
        scenario = _small_scenario(repetitions=4, heuristics=("H1",))
        block = CellBlock.sample(
            scenario, scenario.sweep_values[0], RandomStreamFactory(8)
        )
        result = HeuristicProvider("H1").evaluate_block(block)
        assert result.periods.shape == (4,)
        assert np.isfinite(result.periods).all()


class TestOptionalCurves:
    def test_fig6_optional_h4ls_never_above_h4w(self):
        result = run_figure(
            "fig6", seed=0, repetitions=2, max_points=2, include_optional=True
        )
        assert "H4ls" in result.series
        for x in result.series["H4ls"].x_values:
            for refined, seeded in zip(
                result.series["H4ls"].samples[x], result.series["H4w"].samples[x]
            ):
                assert refined <= seeded

    def test_optional_curves_do_not_perturb_paper_curves(self):
        plain = run_figure("fig6", seed=0, repetitions=1, max_points=2)
        extended = run_figure(
            "fig6", seed=0, repetitions=1, max_points=2, include_optional=True
        )
        for label in plain.series:
            assert (
                plain.series[label].samples == extended.series[label].samples
            )


def _fig6(*, seed: int = 4, repetitions: int = 2) -> list[str]:
    """``microrepro run`` arguments of a small MIP-free fig6 run."""
    return [
        "run", "fig6", "--seed", str(seed), "--repetitions", str(repetitions),
        "--max-points", "2", "--no-milp", "--csv",
    ]


def _cli(capsys, args: list[str]) -> str:
    assert main(args) == 0
    return capsys.readouterr().out


def _count_sampled_blocks(monkeypatch) -> list[int]:
    """Record the sweep value of every ``CellBlock.sample`` call from now on."""
    sampled: list[int] = []
    original = providers_module.CellBlock.sample.__func__

    def counting(cls, *args, **kwargs):
        sampled.append(args[1])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(providers_module.CellBlock, "sample", classmethod(counting))
    return sampled


class TestStoreResume:
    """``run --store`` is a one-figure, one-seed campaign through the DAG."""

    @pytest.fixture(autouse=True)
    def _no_env_store(self, monkeypatch):
        # Without --store, `run` must stay in memory even where
        # $REPRO_STORE is set.
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)

    def test_store_run_prints_the_in_memory_csv(self, tmp_path, capsys):
        in_memory = _cli(capsys, _fig6())
        stored = _cli(capsys, _fig6() + ["--store", str(tmp_path / "s")])
        assert stored == in_memory
        # One run, not a campaign: no manifest is left behind.
        assert not (tmp_path / "s" / CAMPAIGN_MANIFEST).exists()

    def test_resume_skips_stored_blocks(self, tmp_path, capsys, monkeypatch):
        store = str(tmp_path / "s")
        first = _cli(capsys, _fig6() + ["--store", store])
        sampled = _count_sampled_blocks(monkeypatch)
        second = _cli(capsys, _fig6() + ["--store", store, "--resume"])
        assert sampled == []  # nothing recomputed
        assert second == first

    def test_dag_run_serves_a_run_store_from_cache(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        _cli(capsys, _fig6() + ["--store", store])
        report = _cli(
            capsys,
            [
                "dag", "run", "fig6", "--seeds", "4", "--repetitions", "2",
                "--max-points", "2", "--no-milp", "--store", store,
            ],
        )
        assert "; 0 block solve(s)" in report

    def test_resume_only_computes_missing_blocks(self, tmp_path):
        manifest = CampaignManifest(
            figures=("fig6",), seeds=(4,), repetitions=2, max_points=2, no_milp=True
        )
        units = expand_units(manifest)
        with ResultStore(tmp_path / "s") as store:
            execute_solves(manifest, units[:-1], store)
            report = execute_solves(manifest, units, store)
            resumed = store.load_result("fig6", seed=4)
        assert report.computed == 1
        assert report.hits == len(units) - 1
        full = run_figure("fig6", seed=4, repetitions=2, max_points=2, include_milp=False)
        _assert_identical(full.series, resumed.series)

    def test_parallel_run_with_store_matches_serial(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        parallel = _cli(capsys, _fig6(seed=13) + ["--store", store, "--workers", "2"])
        assert parallel == _cli(capsys, _fig6(seed=13))
        with ResultStore(store) as opened:
            assert opened.load_result("fig6", seed=13).seed == 13

    def test_resume_with_different_seed_recomputes(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        _cli(capsys, _fig6(seed=4) + ["--store", store])
        other = _cli(capsys, _fig6(seed=5) + ["--store", store, "--resume"])
        assert other == _cli(capsys, _fig6(seed=5))

    def test_stored_blocks_serve_smaller_repetition_counts(
        self, tmp_path, capsys, monkeypatch
    ):
        store = str(tmp_path / "s")
        expected = _cli(capsys, _fig6(repetitions=2))
        _cli(capsys, _fig6(repetitions=4) + ["--store", store])
        sampled = _count_sampled_blocks(monkeypatch)
        resumed = _cli(capsys, _fig6(repetitions=2) + ["--store", store, "--resume"])
        assert sampled == []
        assert resumed == expected
