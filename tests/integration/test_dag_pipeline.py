"""Integration: a stored campaign reproduces `run_figure` bit-for-bit.

The acceptance test of `repro.campaign.execute`: running a campaign
through `run_pipeline` must produce (1) the same cell records and
exports as the pre-DAG `run_figure` path, byte for byte; (2) a second
identical run that performs **zero** solves, serves every unit from its
stored cell and derives unchanged exports; (3) the same bytes again
when the solve phase runs through the work-stealing process pool
instead of the serial engine.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import CampaignManifest, run_pipeline
from repro.experiments import ResultStore, aggregate_seeds, figure_ids, run_figure

SEEDS = (0, 1)


@pytest.fixture(scope="module")
def manifest() -> CampaignManifest:
    """A scaled-down fig5 multi-seed campaign (no exact baselines)."""
    return CampaignManifest(
        figures=("fig5",), seeds=SEEDS, repetitions=4, max_points=2
    )


@pytest.fixture(scope="module")
def legacy_store(manifest, tmp_path_factory) -> ResultStore:
    """The pre-DAG reference: every (figure, seed) run via run_figure."""
    store = ResultStore(tmp_path_factory.mktemp("legacy"))
    for figure_id in manifest.figures:
        for seed in manifest.seeds:
            store.save_result(
                run_figure(
                    figure_id,
                    seed=seed,
                    repetitions=manifest.repetitions,
                    max_points=manifest.max_points,
                )
            )
    return store


@pytest.fixture(scope="module")
def dag_store(manifest, tmp_path_factory):
    """One DAG execution plus its run result."""
    store = ResultStore(tmp_path_factory.mktemp("dag"))
    run = run_pipeline(manifest, store)
    return store, run


def _cell_map(store: ResultStore) -> dict:
    return {
        record.key: (record.repetitions, record.values, record.failures)
        for record in store.cells()
    }


class TestDagEqualsLegacy:
    def test_first_run_computes_every_unit(self, dag_store):
        _, run = dag_store
        assert run.report.hits == 0
        assert run.report.computed > 0
        assert run.report.hit_rate() == 0.0

    def test_cells_are_bit_for_bit_identical(self, dag_store, legacy_store):
        store, _ = dag_store
        assert _cell_map(store) == _cell_map(legacy_store)

    def test_per_seed_exports_match(self, dag_store, legacy_store, manifest):
        store, run = dag_store
        for seed in manifest.seeds:
            legacy_csv = legacy_store.load_result("fig5", seed=seed).to_csv()
            assert run.renders["fig5"]["per_seed"][str(seed)] == legacy_csv
            assert store.load_result("fig5", seed=seed).to_csv() == legacy_csv

    def test_aggregate_export_matches(self, dag_store, legacy_store):
        _, run = dag_store
        pooled, seeds = aggregate_seeds(legacy_store, "fig5", ci="pooled")
        assert tuple(seeds) == SEEDS
        assert run.renders["fig5"]["aggregate"] == pooled.to_csv()


class TestZeroSolveRerun:
    def test_identical_rerun_hits_every_unit(self, dag_store, manifest):
        store, first = dag_store
        second = run_pipeline(manifest, store)
        assert second.report.computed == 0
        assert second.report.hit_rate() == 1.0
        assert second.renders == first.renders

    def test_legacy_store_adopts_without_solving(self, legacy_store, manifest):
        # A store written entirely by the pre-DAG path: its cells are
        # solve hits and the derived exports are the same bytes.
        store = ResultStore(legacy_store.path)
        run = run_pipeline(manifest, store)
        assert run.report.computed == 0
        for seed in manifest.seeds:
            legacy_csv = legacy_store.load_result("fig5", seed=seed).to_csv()
            assert run.renders["fig5"]["per_seed"][str(seed)] == legacy_csv


class TestParallelDispatch:
    def test_worker_pool_with_stealing_matches_serial(
        self, dag_store, manifest, tmp_path_factory
    ):
        serial_store, serial_run = dag_store
        store = ResultStore(tmp_path_factory.mktemp("dag-parallel"))
        run = run_pipeline(manifest, store, workers=2)
        assert run.report.computed == serial_run.report.computed
        assert run.renders == serial_run.renders
        assert _cell_map(store) == _cell_map(serial_store)


@pytest.mark.parametrize("figure_id", figure_ids())
def test_figure_run_equals_its_stored_run(figure_id, tmp_path):
    """``run FIG --csv`` prints what ``export FIG --csv`` does after ``dag run``.

    Both resolve the figure and fold its blocks through one definition,
    so every figure agrees byte for byte, optional curves included.  The
    MIP stays off (its wall-clock limit can leave a cell unproven on one
    side only), except on fig11, which normalises by it: at its first
    point alone (n=2) the MIP proves at once.
    """
    milp = figure_id == "fig11"
    max_points = 1 if milp else 2
    result = run_figure(
        figure_id,
        seed=0,
        repetitions=2,
        max_points=max_points,
        include_milp=milp,
        include_optional=True,
    )
    manifest = CampaignManifest(
        figures=(figure_id,),
        seeds=(0,),
        repetitions=2,
        max_points=max_points,
        no_milp=not milp,
        optional_curves=True,
    )
    store = ResultStore(tmp_path / "dag")
    run = run_pipeline(manifest, store)
    assert run.renders[figure_id]["per_seed"]["0"] == result.to_csv()
    # Saving the in-memory result writes the campaign's cells and, but
    # for the wall-clock, its run header.
    saved = ResultStore(tmp_path / "saved")
    saved.save_result(result)
    assert _cell_map(saved) == _cell_map(store)
    assert [replace(meta, elapsed_seconds=0.0) for meta in saved.runs()] == [
        replace(meta, elapsed_seconds=0.0) for meta in store.runs()
    ]
