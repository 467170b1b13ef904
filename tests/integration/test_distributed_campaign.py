"""Integration: a sharded fig5 campaign merges back bit-for-bit.

The acceptance test of the distributed subsystem: plan a multi-seed
fig5 campaign into two shards, execute each shard into its own store,
merge the shard stores, and compare against a single-host run of the
same manifest — every exported cell must be *bit-for-bit* identical
(the engine's results are pure functions of ``(scenario, seed, curve,
sweep value)`` through CRC-hashed random streams, so how the work was
partitioned must not be observable in the data).
"""

from __future__ import annotations

import math

import pytest

from repro.campaign import CampaignManifest, execute_solves, merge_stores, plan
from repro.exceptions import ExperimentError
from repro.experiments import (
    ResultStore,
    aggregate_results,
    aggregate_seeds,
    run_figure,
)

SEEDS = (0, 1)


@pytest.fixture(scope="module")
def manifest() -> CampaignManifest:
    """A scaled-down fig5 multi-seed campaign (no exact baselines)."""
    return CampaignManifest(
        figures=("fig5",), seeds=SEEDS, repetitions=4, max_points=2
    )


@pytest.fixture(scope="module")
def single_store(manifest, tmp_path_factory) -> ResultStore:
    """The single-host reference: every (figure, seed) run into one store."""
    store = ResultStore(tmp_path_factory.mktemp("single"))
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


@pytest.fixture(scope="module", params=["seed", "block"])
def merged_store(request, manifest, tmp_path_factory) -> ResultStore:
    """Two shards planned along one axis, run separately, merged back."""
    shards = plan(manifest, shards=2, by=request.param)
    assert all(shard.units for shard in shards)
    shard_dirs = []
    for shard in shards:
        shard_dir = tmp_path_factory.mktemp(f"shard{shard.index}-{request.param}")
        store = ResultStore(shard_dir)
        report = execute_solves(shard.manifest, shard.units, store)
        assert report.computed == len(shard.units)
        shard_dirs.append(shard_dir)
    merged_dir = tmp_path_factory.mktemp(f"merged-{request.param}")
    merge_stores(merged_dir, shard_dirs)
    return ResultStore(merged_dir)


def _cell_map(store: ResultStore) -> dict:
    return {record.key: (record.repetitions, record.values, record.failures)
            for record in store.cells()}


class TestShardedEqualsSingleHost:
    def test_merged_cells_are_bit_for_bit_identical(self, merged_store, single_store):
        merged = _cell_map(merged_store)
        single = _cell_map(single_store)
        assert merged.keys() == single.keys()
        assert merged == single  # exact float equality, no tolerance

    def test_exported_results_match_per_seed(self, merged_store, single_store):
        for seed in SEEDS:
            merged = merged_store.load_result("fig5", seed=seed)
            single = single_store.load_result("fig5", seed=seed)
            assert merged.to_csv() == single.to_csv()
            assert {
                label: series.samples for label, series in merged.series.items()
            } == {label: series.samples for label, series in single.series.items()}

    def test_aggregated_export_matches(self, merged_store, single_store):
        merged, merged_seeds = aggregate_seeds(merged_store, "fig5")
        single, single_seeds = aggregate_seeds(single_store, "fig5")
        assert merged_seeds == single_seeds == sorted(SEEDS)
        assert merged.to_csv() == single.to_csv()

    def test_remerging_a_shard_is_idempotent(self, merged_store, single_store):
        before = _cell_map(merged_store)
        report = merged_store.merge(single_store)
        assert report.cells_added == 0
        assert report.cells_skipped == len(before)
        assert _cell_map(merged_store) == before


class TestCrossSeedAggregation:
    def test_pooled_samples_are_the_union_of_seeds(self, single_store, manifest):
        results = [
            single_store.load_result("fig5", seed=seed) for seed in sorted(SEEDS)
        ]
        pooled = aggregate_results(results)
        assert pooled.seed is None
        for label, series in pooled.series.items():
            for x in series.x_values:
                expected = [
                    value
                    for result in results
                    for value in result.series[label].samples[x]
                ]
                assert series.samples[x] == expected
                assert len(series.samples[x]) == manifest.repetitions * len(SEEDS)

    def test_pooling_is_order_independent(self, single_store):
        ascending = [single_store.load_result("fig5", seed=s) for s in (0, 1)]
        descending = list(reversed(ascending))
        assert (
            aggregate_results(ascending).to_csv()
            == aggregate_results(descending).to_csv()
        )

    def test_mean_and_ci_cover_all_seeds(self, single_store):
        pooled, _ = aggregate_seeds(single_store, "fig5")
        point = next(iter(pooled.series.values())).point(
            pooled.scenario.sweep_values[0]
        )
        assert point.count == 4 * len(SEEDS)
        assert math.isfinite(point.mean)
        assert point.ci_low <= point.mean <= point.ci_high

    def test_mismatched_runs_are_rejected(self, single_store):
        result = single_store.load_result("fig5", seed=0)
        with pytest.raises(ExperimentError):
            aggregate_results([result, result])  # duplicate seed
        with pytest.raises(ExperimentError):
            aggregate_results([])
