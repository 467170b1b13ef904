"""Unit tests for the distributed campaign subsystem (plan / records /
shard solves / status / merge)."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil

import pytest

from repro.campaign import (
    CAMPAIGN_FILE,
    CampaignManifest,
    CampaignRecord,
    ShardSpec,
    WorkUnit,
    campaign_status,
    cost_model,
    execute_solves,
    expand_units,
    merge_stores,
    parse_seed_spec,
    plan,
    read_record,
    shard_status,
    status_payload,
    write_record,
)
from repro.campaign.status import cell_done
from repro.exceptions import ExperimentError
from repro.experiments import FIGURES, ResultStore
from repro.experiments.store import CellRecord


def _manifest(**overrides) -> CampaignManifest:
    defaults = dict(
        figures=("fig6",),
        seeds=(0, 1),
        repetitions=2,
        max_points=2,
    )
    defaults.update(overrides)
    return CampaignManifest(**defaults)


def _run_shard(tmp_path, manifest, index, shards=2, by="block"):
    """A store holding one shard of ``manifest``, computed and recorded as
    ``dag run --shard index/shards --by by`` leaves it."""
    record = CampaignRecord(manifest, ShardSpec(index, shards, by))
    path = tmp_path / f"shard{index}of{shards}-r{manifest.repetitions}"
    execute_solves(manifest, record.plan().units, ResultStore(path))
    write_record(path, record)
    return path


class TestSeedSpec:
    def test_single_int(self):
        assert parse_seed_spec(7) == (7,)
        assert parse_seed_spec("7") == (7,)

    def test_inclusive_range(self):
        assert parse_seed_spec("0..3") == (0, 1, 2, 3)

    def test_comma_mix(self):
        assert parse_seed_spec("0..2,7,9") == (0, 1, 2, 7, 9)

    def test_rejects_garbage_and_duplicates(self):
        with pytest.raises(ExperimentError):
            parse_seed_spec("x..3")
        with pytest.raises(ExperimentError):
            parse_seed_spec("3..1")
        with pytest.raises(ExperimentError):
            parse_seed_spec("1,1")
        with pytest.raises(ExperimentError):
            parse_seed_spec("")


class TestManifest:
    def test_validates_figures_and_seeds(self):
        with pytest.raises(ExperimentError):
            CampaignManifest(figures=("fig99",))
        with pytest.raises(ExperimentError):
            CampaignManifest(figures=("fig6",), seeds=())
        with pytest.raises(ExperimentError):
            CampaignManifest(figures=("fig6",), seeds=(1, 1))

    def test_round_trip(self):
        manifest = _manifest(no_milp=True)
        assert CampaignManifest.from_dict(manifest.to_dict()) == manifest

    def test_from_dict_rejects_a_workers_key(self):
        # A manifest records what is computed; the pool size is an
        # argument of each execution, not a field.
        data = dict(_manifest().to_dict(), workers=2)
        with pytest.raises(ExperimentError, match="'workers'"):
            CampaignManifest.from_dict(data)

    def test_from_dict_rejects_a_scalar_seed(self):
        # The seed axis is `seeds`; a scalar `seed` is an unknown field.
        scalar = _manifest().to_dict()
        del scalar["seeds"]
        scalar["seed"] = 3
        with pytest.raises(ExperimentError, match="unknown campaign manifest fields"):
            CampaignManifest.from_dict(scalar)

    def test_curves_follow_engine_series_order(self):
        manifest = _manifest(figures=("fig10",))
        curves = manifest.resolve("fig10").curves
        assert curves[-1] == "MIP"  # fig10 runs the exact MIP last
        assert manifest.resolve("fig6").curves == FIGURES["fig6"].scenario.heuristics

    def test_no_milp_drops_the_mip_curve(self):
        manifest = _manifest(figures=("fig10",), no_milp=True)
        assert "MIP" not in manifest.resolve("fig10").curves

    def test_optional_curves_are_planned_when_asked(self):
        assert "H4ls" not in _manifest().resolve("fig6").curves
        assert "H4ls" in _manifest(optional_curves=True).resolve("fig6").curves


class TestPlanner:
    def test_units_cover_the_full_grid(self):
        manifest = _manifest()
        units = expand_units(manifest)
        figure = manifest.resolve("fig6")
        expected = (
            len(manifest.seeds) * len(figure.curves) * len(figure.scenario.sweep_values)
        )
        assert len(units) == expected
        assert len(set(units)) == len(units)

    @pytest.mark.parametrize("by", ["seed", "curve", "block"])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_shards_partition_the_units(self, by, shards):
        manifest = _manifest()
        shard_plans = plan(manifest, shards=shards, by=by)
        assert len(shard_plans) == shards
        merged = [unit for shard in shard_plans for unit in shard.units]
        assert sorted(map(repr, merged)) == sorted(map(repr, expand_units(manifest)))

    def test_by_seed_keeps_whole_seeds_together(self):
        shard_plans = plan(_manifest(), shards=2, by="seed")
        for shard in shard_plans:
            assert len({unit.seed for unit in shard.units}) == 1

    def test_planning_is_deterministic(self):
        first = plan(_manifest(), shards=3, by="curve")
        second = plan(_manifest(), shards=3, by="curve")
        assert [s.units for s in first] == [s.units for s in second]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError):
            plan(_manifest(), shards=0)
        with pytest.raises(ExperimentError):
            plan(_manifest(), shards=2, by="machine")
        with pytest.raises(ExperimentError):
            WorkUnit("fig6", 0, "H2", 10).group_key("machine")


class TestCampaignRecord:
    def test_an_unsharded_record_is_the_manifest(self, tmp_path):
        manifest = _manifest()
        write_record(tmp_path, CampaignRecord(manifest))
        data = json.loads((tmp_path / CAMPAIGN_FILE).read_text(encoding="utf-8"))
        assert data == manifest.to_dict()
        assert read_record(tmp_path) == CampaignRecord(manifest)

    def test_a_sharded_record_round_trips_and_plans_its_shard(self, tmp_path):
        # The record names the shard; its units are planned again on read.
        manifest = _manifest()
        record = CampaignRecord(manifest, ShardSpec.parse("1/2", "block"))
        write_record(tmp_path, record)
        data = json.loads((tmp_path / CAMPAIGN_FILE).read_text(encoding="utf-8"))
        assert data["shard"] == {"index": 1, "shards": 2, "by": "block", "costs": cost_model()}
        loaded = read_record(tmp_path)
        assert loaded == record
        assert loaded.plan() == plan(manifest, shards=2, by="block")[1]

    @pytest.mark.parametrize("spec", ["2/2", "-1/2", "1/0", "a/b", "1", "0/2/3"])
    def test_malformed_shard_values_are_rejected(self, spec):
        with pytest.raises(ExperimentError, match=re.escape(repr(spec))):
            ShardSpec.parse(spec)

    def test_a_record_under_another_cost_model_is_not_replanned(self):
        costs = cost_model()
        costs["provider_costs"]["mip"] = 100.0
        record = CampaignRecord(_manifest(), ShardSpec(0, 2, "block", costs))
        with pytest.raises(ExperimentError, match="cost model") as info:
            record.plan()
        assert "'mip': 100.0" in str(info.value) and "'mip': 330.0" in str(info.value)


class TestShardSolves:
    def test_shard_solves_are_resumable(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        shard = plan(manifest, shards=1, by="seed")[0]
        store = ResultStore(tmp_path / "s")
        first = execute_solves(manifest, shard.units, store)
        assert first.computed == len(shard.units)
        assert first.hits == 0
        again = execute_solves(manifest, shard.units, store)
        assert again.computed == 0
        assert again.hits == len(shard.units)

    def test_meta_carries_the_full_curve_list(self, tmp_path):
        # A shard holding one curve still records the whole run's curve
        # order, so the merged store can rebuild results.
        manifest = _manifest(seeds=(0,))
        shard = plan(manifest, shards=2, by="curve")[0]
        labels = {unit.curve for unit in shard.units}
        assert labels != set(manifest.resolve("fig6").curves)  # a strict slice
        store = ResultStore(tmp_path / "s")
        execute_solves(manifest, shard.units, store)
        meta = store.runs()[0]
        assert meta.curves == list(manifest.resolve("fig6").curves)


class TestMergeStores:
    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            merge_stores(tmp_path / "m", [tmp_path / "nope"])

    def test_no_sources_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            merge_stores(tmp_path / "m", [])

    def test_shards_of_two_campaigns_are_refused_before_writing(self, tmp_path):
        first = _run_shard(tmp_path, _manifest(), 0)
        other = _run_shard(tmp_path, _manifest(repetitions=3), 1)
        with pytest.raises(ExperimentError, match="shards of different campaigns"):
            merge_stores(tmp_path / "m", [first, other])
        assert not (tmp_path / "m").exists()

    def test_the_merged_store_records_the_whole_campaign(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        shards = [_run_shard(tmp_path, manifest, k) for k in (0, 1)]
        merge_stores(tmp_path / "m", shards)
        assert read_record(tmp_path / "m") == CampaignRecord(manifest)
        (row,) = campaign_status([tmp_path / "m"])
        assert (row.shard, row.shards, row.complete) == (0, 1, True)


class TestShardStatus:
    def test_status_classifies_done_partial_missing(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        shards = plan(manifest, shards=2, by="block")
        store = ResultStore(tmp_path / "s0")
        execute_solves(manifest, shards[0].units, store)
        status = shard_status(shards[0], store)
        assert status.units == len(shards[0].units)
        assert status.done == status.units
        assert status.partial == status.missing == 0
        assert status.complete

        # The other shard's units are absent from this store.
        other = shard_status(shards[1], store)
        assert other.done == 0
        assert other.missing == other.units
        assert not other.complete

    def test_status_counts_shallow_records_as_partial(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        shard = plan(manifest, shards=1, by="seed")[0]
        shallow = dataclasses.replace(manifest, repetitions=1)
        store = ResultStore(tmp_path / "s")
        # Run at R=1, then check against the R=2 plan: every unit is
        # stored but too shallow to serve the deeper campaign.
        execute_solves(shallow, plan(shallow, shards=1, by="seed")[0].units, store)
        status = shard_status(shard, store)
        assert status.partial == status.units
        assert status.done == 0 and status.missing == 0

    def test_cell_done_needs_the_full_depth(self):
        record = CellRecord("fig6", "hash", 0, "H1", 5, repetitions=2, values=[1.0, 2.0])
        assert not cell_done(None, 1)
        assert not cell_done(record, 3)
        assert cell_done(record, 2)
        assert cell_done(record, 1)

    def test_solves_recompute_what_status_counts_as_partial(self, tmp_path):
        # execute_solves and shard_status share one hit rule: a shallow
        # cell is partial to the status and a miss to the solver, and
        # once re-solved at full depth it is done to both.
        manifest = _manifest(seeds=(0,))
        shard = plan(manifest, shards=1, by="seed")[0]
        shallow = dataclasses.replace(manifest, repetitions=1)
        store = ResultStore(tmp_path / "s")
        execute_solves(shallow, plan(shallow, shards=1, by="seed")[0].units, store)
        assert shard_status(shard, store).partial == len(shard.units)
        deeper = execute_solves(manifest, shard.units, store)
        assert deeper.hits == 0 and deeper.computed == len(shard.units)
        assert shard_status(shard, store).complete
        again = execute_solves(manifest, shard.units, store)
        assert again.hits == len(shard.units) and again.computed == 0



class TestCampaignStatus:
    def test_rows_follow_the_recorded_shards(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        first, second = (_run_shard(tmp_path, manifest, k) for k in (0, 1))
        # Each store names its shard, so the order they are listed in
        # does not matter.
        rows = campaign_status([second, first])
        assert [row.shard for row in rows] == [0, 1]
        assert [row.store for row in rows] == [str(first), str(second)]
        assert [row.units for row in rows] == [
            len(shard.units) for shard in plan(manifest, shards=2, by="block")
        ]
        assert status_payload(rows)["complete"]

    def test_an_unlisted_shard_counts_every_unit_as_missing(self, tmp_path):
        first = _run_shard(tmp_path, _manifest(seeds=(0,)), 0, shards=3)
        rows = campaign_status([first])
        assert [row.complete for row in rows] == [True, False, False]
        assert rows[2].store == "-" and rows[2].missing == rows[2].units > 0
        assert not status_payload(rows)["complete"]

    def test_a_store_without_a_record_is_rejected(self, tmp_path):
        ResultStore(tmp_path / "bare")
        with pytest.raises(ExperimentError, match=f"no {CAMPAIGN_FILE}"):
            campaign_status([tmp_path / "bare"])

    def test_two_stores_of_one_shard_are_rejected(self, tmp_path):
        # A shard store copied under another name would count twice.
        first = _run_shard(tmp_path, _manifest(seeds=(0,)), 0)
        shutil.copytree(first, tmp_path / "copy")
        with pytest.raises(ExperimentError, match="both hold shard 0/2"):
            campaign_status([first, tmp_path / "copy"])

    def test_stores_of_two_campaigns_are_rejected(self, tmp_path):
        # Indices 0..1 are present but do not tile one campaign.
        first = _run_shard(tmp_path, _manifest(), 0)
        other = _run_shard(tmp_path, _manifest(repetitions=3), 1)
        with pytest.raises(ExperimentError, match="different campaigns"):
            campaign_status([first, other])
