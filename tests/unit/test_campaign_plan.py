"""Unit tests for the distributed campaign subsystem (plan / shard solves / merge)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignManifest,
    ShardPlan,
    WorkUnit,
    execute_solves,
    expand_units,
    load_plan,
    load_shard_plans,
    merge_stores,
    parse_seed_spec,
    plan,
    shard_status,
    status_rows,
    write_plans,
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


class TestPlanFiles:
    def test_write_and_load_shard_plan(self, tmp_path):
        manifest = _manifest()
        written = write_plans(manifest, tmp_path / "plans", shards=2, by="block")
        assert len(written) == 2
        # The shard files are the whole planner output.
        assert sorted(path.name for path in (tmp_path / "plans").iterdir()) == [
            "shard_0.json",
            "shard_1.json",
        ]
        path, written_plan = written[1]
        assert written_plan == plan(manifest, shards=2, by="block")[1]
        shard = load_plan(path)
        assert isinstance(shard, ShardPlan)
        assert shard.index == 1 and shard.shards == 2
        assert shard.manifest == manifest
        assert shard.units == plan(manifest, shards=2, by="block")[1].units

    def test_load_plan_rejects_a_campaign_manifest(self, tmp_path):
        # A worker runs only an explicit unit list; it never re-plans.
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(_manifest().to_dict()), encoding="utf-8")
        with pytest.raises(ExperimentError, match="not a shard plan"):
            load_plan(path)

    def test_shard_file_rejects_units_outside_the_campaign(self, tmp_path):
        (path, _), _ = write_plans(_manifest(), tmp_path / "plans", shards=2, by="seed")
        data = json.loads(path.read_text(encoding="utf-8"))
        figure_id, _, curve, sweep_value = data["units"][0]
        data["units"].append([figure_id, 7, curve, sweep_value])  # seed 7 is not planned
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ExperimentError, match="not part of this campaign"):
            load_plan(path)


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

    def test_load_shard_plans_from_planner_outputs(self, tmp_path):
        manifest = _manifest()
        written = write_plans(manifest, tmp_path / "plans", shards=2, by="block")
        by_dir = load_shard_plans(tmp_path / "plans")
        assert [s.units for s in by_dir] == [shard.units for _, shard in written]
        single = load_shard_plans(written[1][0])
        assert len(single) == 1
        assert single[0].units == written[1][1].units

    def test_load_shard_plans_rejects_a_planless_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ExperimentError, match="no shard_"):
            load_shard_plans(tmp_path / "empty")

    def test_load_shard_plans_rejects_a_missing_shard(self, tmp_path):
        written = write_plans(_manifest(), tmp_path / "plans", shards=3, by="block")
        written[1][0].unlink()
        with pytest.raises(ExperimentError, match=r"shard\(s\) \[0, 2\] of a 3-shard plan"):
            load_shard_plans(tmp_path / "plans")

    def test_load_shard_plans_rejects_a_duplicated_shard(self, tmp_path):
        # A shard file copied under another name: the directory holds
        # shards 0, 0 and 1, and shard 0 would run twice.
        write_plans(_manifest(), tmp_path / "plans", shards=2, by="block")
        copy = tmp_path / "plans" / "shard_9.json"
        copy.write_bytes((tmp_path / "plans" / "shard_0.json").read_bytes())
        with pytest.raises(ExperimentError, match=r"shard\(s\) \[0, 0, 1\] of a 2-shard plan"):
            load_shard_plans(tmp_path / "plans")

    def test_load_shard_plans_rejects_shards_of_two_plans(self, tmp_path):
        # shard_1.json of another campaign, dropped into the directory
        # of a 2-shard plan: indices 0..1 are present but do not tile
        # one campaign.
        write_plans(_manifest(), tmp_path / "plans", shards=2, by="block")
        write_plans(_manifest(repetitions=3), tmp_path / "other", shards=2, by="block")
        (tmp_path / "other" / "shard_1.json").replace(tmp_path / "plans" / "shard_1.json")
        with pytest.raises(ExperimentError, match="different plans"):
            load_shard_plans(tmp_path / "plans")

    def test_status_rows_pairs_stores_with_shards(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        write_plans(manifest, tmp_path / "plans", shards=2, by="block")
        shards = load_shard_plans(tmp_path / "plans")
        store = ResultStore(tmp_path / "s0")
        execute_solves(manifest, shards[0].units, store)
        rows = status_rows(shards, [tmp_path / "s0", tmp_path / "s1"])
        assert rows[0].complete and not rows[1].complete
        # A single store is checked against every shard (merged case).
        merged_rows = status_rows(shards, [tmp_path / "s0"])
        assert merged_rows[0].complete and not merged_rows[1].complete
        with pytest.raises(ExperimentError, match="one store per shard"):
            status_rows(shards, [tmp_path / "a", tmp_path / "b", tmp_path / "c"])
