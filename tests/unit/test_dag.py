"""Unit tests for the content-addressed campaign DAG (`repro.dag`)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import CampaignManifest, expand_units, plan
from repro.dag import (
    ArtifactStore,
    DispatchReport,
    artifact_store_for,
    build_pipeline,
    classify_curve,
    provider_cost,
    run_pipeline,
    steal_dispatch,
    unit_cost,
)
from repro.dag.stage import (
    GenerateStage,
    SolveStage,
    content_key,
    sliced_cell,
    values_consistent,
)
from repro.exceptions import ExperimentError
from repro.experiments.providers import MIP_LABEL
from repro.experiments.store import CellRecord, ResultStore


def _manifest(**overrides) -> CampaignManifest:
    defaults = dict(
        figures=("fig5",),
        seeds=(0,),
        repetitions=2,
        max_points=2,
        no_milp=True,
        milp_time_limit=30.0,
    )
    defaults.update(overrides)
    return CampaignManifest(**defaults)


class TestContentKey:
    def test_deterministic_and_order_independent(self):
        a = content_key({"x": 1, "y": [2, 3]})
        b = content_key({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16
        assert content_key({"x": 2, "y": [2, 3]}) != a

    def test_stage_key_covers_params_and_inputs(self):
        manifest = _manifest()
        scenario = manifest.scenario_for("fig5")
        gen_a = GenerateStage("fig5", 0, scenario)
        gen_b = GenerateStage("fig5", 1, scenario)
        assert gen_a.key != gen_b.key
        solve_a = SolveStage(gen_a, "H4w", scenario.sweep_values[0])
        solve_b = SolveStage(gen_b, "H4w", scenario.sweep_values[0])
        # Same params, different upstream input -> different key.
        assert solve_a.params == solve_b.params
        assert solve_a.key != solve_b.key

    def test_milp_time_limit_keys_only_the_mip_curve(self):
        manifest = _manifest(no_milp=False)
        generate = GenerateStage("fig5", 0, manifest.scenario_for("fig5"))
        x = manifest.scenario_for("fig5").sweep_values[0]
        heur_30 = SolveStage(generate, "H4w", x, milp_time_limit=30.0)
        heur_60 = SolveStage(generate, "H4w", x, milp_time_limit=60.0)
        assert heur_30.key == heur_60.key
        mip_30 = SolveStage(generate, MIP_LABEL, x, milp_time_limit=30.0)
        mip_60 = SolveStage(generate, MIP_LABEL, x, milp_time_limit=60.0)
        assert mip_30.key != mip_60.key

    def test_code_version_invalidates(self, monkeypatch):
        generate = GenerateStage("fig5", 0, _manifest().scenario_for("fig5"))
        before = generate.key
        monkeypatch.setattr(GenerateStage, "CODE_VERSION", "999")
        assert GenerateStage("fig5", 0, _manifest().scenario_for("fig5")).key != before


class TestArtifactStore:
    def test_roundtrip_and_reopen(self, tmp_path):
        store = artifact_store_for(tmp_path / "s")
        assert isinstance(store, ArtifactStore)
        assert store.path == tmp_path / "s" / "artifacts"
        store.put("k1", "solve:x", {"values": [1.0, 2.0]})
        assert store.has("k1")
        assert not store.has("k2")
        assert store.get("k1") == {"values": [1.0, 2.0]}
        assert store.get("k2") is None
        store.flush()
        reopened = artifact_store_for(tmp_path / "s")
        assert reopened.get("k1") == {"values": [1.0, 2.0]}
        assert len(reopened) == 1

    def test_last_put_wins(self, tmp_path):
        store = artifact_store_for(tmp_path / "s")
        store.put("k", "solve:x", {"generation": 0})
        store.put("k", "solve:x", {"generation": 1})
        assert store.get("k") == {"generation": 1}
        assert len(store) == 1


class TestCostModel:
    def test_classification(self):
        assert classify_curve(MIP_LABEL) == "mip"
        assert classify_curve("OtO") == "oto"
        assert classify_curve("H4+ls") == "local_search"
        assert classify_curve("H4w") == "heuristic"

    def test_provider_cost_ordering(self):
        assert (
            provider_cost(MIP_LABEL)
            > provider_cost("OtO")
            > provider_cost("H4+ls")
            > provider_cost("H4w")
        )

    def test_unit_cost_scales_with_size_and_repetitions(self):
        manifest = _manifest(figures=("fig10",), no_milp=False)
        units = expand_units(manifest)
        mip = [u for u in units if u.curve == MIP_LABEL]
        heur = [u for u in units if u.curve == "H4w"]
        assert unit_cost(manifest, mip[0]) > unit_cost(manifest, heur[0])
        # Larger sweep value -> larger instance -> higher estimate.
        small = min(heur, key=lambda u: u.sweep_value)
        large = max(heur, key=lambda u: u.sweep_value)
        assert unit_cost(manifest, large) > unit_cost(manifest, small)
        doubled = _manifest(figures=("fig10",), no_milp=False, repetitions=4)
        assert unit_cost(doubled, heur[0]) == 2 * unit_cost(manifest, heur[0])


class TestCostBalancedPlan:
    def test_lpt_beats_round_robin_on_mixed_plan(self):
        # fig10 carries the MIP curve (~100x a list heuristic), so a
        # count-based round-robin leaves one shard MIP-free while LPT
        # spreads the expensive blocks.
        manifest = _manifest(figures=("fig10",), no_milp=False, seeds=(0,))

        def spread(shards):
            loads = [
                sum(unit_cost(manifest, unit) for unit in shard.units)
                for shard in shards
            ]
            return max(loads) - min(loads)

        naive = plan(manifest, shards=3, by="block", balance="round_robin")
        balanced = plan(manifest, shards=3, by="block", balance="cost")
        assert spread(balanced) < spread(naive)

    def test_cost_balance_keeps_canonical_unit_order(self):
        manifest = _manifest(no_milp=False, seeds=(0, 1))
        rank = {unit: i for i, unit in enumerate(expand_units(manifest))}
        for shard in plan(manifest, shards=2, by="block", balance="cost"):
            ranks = [rank[unit] for unit in shard.units]
            assert ranks == sorted(ranks)

    def test_partition_is_disjoint_and_complete(self):
        manifest = _manifest(no_milp=False, seeds=(0, 1, 2))
        shards = plan(manifest, shards=3, by="seed", balance="cost")
        merged = [unit for shard in shards for unit in shard.units]
        assert sorted(merged, key=lambda u: str(u)) == sorted(
            expand_units(manifest), key=lambda u: str(u)
        )
        # by=seed keeps whole seeds together whatever the balance policy.
        for shard in shards:
            assert len({unit.seed for unit in shard.units}) <= 1

    def test_unknown_balance_rejected(self):
        with pytest.raises(ExperimentError):
            plan(_manifest(), shards=2, balance="nope")


class TestStealDispatch:
    def _run(self, queues, costs=None, *, slots, steal=True):
        executed = []
        with ThreadPoolExecutor(max_workers=slots) as pool:
            report = steal_dispatch(
                pool,
                lambda item: item,
                queues,
                costs,
                slots=slots,
                steal=steal,
                on_result=lambda item, result: executed.append((item, result)),
            )
        return report, executed

    def test_everything_executes_exactly_once(self):
        queues = [[f"q{q}i{i}" for i in range(5)] for q in range(4)]
        report, executed = self._run(queues, slots=2)
        assert report.executed == 20
        assert sorted(item for item, _ in executed) == sorted(
            item for queue in queues for item in queue
        )
        assert all(item == result for item, result in executed)

    def test_idle_slot_steals_from_straggler(self):
        # Queue 0 (owned by slot 0) holds everything; slot 1 owns only
        # an empty queue and must steal or idle.
        queues = [list(range(50)), []]
        report, executed = self._run(queues, slots=2)
        assert report.executed == 50
        assert report.stolen > 0

    def test_steal_false_never_steals(self):
        queues = [list(range(20)), []]
        report, _ = self._run(queues, slots=2, steal=False)
        assert report.executed == 20
        assert report.stolen == 0

    def test_empty_queues(self):
        report, executed = self._run([[], []], slots=2)
        assert report == DispatchReport(queues=2, slots=2)
        assert executed == []


class TestSlicedCell:
    def _output(self, values, failures):
        return {"values": values, "failures": failures, "repetitions": len(values)}

    def test_matches_cell_record_sliced(self):
        nan = float("nan")
        for values, failures, want in [
            ([1.0, 2.0, 3.0], 0, 3),
            ([1.0, nan, 3.0], 1, 3),
            ([1.0, nan, 3.0], 1, 2),
            ([nan, 2.0, 3.0], 1, 1),
            ([1.0, 2.0, 3.0], 0, 2),
        ]:
            record = CellRecord(
                figure_id="figX",
                scenario_hash="abc",
                seed=0,
                curve="H4w",
                sweep_value=10,
                repetitions=len(values),
                values=list(values),
                failures=failures,
            )
            want_values, want_failures = record.sliced(want)
            got_values, got_failures = sliced_cell(self._output(values, failures), want)
            assert got_values == pytest.approx(want_values, nan_ok=True)
            assert got_failures == want_failures

    def test_values_consistent(self):
        assert values_consistent(self._output([1.0, 2.0], 0), 2)
        assert values_consistent(self._output([1.0, 2.0, 3.0], 0), 2)
        assert not values_consistent(self._output([1.0], 0), 2)


class TestPipeline:
    def test_counts_and_wiring(self):
        manifest = _manifest(seeds=(0, 1))
        pipeline = build_pipeline(manifest)
        counts = pipeline.counts()
        units = expand_units(manifest)
        assert counts["generate"] == 2
        assert counts["solve"] == len(units)
        assert counts["aggregate"] == 2
        assert counts["render"] == 1
        # Solve stages follow the canonical unit expansion order.
        assert list(pipeline.solves) == units
        # Each aggregate consumes exactly its own run's solve stages,
        # which all hang off that run's generate stage.
        for (figure_id, seed), aggregate in pipeline.aggregates.items():
            expected = [
                stage
                for unit, stage in pipeline.solves.items()
                if (unit.figure_id, unit.seed) == (figure_id, seed)
            ]
            assert list(aggregate.inputs) == expected
            generate = pipeline.generates[(figure_id, seed)]
            assert all(stage.inputs == (generate,) for stage in aggregate.inputs)

    def test_solves_for_unknown_unit_rejected(self):
        manifest = _manifest()
        pipeline = build_pipeline(manifest)
        foreign = expand_units(_manifest(seeds=(7,)))
        with pytest.raises(ExperimentError):
            pipeline.solves_for(foreign)


class TestRunPipeline:
    def test_second_run_is_all_hits_and_bit_identical(self, tmp_path):
        manifest = _manifest()
        store = ResultStore(tmp_path / "s")
        first = run_pipeline(build_pipeline(manifest), store)
        assert first.report.computed["solve"] == len(expand_units(manifest))
        assert first.report.total_hits == 0
        second = run_pipeline(build_pipeline(manifest), store)
        assert second.report.computed == {
            "generate": 0,
            "solve": 0,
            "aggregate": 0,
            "render": 0,
        }
        assert second.report.hit_rate() == 1.0
        assert second.renders == first.renders
        store.close()

    def test_legacy_store_is_adopted_without_resolving(self, tmp_path):
        from repro.experiments.runner import run_figure

        manifest = _manifest()
        store = ResultStore(tmp_path / "s")
        legacy = run_figure(
            "fig5",
            seed=0,
            repetitions=manifest.repetitions,
            max_points=manifest.max_points,
            include_milp=False,
        )
        store.save_result(legacy)
        run = run_pipeline(build_pipeline(manifest), store)
        assert run.report.computed["solve"] == 0
        assert run.report.hits["solve"] == len(expand_units(manifest))
        # The DAG's per-seed render is byte-identical to the legacy result.
        assert run.renders["fig5"]["per_seed"]["0"] == legacy.to_csv()
        store.close()

    def test_no_resume_recomputes_solves(self, tmp_path):
        manifest = _manifest()
        store = ResultStore(tmp_path / "s")
        run_pipeline(build_pipeline(manifest), store)
        forced = run_pipeline(build_pipeline(manifest), store, resume=False)
        assert forced.report.hits["solve"] == 0
        assert forced.report.computed["solve"] == len(expand_units(manifest))
        store.close()

    def test_changed_repetitions_invalidates_only_downstream(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run_pipeline(build_pipeline(_manifest(repetitions=2)), store)
        # More repetitions: every solve key changes (scenario changed).
        deeper = run_pipeline(build_pipeline(_manifest(repetitions=3)), store)
        assert deeper.report.computed["solve"] > 0
        assert deeper.report.hits["solve"] == 0
        store.close()


def test_dag_package_imports_first():
    # repro.dag and repro.campaign import each other (the worker wraps
    # the DAG scheduler); `import repro.dag` in a fresh interpreter —
    # i.e. *before* repro.campaign — must not hit a circular import.
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import repro.dag; print(repro.dag.build_pipeline.__name__)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "build_pipeline"


def test_serial_figure_run_loads_no_dag_or_campaign_module():
    # The runner imports the DAG scheduler only for workers > 1: neither
    # importing it nor a serial run_figure pulls in repro.dag/repro.campaign.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from repro.experiments.runner import run_figure\n"
        "run_figure('fig6', seed=0, repetitions=1, max_points=1, include_milp=False)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.dag', 'repro.campaign'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
