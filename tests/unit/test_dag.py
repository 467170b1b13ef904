"""Unit tests for campaign execution (`repro.campaign.execute`) and the
block executor's cost model and stealing: cell-store resume and exports
derived on read."""

from __future__ import annotations

import importlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import pytest

from repro.campaign import CampaignManifest, PipelineReport, expand_units, plan, run_pipeline
from repro.cli import STORE_ENV_VAR, main
from repro.experiments.cost import block_cost, classify_curve, provider_cost
from repro.experiments.providers import MIP_LABEL
from repro.experiments.runner import DispatchReport, steal_dispatch
from repro.experiments.store import ResultStore


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


def _unit_cost(manifest: CampaignManifest, unit) -> float:
    """The :func:`block_cost` of one campaign work unit."""
    return block_cost(manifest.resolve(unit.figure_id).scenario, unit.curve, unit.sweep_value)


def _run_manifest(**overrides) -> CampaignManifest:
    """A campaign small enough to execute in a unit test (fig6, one point)."""
    return _manifest(**{"figures": ("fig6",), "max_points": 1, **overrides})


class TestCostModel:
    def test_classification(self):
        assert classify_curve(MIP_LABEL) == "mip"
        assert classify_curve("OtO") == "oto"
        assert classify_curve("H4+ls") == "local_search"
        assert classify_curve("H4ls") == "local_search"
        assert classify_curve("H4w") == "heuristic"
        assert classify_curve("H2") == "bisection"
        assert classify_curve("H3") == "bisection"
        assert classify_curve("H1") == "random"

    def test_provider_cost_ordering(self):
        # Local search is dearer than OtO at the m=10 shapes it runs on
        # (a descent of ~50 moves), but both stay between MIP and a
        # plain heuristic.
        assert provider_cost(MIP_LABEL) > provider_cost("H4+ls") > provider_cost("H4w")
        assert provider_cost(MIP_LABEL) > provider_cost("H4ls") > provider_cost("H4w")
        assert provider_cost(MIP_LABEL) > provider_cost("OtO") > provider_cost("H4w")
        # H1 blocks took 3.6-5.8 H4/H4w units on fig5, fig8 and fig10 points.
        assert 3.5 <= provider_cost("H1") <= 6.0
        assert provider_cost("H1") > provider_cost("OtO")

    def test_a_bisection_block_costs_more_than_an_h4w_block(self):
        # fig9 at R=30: an H2 or H3 block takes 8-12x an H4w block.
        manifest = _manifest(figures=("fig9",))
        units = expand_units(manifest)
        bisections = [u for u in units if u.curve in ("H2", "H3")]
        assert bisections
        for unit in bisections:
            twin = next(
                u for u in units if u.curve == "H4w" and u.sweep_value == unit.sweep_value
            )
            assert _unit_cost(manifest, unit) > _unit_cost(manifest, twin)

    def test_unit_cost_scales_with_size_and_repetitions(self):
        manifest = _manifest(figures=("fig10",), no_milp=False)
        units = expand_units(manifest)
        mip = [u for u in units if u.curve == MIP_LABEL]
        heur = [u for u in units if u.curve == "H4w"]
        assert _unit_cost(manifest, mip[0]) > _unit_cost(manifest, heur[0])
        # Larger sweep value -> larger instance -> higher estimate.
        small = min(heur, key=lambda u: u.sweep_value)
        large = max(heur, key=lambda u: u.sweep_value)
        assert _unit_cost(manifest, large) > _unit_cost(manifest, small)
        doubled = _manifest(figures=("fig10",), no_milp=False, repetitions=4)
        assert _unit_cost(doubled, heur[0]) == 2 * _unit_cost(manifest, heur[0])


class TestCostBalancedPlan:
    def test_lpt_beats_round_robin_on_mixed_plan(self):
        # fig10 carries the MIP curve (~100x a list heuristic), so a
        # count-based round-robin leaves one shard MIP-free while LPT
        # spreads the expensive blocks.
        manifest = _manifest(figures=("fig10",), no_milp=False, seeds=(0,))
        units = expand_units(manifest)

        def spread(shard_units):
            loads = [
                sum(_unit_cost(manifest, unit) for unit in queue)
                for queue in shard_units
            ]
            return max(loads) - min(loads)

        naive = [units[k::3] for k in range(3)]
        balanced = [shard.units for shard in plan(manifest, shards=3, by="block")]
        assert spread(balanced) < spread(naive)

    def test_lpt_matches_a_worked_example(self, monkeypatch):
        # Blocks priced 3, 5, 2, 3, 1, 2 over two shards.  Longest first,
        # each to the least-loaded shard; equal prices keep canonical
        # order (the first 3 before the second) and equal loads go to the
        # lower shard index (the 5 lands on shard 0).  Loads: 5|0, 5|3,
        # 5|6, 7|6, 7|8, 8|8.
        manifest = _manifest()
        units = expand_units(manifest)[:6]
        prices = dict(zip(units, (3.0, 5.0, 2.0, 3.0, 1.0, 2.0)))
        # The package re-exports `plan`, which shadows the module name.
        plan_module = importlib.import_module("repro.campaign.plan")
        monkeypatch.setattr(plan_module, "expand_units", lambda _: units)
        by_block = {(unit.curve, unit.sweep_value): price for unit, price in prices.items()}
        monkeypatch.setattr(
            plan_module,
            "block_cost",
            lambda _, curve, sweep_value: by_block[(curve, sweep_value)],
        )
        shards = plan(manifest, shards=2, by="block")
        assert [list(shard.units) for shard in shards] == [
            [units[1], units[2], units[4]],
            [units[0], units[3], units[5]],
        ]

    def test_cost_balance_keeps_canonical_unit_order(self):
        manifest = _manifest(no_milp=False, seeds=(0, 1))
        rank = {unit: i for i, unit in enumerate(expand_units(manifest))}
        for shard in plan(manifest, shards=2, by="block"):
            ranks = [rank[unit] for unit in shard.units]
            assert ranks == sorted(ranks)

    def test_partition_is_disjoint_and_complete(self):
        manifest = _manifest(no_milp=False, seeds=(0, 1, 2))
        shards = plan(manifest, shards=3, by="seed")
        merged = [unit for shard in shards for unit in shard.units]
        assert sorted(merged, key=lambda u: str(u)) == sorted(
            expand_units(manifest), key=lambda u: str(u)
        )
        # by=seed keeps whole seeds together.
        for shard in shards:
            assert len({unit.seed for unit in shard.units}) <= 1

    def test_plan_has_one_balance_policy(self):
        with pytest.raises(TypeError):
            plan(_manifest(), shards=2, balance="cost")


class TestStealDispatch:
    def _run(self, queues, costs=None, *, slots, steal=True):
        executed = []
        with ThreadPoolExecutor(max_workers=slots) as pool:
            report = steal_dispatch(
                partial(pool.submit, lambda item: item),
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


class TestPipelineReport:
    def test_summary_line(self):
        report = PipelineReport(hits=30, computed=10, stolen=2, elapsed_seconds=1.26)
        assert report.summary() == (
            "solve: 30 stored / 10 computed; 10 block solve(s) (75% from the store), "
            "2 job(s) stolen, 1.3s"
        )

    def test_nothing_to_do_counts_as_all_stored(self):
        report = PipelineReport()
        assert report.hit_rate() == 1.0
        assert report.summary() == (
            "solve: 0 stored / 0 computed; 0 block solve(s) (100% from the store), 0.0s"
        )


class TestRunPipeline:
    def test_second_run_is_all_hits_and_bit_identical(self, tmp_path):
        manifest = _run_manifest()
        store = ResultStore(tmp_path / "s")
        first = run_pipeline(manifest, store)
        assert first.report.computed == len(expand_units(manifest))
        assert first.report.hits == 0
        second = run_pipeline(manifest, store)
        assert second.report.computed == 0
        assert second.report.hit_rate() == 1.0
        assert second.renders == first.renders

    def test_identical_rerun_writes_nothing(self, tmp_path):
        manifest = _run_manifest()
        store = ResultStore(tmp_path / "s")
        run_pipeline(manifest, store)
        records = (store.path / "results.jsonl").read_bytes()
        (meta,) = store.runs()
        run_pipeline(manifest, store)
        assert (store.path / "results.jsonl").read_bytes() == records
        # The first run's wall-clock survives the no-op re-run.
        assert store.runs() == [meta]
        assert meta.elapsed_seconds > 0.0

    def test_run_header_names_the_numpy_kernels(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run_pipeline(_run_manifest(), store)
        (meta,) = store.runs()
        assert meta.backend == "numpy"

    def test_header_naming_another_kernel_set_still_resumes(self, tmp_path):
        manifest = _run_manifest()
        fresh = ResultStore(tmp_path / "fresh")
        first = run_pipeline(manifest, fresh)
        (meta,) = fresh.runs()
        # A store written when other kernel implementations existed.
        old = ResultStore(tmp_path / "old")
        old.put_meta(replace(meta, backend="jit"))
        old.merge(ResultStore(tmp_path / "fresh"))
        records = (old.path / "results.jsonl").read_bytes()
        again = run_pipeline(manifest, old)
        assert again.report.computed == 0
        assert again.renders == first.renders
        assert (old.path / "results.jsonl").read_bytes() == records
        assert [m.backend for m in old.runs()] == ["jit"]

    def test_store_holds_only_cells_and_run_headers(self, tmp_path):
        manifest = _run_manifest(seeds=(0, 1))
        store = ResultStore(tmp_path / "s")
        run = run_pipeline(manifest, store)
        assert len(store.cells()) == len(expand_units(manifest))
        assert [meta.seed for meta in store.runs()] == [0, 1]
        # Exports are derived from the cells, exactly as `export` reads them.
        for seed in manifest.seeds:
            assert run.renders["fig6"]["per_seed"][str(seed)] == (
                store.load_result("fig6", seed=seed).to_csv()
            )
        assert sorted(path.name for path in (tmp_path / "s").iterdir()) == [
            "results.jsonl",
        ]

    def test_single_seed_has_no_aggregate(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run = run_pipeline(_run_manifest(), store)
        assert set(run.renders["fig6"]["per_seed"]) == {"0"}
        assert run.renders["fig6"]["aggregate"] is None

    def test_pre_dag_store_is_served_without_solving(self, tmp_path):
        from repro.experiments.runner import run_figure

        manifest = _run_manifest()
        store = ResultStore(tmp_path / "s")
        legacy = run_figure(
            "fig6",
            seed=0,
            repetitions=manifest.repetitions,
            max_points=manifest.max_points,
            include_milp=False,
        )
        store.save_result(legacy)
        run = run_pipeline(manifest, store)
        assert run.report.computed == 0
        assert run.report.hits == len(expand_units(manifest))
        # The per-seed export is byte-identical to the stored result's.
        assert run.renders["fig6"]["per_seed"]["0"] == legacy.to_csv()

    def test_old_artifact_log_is_neither_read_nor_deleted(self, tmp_path):
        manifest = _run_manifest()
        store = ResultStore(tmp_path / "s")
        first = run_pipeline(manifest, store)
        artifacts = tmp_path / "s" / "artifacts"
        artifacts.mkdir()
        (artifacts / "artifacts.jsonl").write_text("not json\n", encoding="utf-8")
        store = ResultStore(tmp_path / "s")
        second = run_pipeline(manifest, store)
        assert second.report.computed == 0
        assert second.renders == first.renders
        assert (artifacts / "artifacts.jsonl").read_text(encoding="utf-8") == "not json\n"

    def test_no_resume_recomputes_solves(self, tmp_path):
        manifest = _run_manifest()
        store = ResultStore(tmp_path / "s")
        run_pipeline(manifest, store)
        forced = run_pipeline(manifest, store, resume=False)
        assert forced.report.hits == 0
        assert forced.report.computed == len(expand_units(manifest))

    def test_more_repetitions_recompute_every_unit(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run_pipeline(_run_manifest(repetitions=2), store)
        # Stored cells are too shallow for three repetitions.
        deeper = run_pipeline(_run_manifest(repetitions=3), store)
        assert deeper.report.computed == len(expand_units(_run_manifest()))
        assert deeper.report.hits == 0

    def test_fewer_repetitions_rewrite_the_run_header(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run_pipeline(_run_manifest(repetitions=3), store)
        shallow = run_pipeline(_run_manifest(repetitions=2), store)
        assert shallow.report.computed == 0
        (meta,) = store.runs()
        assert meta.scenario["repetitions"] == 2
        assert store.load_result("fig6", seed=0).scenario.repetitions == 2


class TestDagPlanCli:
    def _plan(self, capsys, manifest_args, store=None):
        args = ["dag", "plan", "fig6", *manifest_args]
        if store is not None:
            args += ["--store", str(store)]
        assert main(args) == 0
        return capsys.readouterr().out.splitlines()

    def test_reports_units_runs_and_store_progress(self, tmp_path, capsys, monkeypatch):
        # CI's tier-1 job exports REPRO_STORE; `dag plan` without --store
        # would read it and print a store line.
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        manifest_args = [
            "--seeds", "0..1", "--repetitions", "2", "--max-points", "1", "--no-milp",
        ]
        manifest = _run_manifest(seeds=(0, 1))
        units = len(expand_units(manifest))
        store = tmp_path / "s"
        # `dag plan` reads a store and never creates one.
        opened = ResultStore(store)
        totals, before = self._plan(capsys, manifest_args, store)
        assert totals.startswith(f"{units} unit(s) over 2 run(s); est. solve cost ")
        assert before == f"store at {store}: 0/{units} unit(s) stored"
        run_pipeline(manifest, opened)
        _, after = self._plan(capsys, manifest_args, store)
        assert after == f"store at {store}: {units}/{units} unit(s) stored"
        # Without --store only the totals print.
        assert self._plan(capsys, manifest_args) == [totals]


def test_campaign_package_imports_first():
    # repro.campaign imports repro.experiments and never the reverse, so
    # importing it first in a fresh interpreter needs no import order.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import repro.campaign; print(repro.campaign.run_pipeline.__name__)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "run_pipeline"


def test_serial_figure_run_loads_no_dag_or_campaign_module():
    # Imports flow from repro.campaign to repro.experiments, never back:
    # neither importing the runner nor a serial run_figure pulls in
    # repro.campaign.  The graph library is no dependency at all,
    # scipy.stats is never needed (the CI critical value comes from
    # scipy.special), and scipy.optimize (the MIP) loads only when first used.
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
        "             if m.startswith(('repro.campaign', 'networkx',\n"
        "                              'scipy.stats', 'scipy.optimize'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
