"""Unit tests for the command-line interface."""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading

import pytest

from repro.cli import CAMPAIGN_MANIFEST, STORE_ENV_VAR, build_parser, main
from repro.experiments import ResultStore
from repro.service import SolveService, direct_response, normalize_request


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_run_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_has_no_engine_flag(self, capsys):
        # One block engine: the per-cell reference engine left the CLI.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6", "--engine", "cells"])
        assert "--engine" in capsys.readouterr().err

    def test_has_no_backend_flag(self, capsys):
        # One kernel set: no option selects the kernels any more.
        for argv in (["--backend", "numpy", "list"], ["list", "--backend", "numpy"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err


#: Every command that describes a campaign manifest, with the arguments
#: it needs besides the shared manifest flags.
_MANIFEST_COMMANDS = {
    "run": ["run", "fig6"],
    "campaign": ["campaign", "fig6"],
    "shard plan": ["shard", "plan", "fig6", "--shards", "2", "--out", "plans"],
    "dag plan": ["dag", "plan", "fig6"],
    "dag run": ["dag", "run", "fig6"],
}
_MANIFEST_FIELDS = ("repetitions", "max_points", "no_milp", "milp_time_limit", "optional_curves")


class TestManifestArguments:
    """``run``, ``campaign``, ``shard plan`` and ``dag plan/run`` share one
    block of manifest flags: same names, defaults and dests everywhere."""

    @pytest.mark.parametrize("command", sorted(_MANIFEST_COMMANDS))
    def test_shared_flags_parse_alike(self, command):
        parser = build_parser()
        argv = _MANIFEST_COMMANDS[command]
        defaults = vars(parser.parse_args(argv))
        given = vars(
            parser.parse_args(
                argv
                + [
                    "--repetitions", "3", "--max-points", "2", "--no-milp",
                    "--milp-time-limit", "5", "--optional-curves",
                ]
            )
        )
        assert [defaults[field] for field in _MANIFEST_FIELDS] == [
            None, None, False, 30.0, False,
        ]
        assert [given[field] for field in _MANIFEST_FIELDS] == [3, 2, True, 5.0, True]
        # Only the commands that compute take the speed-only run knobs.
        if command in ("run", "campaign", "dag run"):
            knobs = vars(parser.parse_args(argv + ["--workers", "2", "--memoize-instances"]))
            assert (knobs["workers"], knobs["memoize_instances"]) == (2, True)
            assert (defaults["workers"], defaults["memoize_instances"]) == (None, False)
        else:
            assert "workers" not in defaults and "memoize_instances" not in defaults


class TestListCommand:
    def test_lists_every_figure(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for fig in ("fig5", "fig9", "fig12"):
            assert fig in output


class TestSolveCommand:
    def test_solve_prints_all_heuristics(self, capsys):
        code = main(["solve", "--tasks", "6", "--types", "2", "--machines", "3", "--seed", "1"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("H1", "H2", "H3", "H4", "H4w", "H4f"):
            assert name in output
        assert "period(ms)" in output

    def test_solve_with_milp(self, capsys):
        code = main(
            [
                "solve",
                "--tasks",
                "5",
                "--types",
                "2",
                "--machines",
                "3",
                "--seed",
                "2",
                "--milp",
            ]
        )
        assert code == 0
        assert "MIP" in capsys.readouterr().out

    def test_solve_high_failures(self, capsys):
        code = main(
            [
                "solve",
                "--tasks",
                "6",
                "--types",
                "2",
                "--machines",
                "4",
                "--seed",
                "3",
                "--high-failures",
            ]
        )
        assert code == 0


class TestRunCommand:
    def test_run_figure_table(self, capsys):
        code = main(
            [
                "run",
                "fig6",
                "--repetitions",
                "1",
                "--max-points",
                "2",
                "--seed",
                "0",
                "--no-milp",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "== fig6 ==" in output
        assert "H4w" in output

    def test_run_figure_csv(self, capsys):
        code = main(
            [
                "run",
                "fig6",
                "--repetitions",
                "1",
                "--max-points",
                "2",
                "--seed",
                "0",
                "--no-milp",
                "--csv",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("n,")
        assert "H2_mean" in output

    def test_run_with_optional_curves(self, capsys):
        code = main(
            [
                "run", "fig6", "--repetitions", "1", "--max-points", "2",
                "--seed", "0", "--no-milp", "--optional-curves",
            ]
        )
        assert code == 0
        assert "H4ls" in capsys.readouterr().out

    def test_run_resume_requires_store(self, monkeypatch, capsys):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert main(["run", "fig6", "--repetitions", "1", "--resume"]) == 2
        assert "needs a store" in capsys.readouterr().err


def _campaign_args(store) -> list[str]:
    return [
        "campaign", "fig6", "fig10", "--store", str(store),
        "--repetitions", "1", "--max-points", "2", "--no-milp", "--seed", "0",
    ]


class TestCampaignCommands:
    def test_campaign_runs_figures_into_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(_campaign_args(store_dir)) == 0
        output = capsys.readouterr().out
        assert "fig6" in output and "fig10" in output
        assert "campaign: 2 figure run(s)" in output
        assert (store_dir / CAMPAIGN_MANIFEST).exists()
        store = ResultStore(store_dir)
        assert store.load_result("fig6").figure_id == "fig6"
        assert store.load_result("fig10").figure_id == "fig10"

    def test_resume_completes_without_recomputation(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        assert main(["resume", "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "campaign: 2 figure run(s)" in output

    def test_resume_without_manifest_rejected(self, tmp_path, capsys):
        store_dir = tmp_path / "empty-store"
        store_dir.mkdir()
        assert main(["resume", "--store", str(store_dir)]) == 2
        assert "campaign" in capsys.readouterr().err

    def test_export_catalog_and_figures(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        assert main(["export", "--store", str(store_dir)]) == 0
        catalog = capsys.readouterr().out
        assert "fig6" in catalog and "fig10" in catalog and "True" in catalog
        assert main(["export", "--store", str(store_dir), "fig6", "--csv"]) == 0
        assert capsys.readouterr().out.startswith("n,")

    def test_store_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        store_dir = tmp_path / "env-store"
        monkeypatch.setenv(STORE_ENV_VAR, str(store_dir))
        assert (
            main(
                [
                    "campaign", "fig6", "--repetitions", "1", "--max-points", "2",
                    "--no-milp", "--seed", "0",
                ]
            )
            == 0
        )
        assert (store_dir / CAMPAIGN_MANIFEST).exists()

    def test_campaign_manifest_records_settings(self, tmp_path):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        manifest = json.loads((store_dir / CAMPAIGN_MANIFEST).read_text())
        assert manifest["figures"] == ["fig6", "fig10"]
        assert manifest["repetitions"] == 1
        assert manifest["no_milp"] is True
        assert manifest["seeds"] == [0]

    def test_multi_seed_campaign_stores_every_seed(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            [
                "campaign", "fig6", "--store", str(store_dir), "--seeds", "3..4",
                "--repetitions", "1", "--max-points", "2", "--no-milp",
            ]
        )
        assert code == 0
        assert "campaign: 2 figure run(s)" in capsys.readouterr().out
        store = ResultStore(store_dir)
        assert store.load_result("fig6", seed=3).seed == 3
        assert store.load_result("fig6", seed=4).seed == 4

    def test_seed_and_seeds_are_mutually_exclusive(self, tmp_path, capsys):
        code = main(
            [
                "campaign", "fig6", "--store", str(tmp_path / "s"),
                "--seed", "1", "--seeds", "0..2",
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_resume_reads_legacy_scalar_seed_manifest(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        manifest = json.loads((store_dir / CAMPAIGN_MANIFEST).read_text())
        manifest["seed"] = manifest.pop("seeds")[0]  # pre-multi-seed layout
        (store_dir / CAMPAIGN_MANIFEST).write_text(json.dumps(manifest))
        assert main(["resume", "--store", str(store_dir)]) == 0
        assert "campaign: 2 figure run(s)" in capsys.readouterr().out

    def test_export_aggregate_seeds_csv(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(
            [
                "campaign", "fig6", "--store", str(store_dir), "--seeds", "0,1",
                "--repetitions", "1", "--max-points", "2", "--no-milp",
            ]
        )
        capsys.readouterr()
        code = main(
            ["export", "--store", str(store_dir), "fig6", "--aggregate", "seeds", "--csv"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("n,")
        # Two seeds x one repetition pooled per point.
        assert ",2\r\n" in output or ",2\n" in output
        code = main(
            ["export", "--store", str(store_dir), "fig6", "--aggregate", "seeds"]
        )
        assert code == 0
        assert "aggregated over 2 seeds" in capsys.readouterr().out

    def test_export_aggregate_needs_figures(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        assert main(["export", "--store", str(store_dir), "--aggregate", "seeds"]) == 2
        assert "figure names" in capsys.readouterr().err

    def test_export_scenario_hash_filter(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(
            [
                "campaign", "fig6", "--store", str(store_dir), "--seeds", "0,1",
                "--repetitions", "1", "--max-points", "2", "--no-milp",
            ]
        )
        capsys.readouterr()
        store = ResultStore(store_dir)
        stored_hash = store.runs()[0].scenario_hash
        code = main(
            [
                "export", "--store", str(store_dir), "fig6",
                "--aggregate", "seeds", "--scenario-hash", stored_hash, "--csv",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("n,")
        code = main(
            [
                "export", "--store", str(store_dir), "fig6",
                "--aggregate", "seeds", "--scenario-hash", "deadbeef0000",
            ]
        )
        assert code == 2
        assert "no stored run" in capsys.readouterr().err

    def test_export_aggregate_rejects_seed_filter(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        code = main(
            [
                "export", "--store", str(store_dir), "fig6",
                "--aggregate", "seeds", "--seed", "0",
            ]
        )
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_export_between_seed_ci(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(
            [
                "campaign", "fig6", "--store", str(store_dir), "--seeds", "0,1",
                "--repetitions", "2", "--max-points", "2", "--no-milp",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "export", "--store", str(store_dir), "fig6",
                "--aggregate", "seeds", "--ci", "between", "--csv",
            ]
        )
        assert code == 0
        between = capsys.readouterr().out
        # One sample per *seed* per point (2), not per repetition (4).
        assert ",2\n" in between or ",2\r\n" in between
        code = main(
            [
                "export", "--store", str(store_dir), "fig6",
                "--aggregate", "seeds", "--ci", "between",
            ]
        )
        assert code == 0
        assert "between-seed CIs" in capsys.readouterr().out

    def test_export_ci_requires_aggregate(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        code = main(
            ["export", "--store", str(store_dir), "fig6", "--ci", "between"]
        )
        assert code == 2
        assert "--aggregate" in capsys.readouterr().err


def _plan_args(out_dir, extra=()) -> list[str]:
    return [
        "shard", "plan", "fig6", "--seeds", "0..1", "--shards", "2", "--by", "block",
        "--out", str(out_dir), "--repetitions", "1", "--max-points", "2", "--no-milp",
        *extra,
    ]


class TestShardCommands:
    def test_plan_writes_campaign_and_shard_files(self, tmp_path, capsys):
        out = tmp_path / "plans"
        assert main(_plan_args(out)) == 0
        output = capsys.readouterr().out
        assert "2 shard(s)" in output
        assert (out / "campaign.json").exists()
        assert (out / "shard_0.json").exists() and (out / "shard_1.json").exists()

    def test_shard_run_and_merge_match_single_host(self, tmp_path, capsys):
        out = tmp_path / "plans"
        main(_plan_args(out))
        for k in (0, 1):
            code = main(
                [
                    "shard", "run", str(out / f"shard_{k}.json"),
                    "--store", str(tmp_path / f"shard{k}"),
                ]
            )
            assert code == 0
        capsys.readouterr()
        code = main(
            [
                "store", "merge", "--store", str(tmp_path / "merged"),
                str(tmp_path / "shard0"), str(tmp_path / "shard1"),
            ]
        )
        assert code == 0
        assert "cell(s) added" in capsys.readouterr().out
        # The merged store serves export exactly like a single-host store.
        single = tmp_path / "single"
        main(
            [
                "campaign", "fig6", "--store", str(single), "--seeds", "0..1",
                "--repetitions", "1", "--max-points", "2", "--no-milp",
            ]
        )
        capsys.readouterr()
        main(["export", "--store", str(tmp_path / "merged"), "fig6", "--seed", "0", "--csv"])
        merged_csv = capsys.readouterr().out
        main(["export", "--store", str(single), "fig6", "--seed", "0", "--csv"])
        assert merged_csv == capsys.readouterr().out

    def test_shard_run_from_campaign_manifest_coordinates(self, tmp_path, capsys):
        out = tmp_path / "plans"
        main(_plan_args(out))
        capsys.readouterr()
        code = main(
            [
                "shard", "run", str(out / "campaign.json"), "--shard", "1/2",
                "--store", str(tmp_path / "s1"),
            ]
        )
        assert code == 0
        assert "shard 1/2" in capsys.readouterr().out

    def test_shard_run_rejects_bad_coordinates(self, tmp_path, capsys):
        out = tmp_path / "plans"
        main(_plan_args(out))
        capsys.readouterr()
        code = main(
            [
                "shard", "run", str(out / "campaign.json"), "--shard", "two/4",
                "--store", str(tmp_path / "s"),
            ]
        )
        assert code == 2
        assert "K/N" in capsys.readouterr().err

    def test_store_merge_missing_source_fails(self, tmp_path, capsys):
        code = main(
            ["store", "merge", "--store", str(tmp_path / "m"), str(tmp_path / "ghost")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_shard_status_tracks_progress(self, tmp_path, capsys):
        out = tmp_path / "plans"
        main(_plan_args(out))
        main(
            [
                "shard", "run", str(out / "shard_0.json"),
                "--store", str(tmp_path / "shard0"),
            ]
        )
        capsys.readouterr()
        # Shard 1 has not run: non-zero exit, its units are missing.
        code = main(
            [
                "shard", "status", str(out),
                str(tmp_path / "shard0"), str(tmp_path / "shard1"),
            ]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "0/2" in output and "1/2" in output
        assert "pending" in output

        main(
            [
                "shard", "run", str(out / "shard_1.json"),
                "--store", str(tmp_path / "shard1"),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "shard", "status", str(out),
                str(tmp_path / "shard0"), str(tmp_path / "shard1"),
            ]
        )
        assert code == 0
        assert "campaign complete" in capsys.readouterr().out

    def test_shard_status_against_one_merged_store(self, tmp_path, capsys):
        out = tmp_path / "plans"
        main(_plan_args(out))
        for k in (0, 1):
            main(
                [
                    "shard", "run", str(out / f"shard_{k}.json"),
                    "--store", str(tmp_path / f"shard{k}"),
                ]
            )
        main(
            [
                "store", "merge", "--store", str(tmp_path / "merged"),
                str(tmp_path / "shard0"), str(tmp_path / "shard1"),
            ]
        )
        capsys.readouterr()
        code = main(["shard", "status", str(out), str(tmp_path / "merged")])
        assert code == 0
        assert "campaign complete" in capsys.readouterr().out

    def test_shard_status_store_count_mismatch(self, tmp_path, capsys):
        out = tmp_path / "plans"
        main(_plan_args(out))
        capsys.readouterr()
        code = main(
            [
                "shard", "status", str(out),
                str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "c"),
            ]
        )
        assert code == 2
        assert "one store per shard" in capsys.readouterr().err


class TestServiceCommands:
    def test_serve_parser_accepts_service_knobs(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--window-ms", "1.5",
                "--max-batch", "16", "--cache-dir", "cache/",
                "--cache-capacity", "64",
            ]
        )
        assert args.port == 0
        assert args.window_ms == 1.5
        assert args.max_batch == 16
        assert args.cache_dir == "cache/"

    def test_request_round_trips_against_a_live_service(self, capsys):
        with _live_service() as url:
            code = main(
                [
                    "request", "--url", url, "--heuristic", "H4w",
                    "--tasks", "8", "--types", "2", "--machines", "4",
                    "--seed", "5",
                ]
            )
            assert code == 0
            response = json.loads(capsys.readouterr().out)
            reference = direct_response(
                normalize_request(
                    {
                        "heuristic": "H4w",
                        "application": {"tasks": 8, "types": 2},
                        "platform": {"machines": 4},
                        "options": {"seed": 5},
                    }
                )
            )
            assert response["assignment"] == reference["assignment"]
            assert response["period"] == reference["period"]

            # Same request again: served from the cache.
            code = main(
                [
                    "request", "--url", url, "--heuristic", "H4w",
                    "--tasks", "8", "--types", "2", "--machines", "4",
                    "--seed", "5",
                ]
            )
            assert code == 0
            assert json.loads(capsys.readouterr().out)["cached"] == "memory"

    def test_request_reports_unreachable_service(self, capsys):
        code = main(["request", "--url", "http://127.0.0.1:1", "--tasks", "4"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


@contextlib.contextmanager
def _live_service():
    """A SolveService on a background event loop (for client-side tests)."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    service = SolveService(port=0, window=0.001)
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=10)
    try:
        yield service.url
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
