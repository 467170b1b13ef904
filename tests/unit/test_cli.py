"""Unit tests for the command-line interface."""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading

import pytest

from repro.campaign import CAMPAIGN_FILE
from repro.cli import STORE_ENV_VAR, build_parser, main
from repro.experiments import ResultStore
from repro.generators.platforms import HIGH_FAILURE_F_RANGE
from repro.heuristics import PAPER_HEURISTICS
from repro.service.requests import direct_response, normalize_request
from repro.service.server import SolveService


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
    "shard plan": ["shard", "plan", "fig6", "--shards", "2", "--out", "plans"],
    "dag plan": ["dag", "plan", "fig6"],
    "dag run": ["dag", "run", "fig6"],
}
_MANIFEST_FIELDS = ("repetitions", "max_points", "no_milp", "milp_time_limit", "optional_curves")


class TestManifestArguments:
    """``run``, ``shard plan`` and ``dag plan/run`` share one block of
    manifest flags: same names, defaults and dests everywhere."""

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
        # Only the commands that compute take the speed-only run knob.
        if command in ("run", "dag run"):
            assert vars(parser.parse_args(argv + ["--workers", "2"]))["workers"] == 2
            assert defaults["workers"] is None
        else:
            assert "workers" not in defaults
        # Nothing caches sampled instances, so there is no flag for it.
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv + ["--memoize-instances"])
        assert exit_info.value.code == 2


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

    @pytest.mark.parametrize("high_failures", [False, True])
    def test_solve_periods_equal_the_request_reference(self, capsys, high_failures):
        # `solve` draws the instance (and H1's stream) of `request` with
        # the same flags: each printed period is direct_response's.
        flags = ["--tasks", "9", "--types", "3", "--machines", "5", "--seed", "4"]
        flags += ["--high-failures"] if high_failures else []
        assert main(["solve", *flags]) == 0
        table = capsys.readouterr().out.splitlines()[2:]
        printed = {line.split()[0]: line.split()[1] for line in table}
        platform = {"machines": 5}
        if high_failures:
            platform["f_range"] = list(HIGH_FAILURE_F_RANGE)
        assert sorted(printed) == sorted(PAPER_HEURISTICS)
        for name in PAPER_HEURISTICS:
            request = normalize_request(
                {
                    "heuristic": name,
                    "application": {"tasks": 9, "types": 3},
                    "platform": platform,
                    "options": {"seed": 4},
                }
            )
            assert printed[name] == f"{direct_response(request)['period']:.1f}"

    def test_solve_rejects_bad_dimensions_with_a_message(self, capsys):
        assert main(["solve", "--tasks", "2", "--types", "3"]) == 2
        assert "more types (3) than tasks (2)" in capsys.readouterr().err


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

    def test_run_has_no_store_or_resume_flag(self, capsys):
        # `run` is the in-memory run only; campaigns go through `dag run`.
        for flag in (["--store", "s"], ["--resume"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "fig6", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_ignores_the_store_env_var(self, tmp_path, capsys, monkeypatch):
        store_dir = tmp_path / "env-store"
        store_dir.mkdir()
        monkeypatch.setenv(STORE_ENV_VAR, str(store_dir))
        code = main(
            ["run", "fig6", "--repetitions", "1", "--max-points", "1", "--no-milp"]
        )
        assert code == 0
        assert "== fig6 ==" in capsys.readouterr().out
        assert list(store_dir.iterdir()) == []

    def test_removed_campaign_commands_are_gone(self, capsys):
        for command in ("campaign", "resume"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "fig6"])
        assert "invalid choice: 'resume'" in capsys.readouterr().err


def _campaign_args(store) -> list[str]:
    return [
        "dag", "run", "fig6", "fig10", "--store", str(store),
        "--repetitions", "1", "--max-points", "2", "--no-milp", "--seeds", "0",
    ]


class TestCampaignCommands:
    def test_campaign_runs_figures_into_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(_campaign_args(store_dir)) == 0
        output = capsys.readouterr().out
        assert "fig6 seed=0" in output and "fig10 seed=0" in output
        assert "; 20 block solve(s)" in output
        assert (store_dir / CAMPAIGN_FILE).exists()
        store = ResultStore(store_dir)
        assert store.load_result("fig6").figure_id == "fig6"
        assert store.load_result("fig10").figure_id == "fig10"

    def test_resume_completes_without_recomputation(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        manifest = (store_dir / CAMPAIGN_FILE).read_bytes()
        records = (store_dir / "results.jsonl").read_bytes()
        assert main(["dag", "run", "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "fig6 seed=0" in output and "fig10 seed=0" in output
        assert "; 0 block solve(s)" in output
        assert (store_dir / CAMPAIGN_FILE).read_bytes() == manifest
        assert (store_dir / "results.jsonl").read_bytes() == records

    def test_resume_finishes_an_interrupted_campaign(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        full = ResultStore(store_dir).load_result("fig10").to_csv()
        # Keep the manifest and the fig6 run; lose every fig10 record.
        results = store_dir / "results.jsonl"
        kept = [
            line for line in results.read_text(encoding="utf-8").splitlines(True)
            if '"fig10"' not in line
        ]
        results.write_text("".join(kept), encoding="utf-8")
        assert main(["dag", "run", "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "fig6 seed=0: 0 block(s) computed, 8 stored" in output
        assert "fig10 seed=0: 12 block(s) computed, 0 stored" in output
        assert ResultStore(store_dir).load_result("fig10").to_csv() == full

    def test_resume_without_manifest_rejected(self, tmp_path, capsys):
        store_dir = tmp_path / "empty-store"
        store_dir.mkdir()
        assert main(["dag", "run", "--store", str(store_dir)]) == 2
        assert "dag run FIGS" in capsys.readouterr().err
        assert not (store_dir / CAMPAIGN_FILE).exists()
        # A mistyped store path is not created on the way to the error.
        absent = tmp_path / "absent-store"
        assert main(["dag", "run", "--store", str(absent)]) == 2
        assert not absent.exists()

    def test_status_without_manifest_rejected(self, tmp_path, capsys):
        # `dag status` plans from the campaign `dag run` recorded; a store
        # holding cells but no campaign.json has nothing to check against.
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        (store_dir / CAMPAIGN_FILE).unlink()
        capsys.readouterr()
        assert main(["dag", "status", "--store", str(store_dir)]) == 2
        assert f"no {CAMPAIGN_FILE} in {store_dir}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [
            ["--repetitions", "2"],
            ["--seeds", "0..1"],
            ["--max-points", "1"],
            ["--no-milp"],
            ["--milp-time-limit", "5"],
            ["--optional-curves"],
        ],
    )
    def test_resume_rejects_manifest_options(self, tmp_path, capsys, option):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        manifest = (store_dir / CAMPAIGN_FILE).read_bytes()
        assert main(["dag", "run", "--store", str(store_dir), *option]) == 2
        assert option[0] in capsys.readouterr().err
        assert (store_dir / CAMPAIGN_FILE).read_bytes() == manifest

    def test_resume_rejects_an_option_restated_at_its_default(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        args = _campaign_args(store_dir)
        args[args.index("--seeds") + 1] = "0..1"
        main(args)
        capsys.readouterr()
        manifest = (store_dir / CAMPAIGN_FILE).read_bytes()
        # `--seeds 0` is the parser default, but it is named: a new campaign.
        code = main(["dag", "run", "--store", str(store_dir), "--workers", "2", "--seeds", "0"])
        assert code == 2
        assert "--seeds describe a new campaign" in capsys.readouterr().err
        assert (store_dir / CAMPAIGN_FILE).read_bytes() == manifest

    def test_naming_more_figures_extends_the_stored_campaign(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        options = ["--repetitions", "1", "--max-points", "2", "--no-milp", "--seeds", "0"]
        assert main(["dag", "run", "fig6", "--store", str(store_dir), *options]) == 0
        assert main(
            ["dag", "run", "fig10", "--store", str(store_dir), *options, "--workers", "2"]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((store_dir / CAMPAIGN_FILE).read_text())
        assert manifest["figures"] == ["fig6", "fig10"]
        assert main(["dag", "status", "--store", str(store_dir)]) == 0
        # Both figures' units: fig6's 8 and fig10's 12, all stored.
        assert "20/20 unit(s) stored at full depth; campaign complete" in (
            capsys.readouterr().out
        )
        assert main(["dag", "run", "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "fig6 seed=0" in output and "fig10 seed=0" in output
        assert "; 0 block solve(s)" in output

    def test_another_campaign_leaves_the_stored_manifest(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        manifest = (store_dir / CAMPAIGN_FILE).read_bytes()
        code = main(
            [
                "dag", "run", "fig6", "--store", str(store_dir),
                "--repetitions", "2", "--max-points", "2", "--no-milp", "--seeds", "0..1",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "--seeds (stored (0,), given (0, 1))" in err
        assert "--repetitions (stored 1, given 2)" in err
        assert "--max-points" not in err and "--no-milp" not in err
        # The stored campaign is still the one recorded, and still complete.
        assert (store_dir / CAMPAIGN_FILE).read_bytes() == manifest
        assert main(["dag", "run", "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "fig6 seed=0" in output and "fig10 seed=0" in output
        assert "fig6 seed=1" not in output
        assert "; 0 block solve(s)" in output

    def test_a_parallel_run_extends_the_campaign_without_recording_workers(
        self, tmp_path, capsys
    ):
        # The pool size is an argument of each run, not a manifest field:
        # a `--workers 2` run of another figure with the same options
        # extends the stored campaign, and campaign.json never names it.
        store_dir = tmp_path / "store"
        options = ["--repetitions", "1", "--max-points", "2", "--no-milp", "--seeds", "0"]
        assert main(["dag", "run", "fig6", "--store", str(store_dir), *options]) == 0
        assert main(
            ["dag", "run", "fig8", "--store", str(store_dir), *options, "--workers", "2"]
        ) == 0
        assert "keeps its campaign" not in capsys.readouterr().err
        manifest = json.loads((store_dir / CAMPAIGN_FILE).read_text())
        assert manifest["figures"] == ["fig6", "fig8"]
        assert "workers" not in manifest and "memoize_instances" not in manifest
        assert main(["dag", "run", "--store", str(store_dir), "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "fig6 seed=0" in output and "fig8 seed=0" in output
        assert "; 0 block solve(s)" in output

    def test_resume_workers_override_keeps_the_manifest(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        manifest = (store_dir / CAMPAIGN_FILE).read_bytes()
        code = main(["dag", "run", "--store", str(store_dir), "--workers", "2"])
        assert code == 0
        assert "; 0 block solve(s)" in capsys.readouterr().out
        assert (store_dir / CAMPAIGN_FILE).read_bytes() == manifest

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
                    "dag", "run", "fig6", "--repetitions", "1", "--max-points", "2",
                    "--no-milp", "--seeds", "0",
                ]
            )
            == 0
        )
        assert (store_dir / CAMPAIGN_FILE).exists()
        assert main(["dag", "run"]) == 0
        assert "; 0 block solve(s)" in capsys.readouterr().out

    def test_campaign_manifest_records_settings(self, tmp_path):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        manifest = json.loads((store_dir / CAMPAIGN_FILE).read_text())
        assert manifest["figures"] == ["fig6", "fig10"]
        assert manifest["repetitions"] == 1
        assert manifest["no_milp"] is True
        assert manifest["seeds"] == [0]

    def test_multi_seed_campaign_stores_every_seed(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            [
                "dag", "run", "fig6", "--store", str(store_dir), "--seeds", "3..4",
                "--repetitions", "1", "--max-points", "2", "--no-milp",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fig6 seed=3" in output and "fig6 seed=4" in output
        store = ResultStore(store_dir)
        assert store.load_result("fig6", seed=3).seed == 3
        assert store.load_result("fig6", seed=4).seed == 4

    def test_resume_rejects_a_scalar_seed_manifest(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(_campaign_args(store_dir))
        capsys.readouterr()
        manifest = json.loads((store_dir / CAMPAIGN_FILE).read_text())
        manifest["seed"] = manifest.pop("seeds")[0]
        (store_dir / CAMPAIGN_FILE).write_text(json.dumps(manifest))
        assert main(["dag", "run", "--store", str(store_dir)]) == 2
        assert "unknown campaign manifest fields ['seed']" in capsys.readouterr().err

    def test_export_aggregate_seeds_csv(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(
            [
                "dag", "run", "fig6", "--store", str(store_dir), "--seeds", "0,1",
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
                "dag", "run", "fig6", "--store", str(store_dir), "--seeds", "0,1",
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
                "dag", "run", "fig6", "--store", str(store_dir), "--seeds", "0,1",
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


    def test_export_of_a_missing_store_fails_and_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        assert main(["export", "--store", str(missing)]) == 2
        assert "store not found" in capsys.readouterr().err
        assert not missing.exists()


class TestStartup:
    def test_importing_the_cli_loads_no_campaign_module(self):
        """Only the campaign commands import ``repro.campaign``."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "import repro.cli\n"
            "repro.cli.build_parser()\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.campaign')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_plan_axis_choices_are_the_campaign_axes(self, capsys):
        from repro.campaign import PLAN_AXES

        parser = build_parser()
        plan = ["shard", "plan", "fig6", "--shards", "1", "--out", "plans", "--by"]
        for axis in PLAN_AXES:
            assert parser.parse_args([*plan, axis]).by == axis
        with pytest.raises(SystemExit):
            parser.parse_args([*plan, "machine"])
        assert "invalid choice" in capsys.readouterr().err


def _plan_args(out_dir, extra=()) -> list[str]:
    return [
        "shard", "plan", "fig6", "--seeds", "0..1", "--shards", "2", "--by", "block",
        "--out", str(out_dir), "--repetitions", "1", "--max-points", "2", "--no-milp",
        *extra,
    ]


class TestShardCommands:
    def test_plan_writes_only_shard_files(self, tmp_path, capsys):
        out = tmp_path / "plans"
        assert main(_plan_args(out)) == 0
        output = capsys.readouterr().out
        assert "2 shard(s)" in output
        assert sorted(path.name for path in out.iterdir()) == [
            "shard_0.json",
            "shard_1.json",
        ]

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
                "dag", "run", "fig6", "--store", str(single), "--seeds", "0..1",
                "--repetitions", "1", "--max-points", "2", "--no-milp",
            ]
        )
        capsys.readouterr()
        main(["export", "--store", str(tmp_path / "merged"), "fig6", "--seed", "0", "--csv"])
        merged_csv = capsys.readouterr().out
        main(["export", "--store", str(single), "fig6", "--seed", "0", "--csv"])
        assert merged_csv == capsys.readouterr().out

    def test_shard_run_takes_only_a_shard_file(self, tmp_path, capsys):
        # A campaign manifest (here the one `dag run` records in its
        # store) is no shard: `shard run` never re-plans.
        store_dir = tmp_path / "store"
        main(
            [
                "dag", "run", "fig6", "--store", str(store_dir),
                "--repetitions", "1", "--max-points", "1", "--no-milp",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "shard", "run", str(store_dir / CAMPAIGN_FILE),
                "--store", str(tmp_path / "s"),
            ]
        )
        assert code == 2
        assert "not a shard plan" in capsys.readouterr().err
        out = tmp_path / "plans"
        main(_plan_args(out))
        for option in (["--shard", "1/2"], ["--by", "block"]):
            with pytest.raises(SystemExit):
                main(
                    [
                        "shard", "run", str(out / "shard_1.json"), *option,
                        "--store", str(tmp_path / "s"),
                    ]
                )

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
                "serve", "--port", "0",
                "--max-batch", "16", "--cache-dir", "cache/",
                "--cache-capacity", "64",
            ]
        )
        assert args.port == 0
        assert args.max_batch == 16
        assert args.cache_dir == "cache/"

    def test_serve_has_no_batching_window(self):
        # Groups flush by load (a free solve slot), so there is no time knob.
        args = build_parser().parse_args(["serve"])
        assert not any("window" in name for name in vars(args))

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
    service = SolveService(port=0)
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=10)
    try:
        yield service.url
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
