"""Command-line interface.

Examples
--------
List the reproducible figures::

    microrepro list

Reproduce Figure 10 with a reduced sweep (3 repetitions per point)::

    microrepro run fig10 --repetitions 3 --seed 42

Run a persistent, resumable campaign over several figures and seeds::

    microrepro campaign fig5 fig6 --store results/ --repetitions 10
    microrepro campaign fig5 --seeds 0..9 --store results/   # 10-seed sweep
    microrepro resume --store results/          # picks up where it stopped
    microrepro export --store results/          # list what the store holds
    microrepro export --store results/ fig5 --seed 3 --csv

Distribute a campaign over several hosts (see ``repro.campaign``): plan
disjoint shards, ship one plan per host, run each shard into a local
store, merge the shard stores back, and export the pooled curves::

    microrepro shard plan fig5 --seeds 0..9 --shards 4 --out plans/
    scp plans/shard_2.json host2:            # one plan file per host
    microrepro shard run plans/shard_2.json --store shard_2/   # on host2
    microrepro shard run plans/campaign.json --shard 3/4 --store shard_3/
    microrepro store merge --store merged/ shard_0/ shard_1/ shard_2/ shard_3/
    microrepro export --store merged/ fig5 --aggregate seeds --csv

The merged store's cells and exports are bit-for-bit a single host's;
``export --aggregate seeds`` pools every seed's repetitions into one
mean/CI per sweep point (``--ci between`` reports between-seed CIs over
seed-level means instead), and ``microrepro shard status plans/ shard_0/
shard_1/`` summarises how complete each shard's store is against its
plan.

Serve solves over HTTP (micro-batched + cached, see ``repro.service``)
and fire one request at a running service::

    microrepro serve --port 8000 --cache-dir solve-cache/
    microrepro request --url http://127.0.0.1:8000 --heuristic H4w \
        --tasks 10 --types 3 --machines 5 --seed 7

Record request/solve spans while serving (``GET /v1/metrics`` exposes
the Prometheus counters either way) and summarize where the time went::

    microrepro serve --port 8000 --trace traces/
    microrepro trace summarize traces/ --tree

Replay a seeded failure/recovery timeline through the live replanner —
in process or against a running service's ``/v1/session`` API — and
verify warm-started replans against the cold re-solve reference::

    microrepro live --machines 8 --duration 200 --verify
    microrepro live --url http://127.0.0.1:8000 --verify --json

Solve one random instance with every heuristic and the exact MIP::

    microrepro solve --tasks 10 --types 3 --machines 5 --seed 7 --milp

The same entry point is available as ``python -m repro``.  When
``--store`` is omitted the ``REPRO_STORE`` environment variable supplies
the store directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis.tables import catalog_table
from .campaign import (
    PLAN_AXES,
    PLAN_BALANCES,
    CampaignManifest,
    expand_units,
    group_by_run,
    load_plan,
    load_shard_plans,
    merge_stores,
    parse_seed_spec,
    plan,
    run_shard,
    shard_status,
    status_payload,
    status_rows,
    write_plans,
)
from .core.failure import FailureModel
from .core.instance import ProblemInstance
from .core.platform import Platform
from .exact.milp import solve_specialized_milp
from .exceptions import ExperimentError, ReproError
from .experiments.figures import FIGURES, figure_ids
from .experiments.reporting import (
    CI_MODES,
    aggregate_report,
    aggregate_seeds,
    campaign_report,
    figure_report,
    summary_line,
)
from .experiments.runner import run_figure
from .experiments.store import ResultStore
from .generators.applications import random_chain_application
from .generators.platforms import random_failure_rates, random_processing_times
from .heuristics import PAPER_HEURISTICS, get_heuristic
from .live import LiveConfig, compare_reports, run_timeline, run_timeline_remote
from .obs.summary import format_table, format_tree, load_spans, summarize_spans
from .obs.trace import TRACE_ENV_VAR
from .obs.trace import configure as configure_tracing
from .service.batcher import DEFAULT_MAX_BATCH, DEFAULT_WINDOW_SECONDS
from .service.client import ServiceClient
from .service.server import serve as serve_service
from .service.sessions import DEFAULT_MAX_SESSIONS, DEFAULT_SESSION_TTL

__all__ = ["main", "build_parser"]

#: Environment variable consulted when ``--store`` is not given.
STORE_ENV_VAR = "REPRO_STORE"
#: Name of the campaign manifest file inside a store directory.
CAMPAIGN_MANIFEST = "campaign.json"


def _add_store_argument(parser: argparse.ArgumentParser, *, required_hint: bool) -> None:
    suffix = "" if not required_hint else " (required unless $REPRO_STORE is set)"
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=f"result-store directory; defaults to ${STORE_ENV_VAR}{suffix}",
    )


def _add_figure_axes(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figures", nargs="+", choices=figure_ids(), help="figures to run")
    parser.add_argument(
        "--seeds", default="0", metavar="SPEC", help="seed axis, e.g. '0..9' or '0,5,9'"
    )


def _add_manifest_arguments(parser: argparse.ArgumentParser, *, run_knobs: bool) -> None:
    """The campaign-manifest knobs of ``run``, ``campaign``, ``shard plan`` and ``dag``.

    ``run_knobs`` adds ``--workers`` and ``--memoize-instances``, which
    change how fast a run computes, never what it computes.
    """
    parser.add_argument(
        "--repetitions", type=int, default=None, help="repetitions per sweep point"
    )
    parser.add_argument(
        "--max-points", type=int, default=None, help="maximum number of sweep points"
    )
    parser.add_argument(
        "--no-milp", action="store_true", help="skip the exact MIP even where a figure uses it"
    )
    parser.add_argument(
        "--milp-time-limit", type=float, default=30.0, help="per-instance MIP time limit (s)"
    )
    parser.add_argument(
        "--optional-curves",
        action="store_true",
        help="also run each figure's optional curves (e.g. H4ls on fig6)",
    )
    if run_knobs:
        parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help=(
                "run repetition blocks on a process pool of this size (heuristic/OtO "
                "curves match the serial run exactly; MIP cells may time out "
                "under CPU oversubscription)"
            ),
        )
        parser.add_argument(
            "--memoize-instances",
            action="store_true",
            help=(
                "cache sampled instances per process (pays off with --workers, "
                "where curve jobs share each sweep point's instances)"
            ),
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="microrepro",
        description=(
            "Throughput optimization for micro-factories subject to task and machine "
            "failures — reproduction toolkit."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list reproducible figures")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="reproduce one figure of the paper")
    run_parser.add_argument("figure", choices=figure_ids(), help="figure identifier")
    run_parser.add_argument("--seed", type=int, default=0, help="root random seed")
    _add_manifest_arguments(run_parser, run_knobs=True)
    run_parser.add_argument("--csv", action="store_true", help="print CSV instead of a table")
    _add_store_argument(run_parser, required_hint=False)
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="with --store: skip blocks whose results are already stored",
    )
    run_parser.set_defaults(func=_cmd_run)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run several figures into a persistent result store (resumable)",
    )
    campaign_parser.add_argument(
        "figures", nargs="+", choices=figure_ids(), help="figures to run, in order"
    )
    _add_store_argument(campaign_parser, required_hint=True)
    campaign_parser.add_argument("--seed", type=int, default=None, help="root random seed")
    campaign_parser.add_argument(
        "--seeds",
        default=None,
        metavar="SPEC",
        help=(
            "run every figure once per seed: an inclusive range '0..9', a "
            "comma list '0,5,9', or a mix; replaces --seed"
        ),
    )
    _add_manifest_arguments(campaign_parser, run_knobs=True)
    campaign_parser.set_defaults(func=_cmd_campaign)

    resume_parser = subparsers.add_parser(
        "resume",
        help="finish an interrupted campaign without recomputing stored blocks",
    )
    _add_store_argument(resume_parser, required_hint=True)
    resume_parser.add_argument(
        "--workers", type=int, default=None, help="override the manifest's worker count"
    )
    resume_parser.set_defaults(func=_cmd_resume)

    export_parser = subparsers.add_parser(
        "export", help="list a result store or print its stored figures"
    )
    export_parser.add_argument(
        "figures",
        nargs="*",
        help="figures to print (default: list the store's catalogue)",
    )
    _add_store_argument(export_parser, required_hint=True)
    export_parser.add_argument(
        "--seed", type=int, default=None, help="disambiguate runs by seed"
    )
    export_parser.add_argument(
        "--scenario-hash",
        default=None,
        metavar="HASH",
        help=(
            "disambiguate runs stored at several scales (hashes are listed "
            "in the store catalogue)"
        ),
    )
    export_parser.add_argument(
        "--csv", action="store_true", help="print CSV instead of tables"
    )
    export_parser.add_argument(
        "--aggregate",
        choices=("seeds",),
        default=None,
        help=(
            "pool every stored seed of each figure into one cross-seed "
            "mean/CI per sweep point"
        ),
    )
    export_parser.add_argument(
        "--ci",
        choices=CI_MODES,
        default="pooled",
        help=(
            "with --aggregate seeds: 'pooled' treats all R x S samples as "
            "one draw; 'between' reports Student CIs over the S seed-level "
            "means (df = S - 1)"
        ),
    )
    export_parser.set_defaults(func=_cmd_export)

    shard_parser = subparsers.add_parser(
        "shard",
        help="plan and execute distributed campaign shards (see 'store merge')",
    )
    shard_sub = shard_parser.add_subparsers(dest="shard_command", required=True)

    plan_parser = shard_sub.add_parser(
        "plan", help="split a campaign into disjoint per-host work-unit manifests"
    )
    _add_figure_axes(plan_parser)
    plan_parser.add_argument(
        "--shards", type=int, required=True, help="number of worker shards"
    )
    plan_parser.add_argument(
        "--by",
        choices=PLAN_AXES,
        default="seed",
        help="partition axis: whole seeds, (figure, seed, curve) groups, or blocks",
    )
    plan_parser.add_argument(
        "--balance",
        choices=PLAN_BALANCES,
        default="round_robin",
        help=(
            "shard balancing: 'round_robin' levels unit counts, 'cost' levels "
            "estimated durations (MIP blocks ~100x heuristic blocks, see "
            "repro.dag.cost)"
        ),
    )
    plan_parser.add_argument(
        "--out", required=True, metavar="DIR", help="directory for the plan files"
    )
    _add_manifest_arguments(plan_parser, run_knobs=False)
    plan_parser.set_defaults(func=_cmd_shard_plan)

    shard_run_parser = shard_sub.add_parser(
        "run", help="execute one shard's units into a local result store"
    )
    shard_run_parser.add_argument(
        "plan",
        metavar="PLAN",
        help="a shard_k.json from 'shard plan', or the campaign.json with --shard",
    )
    shard_run_parser.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="which shard to run when PLAN is a campaign manifest (e.g. 2/4)",
    )
    shard_run_parser.add_argument(
        "--by",
        choices=PLAN_AXES,
        default=None,
        help="partition axis override when re-planning from a campaign manifest",
    )
    shard_run_parser.add_argument(
        "--balance",
        choices=PLAN_BALANCES,
        default=None,
        help="balancing override when re-planning from a campaign manifest",
    )
    _add_store_argument(shard_run_parser, required_hint=True)
    shard_run_parser.add_argument(
        "--workers", type=int, default=None, help="block process-pool size on this host"
    )
    shard_run_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute blocks even when the shard store already holds them",
    )
    shard_run_parser.set_defaults(func=_cmd_shard_run)

    status_parser = shard_sub.add_parser(
        "status",
        help="summarise per-shard store completeness against the plan",
    )
    status_parser.add_argument(
        "plan",
        metavar="PLAN",
        help="planner output: the plans/ directory, campaign.json, or one shard_k.json",
    )
    status_parser.add_argument(
        "stores",
        nargs="+",
        metavar="STORE_DIR",
        help=(
            "one store per shard (in shard order), or a single merged store "
            "checked against every shard"
        ),
    )
    status_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable output: per-shard done/partial/missing rows plus "
            "campaign totals (same document 'dag status --json' prints)"
        ),
    )
    status_parser.set_defaults(func=_cmd_shard_status)

    store_parser = subparsers.add_parser(
        "store", help="result-store utilities (merge shard stores)"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    merge_parser = store_sub.add_parser(
        "merge",
        help=(
            "union shard stores into one (conflict-checked, idempotent); "
            "the destination then serves resume/export like any store"
        ),
    )
    merge_parser.add_argument(
        "sources", nargs="+", metavar="SHARD_DIR", help="shard store directories"
    )
    _add_store_argument(merge_parser, required_hint=True)
    merge_parser.set_defaults(func=_cmd_store_merge)

    dag_parser = subparsers.add_parser(
        "dag",
        help=(
            "campaign pipeline: plan/run/status of a campaign whose stored "
            "cells are its cache and whose exports are derived from them"
        ),
    )
    dag_sub = dag_parser.add_subparsers(dest="dag_command", required=True)

    dag_plan_parser = dag_sub.add_parser(
        "plan",
        help="report the campaign's units, runs, estimated cost and store status",
    )
    _add_figure_axes(dag_plan_parser)
    _add_manifest_arguments(dag_plan_parser, run_knobs=False)
    dag_plan_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="also show the shard partition for N worker hosts",
    )
    dag_plan_parser.add_argument(
        "--by",
        choices=PLAN_AXES,
        default="seed",
        help="partition axis for --shards",
    )
    dag_plan_parser.add_argument(
        "--balance",
        choices=PLAN_BALANCES,
        default="cost",
        help="shard balancing policy for --shards (default: cost)",
    )
    _add_store_argument(dag_plan_parser, required_hint=False)
    dag_plan_parser.set_defaults(func=_cmd_dag_plan)

    dag_run_parser = dag_sub.add_parser(
        "run",
        help=(
            "execute the campaign against a store; stored cells are skipped, "
            "so re-running an unchanged campaign performs zero solves"
        ),
    )
    _add_figure_axes(dag_run_parser)
    _add_manifest_arguments(dag_run_parser, run_knobs=True)
    _add_store_argument(dag_run_parser, required_hint=True)
    dag_run_parser.add_argument(
        "--no-resume",
        action="store_true",
        help=(
            "recompute every solve even when its cell is stored (the new "
            "cells replace the old ones)"
        ),
    )
    dag_run_parser.add_argument(
        "--export-dir",
        default=None,
        metavar="DIR",
        help=(
            "also write each figure's per-seed CSVs and the cross-seed "
            "aggregate CSV into DIR"
        ),
    )
    dag_run_parser.set_defaults(func=_cmd_dag_run)

    dag_status_parser = dag_sub.add_parser(
        "status",
        help="unit completeness of the store's campaign (from its campaign.json)",
    )
    _add_store_argument(dag_status_parser, required_hint=True)
    dag_status_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable output: the same per-shard/totals document "
            "'shard status --json' prints"
        ),
    )
    dag_status_parser.set_defaults(func=_cmd_dag_status)

    solve_parser = subparsers.add_parser(
        "solve", help="solve one random instance with every heuristic"
    )
    solve_parser.add_argument("--tasks", type=int, default=10, help="number of tasks n")
    solve_parser.add_argument("--types", type=int, default=3, help="number of task types p")
    solve_parser.add_argument("--machines", type=int, default=5, help="number of machines m")
    solve_parser.add_argument("--seed", type=int, default=0, help="random seed")
    solve_parser.add_argument(
        "--high-failures", action="store_true", help="draw failure rates in [0, 10%%]"
    )
    solve_parser.add_argument(
        "--milp", action="store_true", help="also solve the exact MIP for comparison"
    )
    solve_parser.set_defaults(func=_cmd_solve)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the micro-batched solve service (HTTP JSON, see repro.service)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8000, help="bind port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--window-ms",
        type=float,
        default=DEFAULT_WINDOW_SECONDS * 1000.0,
        help="micro-batching window: how long the first request of a group "
        "waits for compatible company (milliseconds)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=DEFAULT_MAX_BATCH,
        help="flush a group immediately once it reaches this many requests",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist solved responses here (restart-warm cache); omit for "
        "an in-memory-only cache",
    )
    serve_parser.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        help="in-memory LRU size (0 disables the memory tier)",
    )
    serve_parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound the persistent cache's append log; exceeding it "
        "compacts the log and evicts the oldest entries (needs "
        "--cache-dir; omit for unbounded)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="solve in a pool of this many worker processes "
        "(0 = in-process executor threads)",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=0,
        help="admission limit: shed new distinct requests with HTTP 429 "
        "once this many solves are pending (0 = unlimited)",
    )
    serve_parser.add_argument(
        "--session-ttl",
        type=float,
        default=DEFAULT_SESSION_TTL,
        help="idle expiry of live replanning sessions (seconds)",
    )
    serve_parser.add_argument(
        "--max-sessions",
        type=int,
        default=DEFAULT_MAX_SESSIONS,
        help="bound on concurrently open sessions (new ones shed with 429)",
    )
    serve_parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record request/solve spans into this trace store directory "
        f"(defaults to ${TRACE_ENV_VAR}; omit both to disable tracing); "
        "inspect with 'microrepro trace summarize DIR'",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect recorded trace spans (see 'serve --trace')",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize_parser = trace_sub.add_parser(
        "summarize",
        help="aggregate a trace store into a per-span hot-path table",
    )
    trace_summarize_parser.add_argument(
        "path",
        metavar="PATH",
        help="trace store directory (or a bare trace.jsonl file)",
    )
    trace_summarize_parser.add_argument(
        "--tree",
        action="store_true",
        help="also print the span tree of one trace (newest by default)",
    )
    trace_summarize_parser.add_argument(
        "--trace-id",
        default=None,
        metavar="ID",
        help="which trace the --tree view shows (default: the newest)",
    )
    trace_summarize_parser.add_argument(
        "--json", action="store_true", help="print the aggregates as JSON"
    )
    trace_summarize_parser.set_defaults(func=_cmd_trace_summarize)

    request_parser = subparsers.add_parser(
        "request",
        help="send one solve request to a running service and print the response",
    )
    request_parser.add_argument(
        "--url", default="http://127.0.0.1:8000", help="service base URL"
    )
    request_parser.add_argument(
        "--heuristic", default="H4w", help="registered heuristic to run"
    )
    request_parser.add_argument("--tasks", type=int, default=10, help="number of tasks n")
    request_parser.add_argument("--types", type=int, default=3, help="number of task types p")
    request_parser.add_argument("--machines", type=int, default=5, help="number of machines m")
    request_parser.add_argument("--seed", type=int, default=0, help="instance draw seed")
    request_parser.add_argument(
        "--repetition", type=int, default=0, help="repetition index of the draw"
    )
    request_parser.set_defaults(func=_cmd_request)

    live_parser = subparsers.add_parser(
        "live",
        help=(
            "run a seeded fail/recover timeline through the live replanner "
            "(in process, or against a running service's session API)"
        ),
    )
    live_parser.add_argument("--tasks", type=int, default=12, help="number of tasks n")
    live_parser.add_argument("--types", type=int, default=3, help="number of task types p")
    live_parser.add_argument("--machines", type=int, default=6, help="number of machines m")
    live_parser.add_argument(
        "--heuristic",
        default="H4ls",
        help="deterministic heuristic for the initial solve and cold replans",
    )
    live_parser.add_argument("--seed", type=int, default=0, help="instance draw seed")
    live_parser.add_argument(
        "--repetition", type=int, default=0, help="repetition index of the draw"
    )
    live_parser.add_argument(
        "--duration", type=float, default=100.0, help="timeline horizon (seconds)"
    )
    live_parser.add_argument(
        "--mtbf", type=float, default=60.0, help="mean time between failures per machine"
    )
    live_parser.add_argument(
        "--mttr", type=float, default=15.0, help="mean time to recovery per machine"
    )
    live_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=0.1,
        help="Poisson rate of solve-request probe events (per second)",
    )
    live_parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="run the timeline against a running service's /v1/session API "
        "instead of in process",
    )
    live_parser.add_argument(
        "--cold",
        action="store_true",
        help="replan without warm starts (the cold re-solve reference)",
    )
    live_parser.add_argument(
        "--verify",
        action="store_true",
        help="also run the other mode(s) and require bit-for-bit agreement "
        "(warm == cold re-solve; with --url, remote == local too)",
    )
    live_parser.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    live_parser.set_defaults(func=_cmd_live)

    return parser


def _store_path(args: argparse.Namespace, *, required: bool) -> str | None:
    path = args.store or os.environ.get(STORE_ENV_VAR)
    if path is None and required:
        raise ExperimentError(
            f"this command needs a store: pass --store DIR or set ${STORE_ENV_VAR}"
        )
    return path


def _cmd_list(args: argparse.Namespace) -> int:
    for figure_id in figure_ids():
        spec = FIGURES[figure_id]
        suffix = " (normalised by the MIP)" if spec.normalize_to else ""
        if spec.optional_curves:
            suffix += f" [optional: {', '.join(spec.optional_curves)}]"
        print(f"{figure_id:7s} {spec.scenario.description}{suffix}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    store_path = _store_path(args, required=args.resume)
    if store_path is None:
        result = run_figure(
            args.figure,
            seed=args.seed,
            repetitions=args.repetitions,
            max_points=args.max_points,
            include_milp=False if args.no_milp else None,
            milp_time_limit=args.milp_time_limit,
            workers=args.workers,
            memoize_instances=args.memoize_instances,
            include_optional=args.optional_curves,
        )
    else:
        # A one-figure, one-seed campaign without the campaign.json: the
        # store gets what `campaign` would write, and --resume skips it.
        manifest = _manifest(args, figures=(args.figure,), seeds=(args.seed,))
        with ResultStore(store_path) as store:
            (result,) = _run_campaign(manifest, store, resume=args.resume, announce=False)
    if args.csv:
        print(result.to_csv(), end="")
    else:
        print(figure_report(result))
    return 0


def _run_campaign(
    manifest: CampaignManifest,
    store: ResultStore,
    *,
    resume: bool = True,
    announce: bool = True,
) -> list:
    """Run (or finish) every (figure, seed) run of a campaign manifest.

    A thin wrapper over :func:`repro.dag.scheduler.execute_solves`: each
    run's work units execute (or, with ``resume``, are served from their
    stored cells) in manifest order and the store receives their cells
    and run headers.  With ``announce`` a summary line prints as each
    run completes.
    """
    from .dag import execute_solves

    results = []
    for (figure_id, seed), units in group_by_run(expand_units(manifest)).items():
        execute_solves(manifest, units, store, workers=manifest.workers, resume=resume)
        result = store.load_result(
            figure_id,
            scenario_hash=manifest.scenario_for(figure_id).stable_hash(),
            seed=seed,
        )
        if announce:
            print(summary_line(result), flush=True)
        results.append(result)
    store.flush()
    return results


def _campaign_seeds(args: argparse.Namespace) -> tuple[int, ...]:
    """The seed axis from ``--seeds SPEC`` / the legacy ``--seed N``."""
    if args.seeds is not None and args.seed is not None:
        raise ExperimentError("pass either --seed or --seeds, not both")
    if args.seeds is not None:
        return parse_seed_spec(args.seeds)
    return (args.seed if args.seed is not None else 0,)


def _cmd_campaign(args: argparse.Namespace) -> int:
    store = ResultStore(_store_path(args, required=True))
    manifest = _manifest(args, seeds=_campaign_seeds(args))
    manifest_path = store.path / CAMPAIGN_MANIFEST
    manifest_path.write_text(
        json.dumps(manifest.to_dict(), indent=2), encoding="utf-8"
    )
    try:
        results = _run_campaign(manifest, store)
    finally:
        store.close()
    print(campaign_report(results).splitlines()[-1])
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    store = ResultStore(_store_path(args, required=True))
    manifest_path = store.path / CAMPAIGN_MANIFEST
    if not manifest_path.exists():
        raise ExperimentError(
            f"no {CAMPAIGN_MANIFEST} in {store.path}; start with 'microrepro campaign'"
        )
    # from_dict also reads pre-multi-seed manifests (scalar "seed" field).
    manifest = CampaignManifest.from_dict(
        json.loads(manifest_path.read_text(encoding="utf-8"))
    )
    if args.workers is not None:
        manifest = dataclasses.replace(manifest, workers=args.workers)
    try:
        results = _run_campaign(manifest, store)
    finally:
        store.close()
    print(campaign_report(results).splitlines()[-1])
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    store = ResultStore(_store_path(args, required=True))
    try:
        if args.aggregate and not args.figures:
            raise ExperimentError("--aggregate needs explicit figure names to pool")
        if args.aggregate and args.seed is not None:
            raise ExperimentError(
                "--aggregate pools every stored seed; it cannot be combined "
                "with --seed"
            )
        if args.ci != "pooled" and not args.aggregate:
            raise ExperimentError("--ci only applies together with --aggregate seeds")
        if not args.figures:
            print(catalog_table(store.catalog()))
            return 0
        for figure_id in args.figures:
            if args.aggregate == "seeds":
                result, seeds = aggregate_seeds(
                    store, figure_id, scenario_hash=args.scenario_hash, ci=args.ci
                )
                if args.csv:
                    print(result.to_csv(), end="")
                else:
                    print(aggregate_report(result, seeds, ci=args.ci))
                continue
            result = store.load_result(
                figure_id, scenario_hash=args.scenario_hash, seed=args.seed
            )
            if args.csv:
                print(result.to_csv(), end="")
            else:
                print(figure_report(result))
    finally:
        store.close()
    return 0


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from .dag import unit_cost

    manifest = _manifest(args)
    written = write_plans(
        manifest, args.out, shards=args.shards, by=args.by, balance=args.balance
    )
    total = sum(len(shard.units) for _, shard in written)
    print(
        f"planned {total} work unit(s) over {len(written)} shard(s) "
        f"by {args.by} ({args.balance}) into {args.out}"
    )
    for path, shard in written:
        cost = sum(unit_cost(manifest, unit) for unit in shard.units)
        print(f"  {path}  ({len(shard.units)} unit(s), est. cost {cost:.0f})")
    return 0


def _parse_shard_coords(text: str) -> tuple[int, int]:
    index_text, sep, total_text = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        return int(index_text), int(total_text)
    except ValueError as exc:
        raise ExperimentError(f"bad --shard {text!r}; expected K/N (e.g. 2/4)") from exc


def _cmd_shard_run(args: argparse.Namespace) -> int:
    shard = load_plan(
        args.plan,
        shard=None if args.shard is None else _parse_shard_coords(args.shard),
        by=args.by,
        balance=args.balance,
    )
    with ResultStore(_store_path(args, required=True)) as store:
        report = run_shard(
            shard,
            store,
            workers=args.workers,
            resume=not args.no_resume,
            log=lambda line: print(line, flush=True),
        )
    print(report.summary())
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    report = merge_stores(_store_path(args, required=True), args.sources)
    print(report.summary())
    return 0


def _print_status(rows, *, as_json: bool) -> int:
    """Render shard-status rows (table or the shared JSON document)."""
    payload = status_payload(rows)
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(catalog_table([row.as_row() for row in rows]))
        pending = payload["units"] - payload["done"]
        print(
            f"{payload['done']}/{payload['units']} unit(s) stored at full depth"
            + (f", {pending} pending" if pending else "; campaign complete")
        )
    return 0 if payload["complete"] else 1


def _cmd_shard_status(args: argparse.Namespace) -> int:
    plans = load_shard_plans(args.plan)
    rows = status_rows(plans, args.stores)
    return _print_status(rows, as_json=args.json)


def _manifest(
    args: argparse.Namespace, *, figures=None, seeds=None
) -> CampaignManifest:
    """The campaign manifest a command's arguments describe.

    ``figures``/``seeds`` default to the positional figures and the
    ``--seeds`` spec of :func:`_add_figure_axes`.
    """
    return CampaignManifest(
        figures=tuple(args.figures if figures is None else figures),
        seeds=parse_seed_spec(args.seeds) if seeds is None else tuple(seeds),
        repetitions=args.repetitions,
        max_points=args.max_points,
        no_milp=bool(args.no_milp),
        milp_time_limit=args.milp_time_limit,
        workers=getattr(args, "workers", None),
        optional_curves=bool(args.optional_curves),
        memoize_instances=bool(getattr(args, "memoize_instances", False)),
    )


def _cmd_dag_plan(args: argparse.Namespace) -> int:
    from .dag import unit_cost

    manifest = _manifest(args)
    units = expand_units(manifest)
    runs = len(group_by_run(units))
    cost = sum(unit_cost(manifest, unit) for unit in units)
    print(f"{len(units)} unit(s) over {runs} run(s); est. solve cost {cost:.0f}")
    if args.shards > 1:
        shards = plan(manifest, shards=args.shards, by=args.by, balance=args.balance)
        print(f"partition by {args.by} ({args.balance}) over {args.shards} shard(s):")
        for shard in shards:
            shard_cost = sum(unit_cost(manifest, unit) for unit in shard.units)
            print(
                f"  shard {shard.index}/{shard.shards}: "
                f"{len(shard.units)} unit(s), est. cost {shard_cost:.0f}"
            )
    store_path = _store_path(args, required=False)
    if store_path is not None:
        with ResultStore(store_path) as store:
            status = shard_status(plan(manifest, shards=1)[0], store)
        print(f"store at {store_path}: {status.done}/{status.units} unit(s) stored")
    return 0


def _cmd_dag_run(args: argparse.Namespace) -> int:
    from .dag import run_pipeline

    manifest = _manifest(args)
    store = ResultStore(_store_path(args, required=True))
    manifest_path = store.path / CAMPAIGN_MANIFEST
    manifest_path.write_text(
        json.dumps(manifest.to_dict(), indent=2), encoding="utf-8"
    )
    try:
        run = run_pipeline(
            manifest,
            store,
            workers=manifest.workers,
            resume=not args.no_resume,
            log=lambda line: print(line, flush=True),
        )
    finally:
        store.close()
    if args.export_dir is not None:
        _write_dag_exports(run.renders, args.export_dir)
    print(run.report.summary())
    return 0


def _write_dag_exports(renders: dict, export_dir: str) -> None:
    """Write each figure's per-seed and aggregate CSVs under ``export_dir``."""
    target = Path(export_dir)
    target.mkdir(parents=True, exist_ok=True)
    written = 0
    for figure_id, output in sorted(renders.items()):
        for seed, csv_text in sorted(
            output["per_seed"].items(), key=lambda item: int(item[0])
        ):
            (target / f"{figure_id}_seed{seed}.csv").write_text(
                csv_text, encoding="utf-8"
            )
            written += 1
        if output.get("aggregate") is not None:
            (target / f"{figure_id}_aggregate.csv").write_text(
                output["aggregate"], encoding="utf-8"
            )
            written += 1
    print(f"exported {written} CSV file(s) to {target}")


def _cmd_dag_status(args: argparse.Namespace) -> int:
    store_path = _store_path(args, required=True)
    plans = load_shard_plans(store_path)
    rows = status_rows(plans, [store_path])
    return _print_status(rows, as_json=args.json)


def _cmd_serve(args: argparse.Namespace) -> int:
    serve_service(
        host=args.host,
        port=args.port,
        window=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        cache_dir=args.cache_dir,
        cache_capacity=args.cache_capacity,
        cache_max_bytes=args.cache_max_bytes,
        workers=args.workers,
        max_pending=args.max_pending or None,
        session_ttl=args.session_ttl,
        max_sessions=args.max_sessions,
        trace=args.trace or os.environ.get(TRACE_ENV_VAR) or None,
    )
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    spans = load_spans(args.path)
    aggregates = summarize_spans(spans)
    if args.json:
        payload = {
            "spans": len(spans),
            "aggregates": [
                {
                    "name": aggregate.name,
                    "count": aggregate.count,
                    "total_seconds": round(aggregate.total_seconds, 6),
                    "self_seconds": round(aggregate.self_seconds, 6),
                    "mean_ms": round(aggregate.mean_ms, 3),
                }
                for aggregate in aggregates
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(format_table(aggregates))
    if args.tree:
        print()
        print(format_tree(spans, trace_id=args.trace_id))
    return 0


def _cmd_request(args: argparse.Namespace) -> int:
    with ServiceClient(args.url) as client:
        response = client.solve(
            {
                "heuristic": args.heuristic,
                "application": {"tasks": args.tasks, "types": args.types},
                "platform": {"machines": args.machines},
                "options": {"seed": args.seed, "repetition": args.repetition},
            }
        )
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    config = LiveConfig(
        tasks=args.tasks,
        types=args.types,
        machines=args.machines,
        heuristic=args.heuristic,
        seed=args.seed,
        repetition=args.repetition,
        duration=args.duration,
        mtbf=args.mtbf,
        mttr=args.mttr,
        arrival_rate=args.arrival_rate,
    )
    if args.url is not None:
        with ServiceClient(args.url) as client:
            report = run_timeline_remote(config, client)
    else:
        report = run_timeline(config, warm=not args.cold)
    verified = False
    if args.verify:
        # The cold re-solve run is the ground truth; a warm (or remote)
        # run must match it bit for bit on every event.
        local = args.url is None
        cold = report if local and args.cold else run_timeline(config, warm=False)
        warm = report if local and not args.cold else run_timeline(config, warm=True)
        compare_reports(cold, warm)
        if not local:
            compare_reports(warm, report)
        verified = True
    if args.json:
        payload = report.to_dict()
        payload["verified"] = verified
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in report.summary_lines():
            print(line)
        if verified:
            print(
                "verified: warm == cold re-solve bit for bit"
                + ("" if args.url is None else " == remote session")
            )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    application = random_chain_application(args.tasks, args.types, rng)
    w = random_processing_times(application.types, args.machines, rng)
    f_high = 0.10 if args.high_failures else 0.02
    f_low = 0.0 if args.high_failures else 0.005
    f = random_failure_rates(args.tasks, args.machines, rng, low=f_low, high=f_high)
    instance = ProblemInstance(
        application,
        Platform(w, types=application.types),
        FailureModel(f),
        name="cli-instance",
    )

    print(
        f"Random linear chain: n={args.tasks} tasks, p={args.types} types, "
        f"m={args.machines} machines (seed={args.seed})"
    )
    rows = []
    for name in PAPER_HEURISTICS:
        heuristic = get_heuristic(name)
        result = heuristic.solve(instance, np.random.default_rng(args.seed))
        rows.append((name, result.period, result.throughput * 1000.0))
    if args.milp:
        milp = solve_specialized_milp(instance)
        if milp.is_optimal:
            rows.append(("MIP", milp.period, 1000.0 / milp.period))
        else:
            print(f"MIP did not prove optimality ({milp.status}: {milp.message})")

    width = max(len(name) for name, _, _ in rows)
    print(f"{'method'.ljust(width)}  period(ms)  throughput(/s)")
    for name, period, thr in sorted(rows, key=lambda row: row[1]):
        print(f"{name.ljust(width)}  {period:10.1f}  {thr:14.4f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (bad store paths, missing manifests, unknown curves,
    ...) surface as a one-line message and exit code 2, not a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Tracing is process-wide: $REPRO_TRACE switches it on for any
        # command (campaign/dag runs trace too, not just `serve`, whose
        # --trace flag still takes precedence over the variable).
        trace_dir = os.environ.get(TRACE_ENV_VAR)
        if trace_dir and getattr(args, "trace", None) is None:
            configure_tracing(trace_dir)
        return int(args.func(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
