"""Execute a campaign against its result store.

:func:`execute_solves` is the store's side of a campaign —
``microrepro dag run`` (whole, ``--shard k/K``, or its no-figure resume
form) goes through it.  The
:class:`~repro.experiments.store.ResultStore` is the campaign's only
record: a work unit whose cell the store holds with at least the run's
repetitions is a hit (:func:`~repro.campaign.status.cell_done`) and is
not run.  The remaining units go to the block executor
(:func:`repro.experiments.runner.execute_blocks`), which runs them
serially in chunks or in parallel through its work-stealing dispatch,
exactly as for an in-memory run; each computed block is written once,
as a cell, and each run gets its
:class:`~repro.experiments.store.RunMeta` header.  :func:`run_pipeline`
then derives every export on read from the stored cells, with the same
``load_result`` and ``aggregate_results`` calls ``microrepro export``
uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..experiments.reporting import aggregate_results
from ..experiments.runner import BlockRun, execute_blocks
from ..experiments.store import CellRecord, ResultStore, RunMeta, _metas_compatible
from ..obs.trace import span
from ..simulation.rng import RandomStreamFactory
from .plan import CampaignManifest, ShardPlan, expand_units, group_by_run
from .status import cell_done

__all__ = [
    "PipelineReport",
    "PipelineRun",
    "run_pipeline",
    "execute_solves",
]


@dataclass(slots=True)
class PipelineReport:
    """Solve accounting of one campaign execution."""

    #: Units whose cell the store already held at full depth.
    hits: int = 0
    #: Units solved (one block solve each) and written as cells.
    computed: int = 0
    #: Point jobs an idle worker took from another run's queue.
    stolen: int = 0
    elapsed_seconds: float = 0.0

    def hit_rate(self) -> float:
        """Fraction of units served from the store."""
        total = self.hits + self.computed
        return (self.hits / total) if total else 1.0

    def summary(self) -> str:
        """One-line report for the CLI (the smoke jobs grep these fields)."""
        line = (
            f"solve: {self.hits} stored / {self.computed} computed; "
            f"{self.computed} block solve(s) ({self.hit_rate():.0%} from the store)"
        )
        if self.stolen:
            line += f", {self.stolen} job(s) stolen"
        return line + f", {self.elapsed_seconds:.1f}s"


@dataclass(slots=True)
class PipelineRun:
    """Result of :func:`run_pipeline`: the report plus the derived exports."""

    report: PipelineReport
    #: ``{figure: {"per_seed": {"<seed>": csv}, "aggregate": csv | None}}``.
    renders: dict[str, dict] = field(default_factory=dict)


def execute_solves(
    manifest: CampaignManifest,
    units,
    store: ResultStore,
    *,
    workers: int | None = None,
    resume: bool = True,
    report: PipelineReport | None = None,
    log=None,
) -> PipelineReport:
    """Bring every work unit of ``units`` into ``store``, computing what's missing.

    With ``resume``, a unit is a hit when its stored cell is
    :func:`~repro.campaign.status.cell_done` — the rule
    :func:`~repro.campaign.status.shard_status` counts as ``done``.  The
    remainder runs through
    :func:`~repro.experiments.runner.execute_blocks` (serially, or over
    ``workers`` processes).  Each computed block is written once, with
    :meth:`~ResultStore.put_cell`, and each run gets a :class:`RunMeta`
    header once its last block is in, unless a compatible one is
    already stored (so an identical re-run writes nothing).  ``log``
    receives one progress line per completed run.
    """
    report = report if report is not None else PipelineReport()
    start = time.perf_counter()
    groups = group_by_run(units)
    figures = {figure_id: manifest.resolve(figure_id) for figure_id, _ in groups}
    hashes = {
        figure_id: figure.scenario.stable_hash() for figure_id, figure in figures.items()
    }

    runs: list[BlockRun] = []
    for (figure_id, seed), run_units in groups.items():
        scenario = figures[figure_id].scenario
        repetitions = scenario.repetitions
        pending = []
        for unit in run_units:
            if resume and cell_done(
                store.get_cell(
                    figure_id, hashes[figure_id], seed, unit.curve, unit.sweep_value
                ),
                repetitions,
            ):
                report.hits += 1
            else:
                pending.append((unit.sweep_value, unit.curve))
        runs.append(
            BlockRun(
                figure_id,
                seed,
                scenario,
                int(RandomStreamFactory(seed).entropy),
                tuple(pending),
            )
        )
    outstanding = {(run.figure_id, run.seed): len(run.blocks) for run in runs}

    def finish_run(run: BlockRun) -> None:
        # The run's *full* curve order (a shard may hold only a slice):
        # the header must describe the whole run so the merged store
        # rebuilds results.
        meta = RunMeta.for_run(
            figures[run.figure_id], run.seed, time.perf_counter() - start
        )
        stored = store.get_meta(*meta.key)
        if stored is None or not _metas_compatible(stored, meta):
            store.put_meta(meta)
        if log is not None:
            total = len(groups[(run.figure_id, run.seed)])
            log(
                f"{run.figure_id} seed={run.seed}: {len(run.blocks)} block(s) "
                f"computed, {total - len(run.blocks)} stored"
            )

    def record_solve(run: BlockRun, sweep_value: int, curve: str, values, failures) -> None:
        store.put_cell(
            CellRecord(
                figure_id=run.figure_id,
                scenario_hash=hashes[run.figure_id],
                seed=run.seed,
                curve=curve,
                sweep_value=sweep_value,
                repetitions=len(values),
                values=[float(value) for value in values],
                failures=int(failures),
            )
        )
        report.computed += 1
        run_key = (run.figure_id, run.seed)
        outstanding[run_key] -= 1
        if outstanding[run_key] == 0:
            finish_run(run)

    for run in runs:
        if not run.blocks:
            finish_run(run)
    report.stolen += execute_blocks(
        runs,
        record_solve,
        milp_time_limit=manifest.milp_time_limit,
        workers=workers,
    )
    report.elapsed_seconds += time.perf_counter() - start
    return report


def _render(manifest: CampaignManifest, store: ResultStore, figure_id: str) -> dict:
    """One figure's exports, derived from the stored cells of every seed."""
    scenario_hash = manifest.resolve(figure_id).scenario.stable_hash()
    results = [
        store.load_result(figure_id, scenario_hash=scenario_hash, seed=seed)
        for seed in manifest.seeds
    ]
    return {
        "per_seed": {str(result.seed): result.to_csv() for result in results},
        "aggregate": (
            aggregate_results(results, ci="pooled").to_csv()
            if len(results) > 1
            else None
        ),
    }


def run_pipeline(
    manifest: CampaignManifest,
    store: ResultStore,
    *,
    shard: ShardPlan | None = None,
    workers: int | None = None,
    resume: bool = True,
    log=None,
) -> PipelineRun:
    """Execute a whole campaign, or one shard of it, against ``store``.

    Every work unit is solved (or served from its stored cell) through
    :func:`execute_solves`; each figure's exports are then read back
    from the store — one ``load_result(...).to_csv()`` per seed plus,
    for more than one seed, the pooled ``aggregate_results`` CSV —
    exactly what ``microrepro export`` prints and ``dag run
    --export-dir`` writes.  With ``shard`` (one of ``plan(manifest,
    ...)``) only its units run and nothing is exported: a shard's store
    holds part of the campaign until ``store merge``.
    """
    report = PipelineReport()
    start = time.perf_counter()
    units = expand_units(manifest) if shard is None else shard.units
    where = {} if shard is None else {"shard": shard.index, "shards": shard.shards}
    with span(
        "dag.pipeline", solves=len(units), figures=len(manifest.figures), **where
    ) as pipeline_span:
        execute_solves(
            manifest,
            units,
            store,
            workers=workers,
            resume=resume,
            report=report,
            log=log,
        )
        pipeline_span.set(computed=report.computed, hits=report.hits, stolen=report.stolen)
        renders = {} if shard is not None else {
            figure_id: _render(manifest, store, figure_id)
            for figure_id in manifest.figures
        }
    report.elapsed_seconds = time.perf_counter() - start
    return PipelineRun(report=report, renders=renders)
