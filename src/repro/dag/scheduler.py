"""Execute a campaign against its result store: cell hits, cost-aware stealing.

Two layers live here.  :func:`steal_dispatch` is the generic
work-stealing core behind every parallel block run (it is called from
the block executor, :func:`repro.experiments.runner.execute_blocks`):
per-queue pending deques (one queue per run), a fixed number of
executor slots, each slot draining its owned queues front-first in
canonical order and — once they are empty — *stealing* from the tail
of whichever queue has the most remaining estimated cost, so no slot
idles while a straggler queue still holds work.  It is
executor-agnostic (thread pools in the benchmarks, process pools for
real solves).

:func:`execute_solves` is the store's side of a campaign —
``microrepro dag run`` (and its no-figure resume form) and ``shard run``
both go through it.  The
:class:`~repro.experiments.store.ResultStore` is the campaign's only
record: a work unit whose cell the store holds with at least the run's
repetitions is a hit and is not run.  The remaining units go to the
block executor, which runs them serially in chunks or in parallel
through :func:`steal_dispatch`, exactly as for an in-memory run; each
computed block is written once, as a cell, and each run gets its
:class:`~repro.experiments.store.RunMeta` header.  :func:`run_pipeline`
then derives every export on read from the stored cells, with the same
``load_result`` and ``aggregate_results`` calls ``microrepro export``
uses.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

from ..backend import get_backend
from ..campaign.plan import CampaignManifest, expand_units, group_by_run
from ..experiments.reporting import aggregate_results
from ..experiments.runner import BlockRun, execute_blocks
from ..experiments.store import CellRecord, ResultStore, RunMeta, _metas_compatible
from ..obs.trace import span
from ..simulation.rng import RandomStreamFactory

__all__ = [
    "DispatchReport",
    "steal_dispatch",
    "PipelineReport",
    "PipelineRun",
    "run_pipeline",
    "execute_solves",
]


# ---------------------------------------------------------------------------
# Generic work-stealing dispatch
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class DispatchReport:
    """What one :func:`steal_dispatch` call did."""

    queues: int = 0
    slots: int = 0
    executed: int = 0
    #: Items a slot took from a queue it does not own.
    stolen: int = 0


def steal_dispatch(
    pool,
    fn,
    queues: list[list],
    costs: list[list[float]] | None = None,
    *,
    slots: int,
    steal: bool = True,
    on_result=None,
) -> DispatchReport:
    """Drain ``queues`` through ``slots`` concurrent ``fn`` calls.

    Queue ``q`` is *owned* by slot ``q % slots``; a slot serves its
    owned queues front-first (preserving each queue's canonical order),
    and with ``steal=True`` an idle slot then takes from the **tail** of
    the non-empty queue with the largest remaining estimated cost — the
    straggler — instead of retiring.  ``costs`` supplies per-item
    estimates (uniform when omitted); ``on_result(item, result)`` fires
    in completion order.  ``pool`` is any ``concurrent.futures``
    executor whose workers can run ``fn``.
    """
    pending = [deque(queue) for queue in queues]
    if costs is None:
        costs = [[1.0] * len(queue) for queue in queues]
    item_costs = [deque(cost_list) for cost_list in costs]
    remaining = [sum(cost_list) for cost_list in item_costs]
    report = DispatchReport(queues=len(pending), slots=slots)
    if not any(pending):
        return report

    def take(slot: int):
        """``(queue, item)`` for a free slot, or ``None`` to retire it."""
        for queue in range(slot, len(pending), slots):
            if pending[queue]:
                item = pending[queue].popleft()
                remaining[queue] -= item_costs[queue].popleft()
                return queue, item
        if steal:
            candidates = [queue for queue in range(len(pending)) if pending[queue]]
            if candidates:
                queue = max(candidates, key=lambda q: (remaining[q], -q))
                item = pending[queue].pop()
                remaining[queue] -= item_costs[queue].pop()
                report.stolen += 1
                return queue, item
        return None

    futures: dict = {}
    for slot in range(slots):
        taken = take(slot)
        if taken is None:
            continue
        queue, item = taken
        futures[pool.submit(fn, item)] = (slot, item)
    while futures:
        done, _ = wait(futures, return_when=FIRST_COMPLETED)
        for future in done:
            slot, item = futures.pop(future)
            result = future.result()
            report.executed += 1
            if on_result is not None:
                on_result(item, result)
            taken = take(slot)
            if taken is not None:
                queue, next_item = taken
                futures[pool.submit(fn, next_item)] = (slot, next_item)
    return report


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class PipelineReport:
    """Solve accounting of one campaign execution."""

    #: Units whose cell the store already held at full depth.
    hits: int = 0
    #: Units solved (one block solve each) and written as cells.
    computed: int = 0
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
            line += f", {self.stolen} unit(s) stolen"
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

    With ``resume``, a unit is a hit when the store holds its cell with
    at least the scenario's repetitions — what
    :func:`~repro.campaign.status.shard_status` calls ``done``.  The
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
    scenarios = {figure_id: manifest.scenario_for(figure_id) for figure_id, _ in groups}
    hashes = {figure_id: scenario.stable_hash() for figure_id, scenario in scenarios.items()}

    runs: list[BlockRun] = []
    for (figure_id, seed), run_units in groups.items():
        repetitions = scenarios[figure_id].repetitions
        pending = []
        for unit in run_units:
            record = (
                store.get_cell(
                    figure_id, hashes[figure_id], seed, unit.curve, unit.sweep_value
                )
                if resume
                else None
            )
            if record is not None and record.repetitions >= repetitions:
                report.hits += 1
            else:
                pending.append((unit.sweep_value, unit.curve))
        runs.append(
            BlockRun(
                figure_id,
                seed,
                scenarios[figure_id],
                int(RandomStreamFactory(seed).entropy),
                tuple(pending),
            )
        )
    outstanding = {(run.figure_id, run.seed): len(run.blocks) for run in runs}

    def finish_run(run: BlockRun) -> None:
        meta = RunMeta(
            figure_id=run.figure_id,
            scenario_hash=hashes[run.figure_id],
            seed=run.seed,
            scenario=run.scenario.to_dict(),
            # The run's *full* curve order (a shard may hold only a
            # slice): the header must describe the whole run so the
            # merged store rebuilds results.
            curves=list(manifest.curves_for(run.figure_id)),
            normalize_to=manifest.spec_for(run.figure_id).normalize_to,
            elapsed_seconds=time.perf_counter() - start,
            backend=get_backend().name,
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
        workers=workers if workers is not None else manifest.workers,
        memoize=manifest.memoize_instances,
    )
    report.elapsed_seconds += time.perf_counter() - start
    return report


def _render(manifest: CampaignManifest, store: ResultStore, figure_id: str) -> dict:
    """One figure's exports, derived from the stored cells of every seed."""
    scenario_hash = manifest.scenario_for(figure_id).stable_hash()
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
    workers: int | None = None,
    resume: bool = True,
    log=None,
) -> PipelineRun:
    """Execute a whole campaign against ``store`` and derive its exports.

    Every work unit is solved (or served from its stored cell) through
    :func:`execute_solves`; each figure's exports are then read back
    from the store — one ``load_result(...).to_csv()`` per seed plus,
    for more than one seed, the pooled ``aggregate_results`` CSV —
    exactly what ``microrepro export`` prints and ``dag run
    --export-dir`` writes.
    """
    report = PipelineReport()
    start = time.perf_counter()
    units = expand_units(manifest)
    with span("dag.pipeline", solves=len(units), figures=len(manifest.figures)):
        execute_solves(
            manifest,
            units,
            store,
            workers=workers,
            resume=resume,
            report=report,
            log=log,
        )
        renders = {
            figure_id: _render(manifest, store, figure_id)
            for figure_id in manifest.figures
        }
    store.flush()
    report.elapsed_seconds = time.perf_counter() - start
    return PipelineRun(report=report, renders=renders)
