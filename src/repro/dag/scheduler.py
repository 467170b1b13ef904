"""Execute a campaign against its result store: cell hits, cost-aware stealing.

Two layers live here.  :func:`steal_dispatch` is the generic
work-stealing core and the one dispatch loop of every parallel block
run — the campaign's solve phase and ``run_scenario(workers=N)`` alike:
per-queue pending deques (one queue per shard-like group), a fixed
number of executor slots, each slot draining its owned queues
front-first in canonical order and — once they are empty — *stealing*
from the tail of whichever queue has the most remaining estimated
cost, so no slot idles while a straggler queue still holds work.  It
is executor-agnostic (thread pools in the benchmarks, process pools
for real solves).

:func:`execute_solves` is the one place stored blocks are skipped —
``microrepro dag run`` (and its no-figure resume form) and ``shard run``
both go through it.  The
:class:`~repro.experiments.store.ResultStore` is the campaign's only
record: a work unit whose cell the store holds with at least the run's
repetitions is a hit and is not run.  The remaining units run through
the block engine — serial runs keep the cross-point stacking of
:func:`~repro.experiments.runner.execute_blocks`, parallel runs
dispatch picklable block jobs through :func:`steal_dispatch` with the
:mod:`repro.dag.cost` estimates — and each computed block is written
once, as a cell.  :func:`run_pipeline` then derives every export on
read from the stored cells, with the same ``load_result`` and
``aggregate_results`` calls ``microrepro export`` uses.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from ..backend import get_backend
from ..campaign.plan import CampaignManifest, WorkUnit, expand_units, group_by_run
from ..experiments.providers import resolve_provider
from ..experiments.reporting import aggregate_results
from ..experiments.runner import _evaluate_block_job, execute_blocks
from ..experiments.store import CellRecord, ResultStore, RunMeta, _metas_compatible
from ..obs.instrument import timed_kernels
from ..obs.trace import activate, capture, current_context, emit_spans, span, tracing_active
from ..simulation.rng import RandomStreamFactory
from .cost import unit_cost

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


def _evaluate_block_job_traced(payload):
    """Picklable traced block job: same result, plus the worker's spans.

    ``payload`` is ``(context, args)`` — the submitting side's
    :class:`~repro.obs.trace.TraceContext` and the plain
    :func:`_evaluate_block_job` argument tuple.  Spans produced in the
    pool worker (the block solve itself plus per-kernel timings) are
    buffered and returned for the parent process to emit, so the trace
    tree crosses the process boundary under one trace id.
    """
    context, args = payload
    with capture() as spans:
        with activate(context):
            with span("dag.block_job", sweep_value=args[1], curve=args[2]):
                with timed_kernels():
                    result = _evaluate_block_job(args)
    return result, spans


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
    remainder runs through the block engine — serially with cross-point
    stacking per run, or in parallel through :func:`steal_dispatch` with
    cost-priced per-run queues.  Each computed block is written once,
    with :meth:`~ResultStore.put_cell`, and each run gets a
    :class:`RunMeta` header unless a compatible one is already stored
    (so an identical re-run writes nothing).  ``log`` receives one
    progress line per completed run.
    """
    report = report if report is not None else PipelineReport()
    start = time.perf_counter()
    groups = group_by_run(units)
    scenarios = {figure_id: manifest.scenario_for(figure_id) for figure_id, _ in groups}
    hashes = {figure_id: scenario.stable_hash() for figure_id, scenario in scenarios.items()}

    pending_by_run: dict[tuple[str, int], list[WorkUnit]] = {}
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
                pending.append(unit)
        pending_by_run[(figure_id, seed)] = pending
    entropy = {
        run_key: int(RandomStreamFactory(run_key[1]).entropy) for run_key in groups
    }

    def record_solve(unit: WorkUnit, values, failures: int) -> None:
        values = [float(value) for value in values]
        store.put_cell(
            CellRecord(
                figure_id=unit.figure_id,
                scenario_hash=hashes[unit.figure_id],
                seed=unit.seed,
                curve=unit.curve,
                sweep_value=unit.sweep_value,
                repetitions=len(values),
                values=values,
                failures=int(failures),
            )
        )
        report.computed += 1

    def finish_run(run_key: tuple[str, int], elapsed: float) -> None:
        figure_id, seed = run_key
        meta = RunMeta(
            figure_id=figure_id,
            scenario_hash=hashes[figure_id],
            seed=seed,
            scenario=scenarios[figure_id].to_dict(),
            # The run's *full* curve order (a shard may hold only a
            # slice): the header must describe the whole run so the
            # merged store rebuilds results.
            curves=list(manifest.curves_for(figure_id)),
            normalize_to=manifest.spec_for(figure_id).normalize_to,
            elapsed_seconds=elapsed,
            backend=get_backend().name,
        )
        stored = store.get_meta(*meta.key)
        if stored is None or not _metas_compatible(stored, meta):
            store.put_meta(meta)
        if log is not None:
            pending = pending_by_run[run_key]
            log(
                f"{figure_id} seed={seed}: {len(pending)} block(s) computed, "
                f"{len(groups[run_key]) - len(pending)} stored"
            )

    pool_size = workers if workers is not None else manifest.workers
    if pool_size is not None and pool_size > 1 and any(pending_by_run.values()):
        # Parallel path: every pending unit of every run in one stealing
        # dispatch — per-run queues priced by the cost model, so MIP-heavy
        # runs are drained by every idle slot instead of straggling.  The
        # dispatch span opens before the queues are built so the context
        # the traced items carry is the dispatch itself — block-job spans
        # coming back from the workers hang directly off it.
        with span("dag.dispatch", slots=pool_size) as dispatch_span:
            # Queue items are the picklable job-arg tuples (the executor
            # pickles what it is submitted); identity maps each tuple back
            # to its unit for recording.  Under tracing, each item also
            # carries the dispatching context so worker spans attach to it.
            traced = tracing_active()
            trace_context = current_context() if traced else None
            job_fn = _evaluate_block_job_traced if traced else _evaluate_block_job
            unit_of: dict[int, WorkUnit] = {}
            queues, costs = [], []
            for run_key, pending in pending_by_run.items():
                queue = []
                for unit in pending:
                    item = (
                        scenarios[unit.figure_id],
                        unit.sweep_value,
                        unit.curve,
                        entropy[run_key],
                        manifest.milp_time_limit,
                        manifest.memoize_instances,
                    )
                    if traced:
                        item = (trace_context, item)
                    unit_of[id(item)] = unit
                    queue.append(item)
                queues.append(queue)
                costs.append([unit_cost(manifest, unit) for unit in pending])
            outstanding = {
                run_key: len(pending) for run_key, pending in pending_by_run.items()
            }
            for run_key, count in outstanding.items():
                if count == 0:
                    finish_run(run_key, 0.0)

            def on_result(args, result) -> None:
                unit = unit_of[id(args)]
                if traced:
                    result, worker_spans = result
                    emit_spans(worker_spans)
                values, failures = result
                record_solve(unit, values, failures)
                run_key = (unit.figure_id, unit.seed)
                outstanding[run_key] -= 1
                if outstanding[run_key] == 0:
                    finish_run(run_key, time.perf_counter() - start)

            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                dispatch = steal_dispatch(
                    pool,
                    job_fn,
                    queues,
                    costs,
                    slots=pool_size,
                    steal=True,
                    on_result=on_result,
                )
            dispatch_span.set(
                runs=len(queues), executed=dispatch.executed, stolen=dispatch.stolen
            )
        report.stolen += dispatch.stolen
    else:
        for run_key, pending in pending_by_run.items():
            figure_id, seed = run_key
            providers = {
                unit.curve: resolve_provider(
                    unit.curve, milp_time_limit=manifest.milp_time_limit
                )
                for unit in pending
            }
            by_block = {(unit.sweep_value, unit.curve): unit for unit in pending}
            run_start = time.perf_counter()
            with span(
                "dag.run", figure=figure_id, seed=seed, blocks=len(pending)
            ), timed_kernels():
                execute_blocks(
                    scenarios[figure_id],
                    entropy[run_key],
                    list(by_block),
                    providers,
                    lambda sweep_value, label, values, failures: record_solve(
                        by_block[(int(sweep_value), label)], values, failures
                    ),
                    milp_time_limit=manifest.milp_time_limit,
                    workers=None,
                    memoize=manifest.memoize_instances,
                )
            finish_run(run_key, time.perf_counter() - run_start)
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
