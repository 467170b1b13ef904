"""Execute the campaign DAG: cache-hit skipping, cost-aware stealing.

Two layers live here.  :func:`steal_dispatch` is the generic
work-stealing core and the one dispatch loop of every parallel block
run — the DAG's solve phase and ``run_scenario(workers=N)`` alike:
per-queue pending deques (one queue per shard-like group), a fixed
number of executor slots, each slot draining its owned queues
front-first in canonical order and — once they are empty — *stealing*
from the tail of whichever queue has the most remaining estimated
cost, so no slot idles while a straggler queue still holds work.  It
is executor-agnostic (thread pools in the benchmarks, process pools
for real solves).

:func:`run_pipeline` executes a compiled :class:`~repro.dag.pipeline.
Pipeline` against a result store.  Its solve phase,
:func:`execute_solves`, is the one place stored blocks are skipped —
``microrepro run --store``, ``campaign``, ``resume``, ``shard run`` and
``dag run`` all resume through it: every stage whose content key is
already in the :class:`~repro.dag.artifacts.ArtifactStore` is a cache
hit and is not run; legacy cell records with enough repetitions are
adopted into the artifact log (so pre-DAG stores migrate without
recomputing); the remaining solve stages run through the block
engine — serial runs keep the cross-point stacking of
:func:`~repro.experiments.runner.execute_blocks`, parallel runs
dispatch picklable block jobs through :func:`steal_dispatch` with the
:mod:`repro.dag.cost` estimates.  Cell records and run headers keep
flowing into the :class:`~repro.experiments.store.ResultStore`, so
merge/status/export work unchanged on a DAG-produced store.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from ..backend import get_backend
from ..campaign.plan import WorkUnit
from ..experiments.providers import resolve_provider
from ..experiments.runner import _evaluate_block_job, execute_blocks
from ..experiments.store import CellRecord, ResultStore, RunMeta
from ..obs.instrument import timed_kernels
from ..obs.trace import activate, capture, current_context, emit_spans, span, tracing_active
from .artifacts import ArtifactStore, artifact_store_for
from .cost import unit_cost
from .pipeline import Pipeline
from .stage import SolveStage, Stage, values_consistent

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
# Pipeline execution
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class PipelineReport:
    """Per-kind cache-hit/computed accounting of one DAG execution."""

    hits: dict[str, int] = field(
        default_factory=lambda: {"generate": 0, "solve": 0, "aggregate": 0, "render": 0}
    )
    computed: dict[str, int] = field(
        default_factory=lambda: {"generate": 0, "solve": 0, "aggregate": 0, "render": 0}
    )
    stolen: int = 0
    elapsed_seconds: float = 0.0

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_stages(self) -> int:
        return self.total_hits + sum(self.computed.values())

    def hit_rate(self) -> float:
        """Fraction of stages served from the artifact cache."""
        total = self.total_stages
        return (self.total_hits / total) if total else 1.0

    def summary(self) -> str:
        """One-line report for the CLI (the smoke jobs grep these fields)."""
        per_kind = ", ".join(
            f"{kind}: {self.hits[kind]} hit / {self.computed[kind]} computed"
            for kind in self.hits
        )
        line = (
            f"{per_kind}; {self.computed['solve']} block solve(s), "
            f"{self.total_hits} stage-cache hit(s) "
            f"({self.hit_rate():.0%} stage-cache hits)"
        )
        if self.stolen:
            line += f", {self.stolen} unit(s) stolen"
        return line + f", {self.elapsed_seconds:.1f}s"


@dataclass(slots=True)
class PipelineRun:
    """Result of :func:`run_pipeline`: the report plus render outputs."""

    report: PipelineReport
    renders: dict[str, dict] = field(default_factory=dict)


def _load(stage: Stage, artifacts: ArtifactStore, report: PipelineReport) -> dict:
    """A stage's output as *input* to a downstream stage.

    Cached outputs load without touching the hit counters (they were
    already accounted for when their own stage was ensured); a genuinely
    missing upstream output is computed and counted.
    """
    output = artifacts.get(stage.key)
    if output is not None:
        return output
    inputs = [_load(parent, artifacts, report) for parent in stage.inputs]
    output = _run_stage(stage, inputs)
    artifacts.put(stage.key, stage.name, output)
    report.computed[stage.kind] += 1
    return output


def _ensure(stage: Stage, artifacts: ArtifactStore, report: PipelineReport) -> dict:
    """The stage's output, from cache when possible (recursing upstream)."""
    output = artifacts.get(stage.key)
    if output is not None:
        report.hits[stage.kind] += 1
        return output
    inputs = [_load(parent, artifacts, report) for parent in stage.inputs]
    output = _run_stage(stage, inputs)
    artifacts.put(stage.key, stage.name, output)
    report.computed[stage.kind] += 1
    return output


def _run_stage(stage: Stage, inputs: list[dict]) -> dict:
    """Run one stage under a ``dag.stage`` span keyed by its content key."""
    with span("dag.stage", kind=stage.kind, key=stage.key, stage=stage.name):
        return stage.run(inputs)


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


def _cell_from_output(stage: SolveStage, scenario_hash: str, output: dict) -> CellRecord:
    values = [float(value) for value in output["values"]]
    return CellRecord(
        figure_id=stage.figure_id,
        scenario_hash=scenario_hash,
        seed=stage.seed,
        curve=stage.curve,
        sweep_value=stage.sweep_value,
        repetitions=len(values),
        values=values,
        failures=int(output["failures"]),
    )


def _group_solves(solves) -> dict[tuple[str, int], list[SolveStage]]:
    """Solve stages per (figure, seed) run, preserving canonical order."""
    groups: dict[tuple[str, int], list[SolveStage]] = {}
    for stage in solves:
        groups.setdefault((stage.figure_id, stage.seed), []).append(stage)
    return groups


def execute_solves(
    pipeline: Pipeline,
    solves: list[SolveStage],
    store: ResultStore,
    artifacts: ArtifactStore,
    *,
    workers: int | None = None,
    resume: bool = True,
    report: PipelineReport | None = None,
    log=None,
) -> PipelineReport:
    """Bring every stage of ``solves`` into cache, computing what's missing.

    The solve phase of the DAG: artifact hits and adoptable legacy cell
    records are skipped, the remainder runs through the block engine —
    serially with cross-point stacking per run, or in parallel through
    :func:`steal_dispatch` with cost-priced per-run queues.  Both the
    artifact log *and* the result store receive every output (cells and
    per-run :class:`RunMeta` headers), so the store stays a complete
    legacy store.  ``log`` receives the per-run progress lines the shard
    worker has always printed.
    """
    manifest = pipeline.manifest
    report = report if report is not None else PipelineReport()
    start = time.perf_counter()
    groups = _group_solves(solves)

    # -- classify: artifact hit / legacy adoption / pending ---------------------
    pending_by_run: dict[tuple[str, int], list[SolveStage]] = {}
    for run_key, stages in groups.items():
        figure_id, seed = run_key
        scenario = manifest.scenario_for(figure_id)
        scenario_hash = scenario.stable_hash()
        repetitions = scenario.repetitions
        pending: list[SolveStage] = []
        for stage in stages:
            output = artifacts.get(stage.key) if resume else None
            if output is not None and values_consistent(output, repetitions):
                report.hits["solve"] += 1
                if store.get_cell(
                    figure_id, scenario_hash, seed, stage.curve, stage.sweep_value
                ) is None:
                    store.put_cell(_cell_from_output(stage, scenario_hash, output))
                continue
            record = (
                store.get_cell(
                    figure_id, scenario_hash, seed, stage.curve, stage.sweep_value
                )
                if resume
                else None
            )
            if record is not None and record.repetitions >= repetitions:
                # Pre-DAG stores migrate for free: adopt the stored cell
                # as this stage's artifact instead of re-solving.
                artifacts.put(
                    stage.key,
                    stage.name,
                    {
                        "values": list(record.values),
                        "failures": int(record.failures),
                        "repetitions": int(record.repetitions),
                    },
                )
                report.hits["solve"] += 1
                continue
            pending.append(stage)
        pending_by_run[run_key] = pending

    # -- generate stages of the touched runs ------------------------------------
    generated: dict[tuple[str, int], dict] = {
        run_key: _ensure(pipeline.generates[run_key], artifacts, report)
        for run_key in groups
    }

    def record_solve(stage: SolveStage, values, failures: int) -> None:
        scenario_hash = generated[(stage.figure_id, stage.seed)]["scenario_hash"]
        output = {
            "values": [float(value) for value in values],
            "failures": int(failures),
            "repetitions": int(stage.generate.scenario.repetitions),
        }
        store.put_cell(_cell_from_output(stage, scenario_hash, output))
        artifacts.put(stage.key, stage.name, output)
        report.computed["solve"] += 1

    def finish_run(run_key: tuple[str, int], elapsed: float) -> None:
        figure_id, seed = run_key
        scenario = manifest.scenario_for(figure_id)
        store.put_meta(
            RunMeta(
                figure_id=figure_id,
                scenario_hash=scenario.stable_hash(),
                seed=seed,
                scenario=scenario.to_dict(),
                # The run's *full* curve order (a shard may hold only a
                # slice): the header must describe the whole run so the
                # merged store rebuilds results (see campaign.worker).
                curves=list(manifest.curves_for(figure_id)),
                normalize_to=manifest.spec_for(figure_id).normalize_to,
                elapsed_seconds=elapsed,
                backend=get_backend().name,
            )
        )
        if log is not None:
            pending = pending_by_run[run_key]
            stages = groups[run_key]
            log(
                f"{figure_id} seed={seed}: {len(pending)} block(s) computed, "
                f"{len(stages) - len(pending)} stored"
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

            def job_args(stage: SolveStage):
                return (
                    stage.generate.scenario,
                    stage.sweep_value,
                    stage.curve,
                    generated[(stage.figure_id, stage.seed)]["entropy"],
                    manifest.milp_time_limit,
                    manifest.memoize_instances,
                )

            # Queue items are the picklable job-arg tuples (the executor
            # pickles what it is submitted); identity maps each tuple back
            # to its stage for recording.  Under tracing, each item also
            # carries the dispatching context so worker spans attach to it.
            traced = tracing_active()
            trace_context = current_context() if traced else None
            job_fn = _evaluate_block_job_traced if traced else _evaluate_block_job
            stage_of: dict[int, SolveStage] = {}
            queues, costs = [], []
            for run_key, stages in pending_by_run.items():
                queue = []
                for stage in stages:
                    item = job_args(stage)
                    if traced:
                        item = (trace_context, item)
                    stage_of[id(item)] = stage
                    queue.append(item)
                queues.append(queue)
                costs.append(
                    [
                        unit_cost(
                            manifest,
                            WorkUnit(
                                stage.figure_id,
                                stage.seed,
                                stage.curve,
                                stage.sweep_value,
                            ),
                        )
                        for stage in stages
                    ]
                )
            outstanding = {
                run_key: len(stages) for run_key, stages in pending_by_run.items()
            }
            for run_key, count in outstanding.items():
                if count == 0:
                    finish_run(run_key, 0.0)

            def on_result(args, result) -> None:
                stage = stage_of[id(args)]
                if traced:
                    result, worker_spans = result
                    emit_spans(worker_spans)
                values, failures = result
                record_solve(stage, values, failures)
                run_key = (stage.figure_id, stage.seed)
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
        for run_key, stages in groups.items():
            figure_id, seed = run_key
            scenario = manifest.scenario_for(figure_id)
            pending = pending_by_run[run_key]
            providers = {
                stage.curve: resolve_provider(
                    stage.curve, milp_time_limit=manifest.milp_time_limit
                )
                for stage in pending
            }
            by_unit = {
                (stage.sweep_value, stage.curve): stage for stage in pending
            }
            run_start = time.perf_counter()
            with span(
                "dag.run", figure=figure_id, seed=seed, blocks=len(pending)
            ), timed_kernels():
                execute_blocks(
                    scenario,
                    generated[run_key]["entropy"],
                    [(stage.sweep_value, stage.curve) for stage in pending],
                    providers,
                    lambda sweep_value, label, values, failures: record_solve(
                        by_unit[(int(sweep_value), label)], values, failures
                    ),
                    milp_time_limit=manifest.milp_time_limit,
                    workers=None,
                    memoize=manifest.memoize_instances,
                )
            finish_run(run_key, time.perf_counter() - run_start)
    report.elapsed_seconds += time.perf_counter() - start
    return report


def run_pipeline(
    pipeline: Pipeline,
    store: ResultStore,
    *,
    artifacts: ArtifactStore | None = None,
    workers: int | None = None,
    resume: bool = True,
    log=None,
) -> PipelineRun:
    """Execute a campaign's full DAG against ``store``.

    Solve stages run (or cache-hit) first through :func:`execute_solves`;
    the cheap aggregate and render stages then fold the cached outputs,
    each skipped when its content key is already stored.  Returns the
    per-kind report plus every figure's render output (per-seed CSVs and
    the cross-seed aggregate), which is exactly what ``microrepro dag
    run`` exports.
    """
    artifacts = artifacts if artifacts is not None else artifact_store_for(store.path)
    report = PipelineReport()
    start = time.perf_counter()
    with span(
        "dag.pipeline", solves=len(pipeline.solves), figures=len(pipeline.renders)
    ):
        execute_solves(
            pipeline,
            list(pipeline.solves.values()),
            store,
            artifacts,
            workers=workers,
            resume=resume,
            report=report,
            log=log,
        )
        for stage in pipeline.aggregates.values():
            _ensure(stage, artifacts, report)
        renders = {
            figure_id: _ensure(stage, artifacts, report)
            for figure_id, stage in pipeline.renders.items()
        }
    artifacts.flush()
    store.flush()
    report.elapsed_seconds = time.perf_counter() - start
    return PipelineRun(report=report, renders=renders)
