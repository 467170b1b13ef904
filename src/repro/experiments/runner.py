"""Experiment engine: regenerate any figure of the paper's evaluation.

The engine draws the random instances of a scenario, scores each curve
of the run (:func:`~repro.experiments.figures.resolve_figure`) with a
:mod:`~repro.experiments.providers` provider (heuristics, the exact
MIP, the optimal one-to-one mapping, local-search refinements), and
folds the periods into one :class:`~repro.analysis.Series` per curve,
as stored runs are folded (:meth:`ExperimentResult.from_cells`).  The
output renders the figure as a plain-text table or CSV and computes the
aggregate normalisation factors of Section 7.

Block scheduling
----------------
The engine's unit of work is a *block*: one curve over the ``R``
structurally identical repetitions of one sweep point.
:func:`execute_blocks` is the one executor of blocks, for in-memory
runs and for store-backed campaigns alike.  Serially it samples consecutive
sweep points with the same ``(n, m)`` and the same pending curves — up
to :data:`CROSS_POINT_MAX_ROWS` rows — into one
:class:`~repro.experiments.providers.BlockChunk`, whose single
:class:`~repro.batch.InstanceStack` every curve provider scores in one
vectorized pass.  Heuristics implementing the
:class:`~repro.heuristics.BatchHeuristic` protocol (the H4 family,
H4ls) additionally *solve* the whole chunk lock-step, so neither
solving nor scoring re-enters Python per repetition: the chunk's
H4-family curves, with H4w for H4ls's seeds, share one fused
``solve_batch`` pass, whose per-step cost is paid once for all of
them.  Heuristics without a batch kernel (H1, H2, H3) fall back to the
per-instance solve loop transparently.  The equivalence
tests hold every mode to a per-instance ``Heuristic.solve`` oracle bit
for bit.

Sweep points are independent, so the executor can also fan them out
over a :class:`~repro.workers.WorkerPool` (``workers=N``) through the
work-stealing dispatcher :func:`steal_dispatch`: one queue per run, each
job one sweep point's pending curves, priced as the sum of its blocks'
:func:`repro.experiments.cost.block_cost`.  Each job is one
:func:`~repro.workers.run_traced` call of the serial executor on that
point alone, so a parallel run samples each point once, as a serial run
does.  When tracing is on, the call carries the dispatching trace
context, so the workers' spans join the caller's trace.  Every point
re-derives its random streams from the root seed through
:class:`~repro.simulation.rng.RandomStreamFactory` — whose label
hashing is process-independent — and results are folded
back in the serial iteration order, so a parallel run is bit-for-bit
identical to the serial one for the same seed.  The one caveat is the
MIP curve: the backend solves under a *wall-clock* time limit, so a
cell that proves optimality in a lightly loaded serial run may time out
(and report NaN) when ``workers`` oversubscribes the CPU.  Heuristic
and one-to-one curves are pure functions of the seed and carry the full
guarantee.

Runs are pure in-memory computations.  Persistent, resumable runs go
through :mod:`repro.campaign` (``microrepro dag run``, or ``dag run
--shard k/K`` for one shard of a distributed campaign), whose
:func:`~repro.campaign.execute.execute_solves` hands the blocks its
store lacks to the same :func:`execute_blocks`;
:meth:`~repro.experiments.store.ResultStore.save_result` stores an
in-memory result after the fact.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, replace

import numpy as np

from ..analysis.normalize import NormalizationReport, normalize_series
from ..analysis.stats import Series
from ..analysis.tables import series_table, series_to_csv
from ..exceptions import ExperimentError
from ..generators.scenarios import ScenarioConfig
from ..obs.instrument import timed_kernels
from ..obs.trace import current_context, emit_spans, span
from ..simulation.rng import RandomStreamFactory
from ..workers import WorkerPool, run_traced
from .cost import block_cost
from .figures import ResolvedFigure, resolve_figure
from .providers import (
    MIP_LABEL,
    OTO_LABEL,
    BlockChunk,
    resolve_curves,
    resolve_provider,
)

__all__ = [
    "CROSS_POINT_MAX_ROWS",
    "ExperimentResult",
    "BlockRun",
    "run_figure",
    "run_scenario",
    "execute_blocks",
    "DispatchReport",
    "steal_dispatch",
    "MIP_LABEL",
    "OTO_LABEL",
]

#: Row cap of one chunk: consecutive sweep points with the same
#: ``(n, m)`` are stacked up to this many rows per kernel pass; beyond
#: it the intermediate ``(rows, n, m)`` probe tensors start to crowd
#: cache for no extra amortization.
CROSS_POINT_MAX_ROWS = 512


@dataclass(slots=True)
class ExperimentResult:
    """Everything produced by one experiment run.

    Attributes
    ----------
    figure_id:
        Which figure was reproduced.
    scenario:
        The (possibly scaled-down) scenario that was actually run.
    series:
        ``{curve label: Series}`` of raw periods (ms).
    normalized:
        Same curves divided by the reference curve, when the figure calls
        for normalisation (Figure 11); ``None`` otherwise.
    seed:
        The root seed used for instance generation.
    elapsed_seconds:
        Wall-clock duration of the run.
    milp_failures:
        Number of (point, repetition) pairs where the MIP backend did not
        return a proven optimum (mirrors the paper's observation that the
        exact solver stops scaling around 15 tasks).
    normalize_to:
        The reference curve of ``normalized``, if any.
    """

    figure_id: str
    scenario: ScenarioConfig
    series: dict[str, Series]
    normalized: dict[str, Series] | None
    seed: int | None
    elapsed_seconds: float
    milp_failures: int = 0
    normalize_to: str | None = None

    @classmethod
    def from_cells(
        cls,
        figure: ResolvedFigure,
        seed: int | None,
        cell: Callable[[str, int], tuple[list[float], int]],
        elapsed_seconds: float,
    ) -> "ExperimentResult":
        """Fold a run's blocks, ``cell(curve, sweep_value) -> (values,
        failures)``, in series order, whatever order they were computed in;
        then divide every curve by ``figure.normalize_to``, if set.  The one
        result builder of in-memory and stored runs."""
        series = {label: Series(label=label) for label in figure.curves}
        milp_failures = 0
        for sweep_value in figure.scenario.sweep_values:
            for label in figure.curves:
                values, failures = cell(label, sweep_value)
                series[label].extend(sweep_value, values)
                milp_failures += failures
        normalized = None
        if figure.normalize_to is not None:
            if figure.normalize_to not in series:
                raise ExperimentError(
                    f"cannot normalise to {figure.normalize_to!r}: that curve was not produced"
                )
            reference = series[figure.normalize_to]
            normalized = {
                label: normalize_series(curve, reference)
                for label, curve in series.items()
                if label != figure.normalize_to
            }
        return cls(
            figure_id=figure.figure_id,
            scenario=figure.scenario,
            series=series,
            normalized=normalized,
            seed=seed,
            elapsed_seconds=elapsed_seconds,
            milp_failures=milp_failures,
            normalize_to=figure.normalize_to,
        )

    @property
    def x_name(self) -> str:
        """Name of the sweep variable ("n" or "p")."""
        return "n" if self.scenario.sweep == "tasks" else "p"

    def reported_series(self) -> dict[str, Series]:
        """The curves the figure actually shows (normalised when relevant)."""
        return self.normalized if self.normalized is not None else self.series

    def to_table(self, *, float_format: str = "{:.1f}") -> str:
        """Plain-text rendition of the figure."""
        return series_table(
            self.reported_series(), x_name=self.x_name, float_format=float_format
        )

    def to_csv(self) -> str:
        """CSV rendition of the figure (means plus spread columns)."""
        return series_to_csv(self.reported_series(), x_name=self.x_name)

    def normalization_report(self, reference: str) -> NormalizationReport:
        """Aggregate factors of every curve against ``reference``."""
        if reference not in self.series:
            raise ExperimentError(
                f"no series named {reference!r} in this experiment; available: "
                f"{sorted(self.series)}"
            )
        return NormalizationReport.from_series(self.series, reference)


@dataclass(frozen=True, slots=True)
class BlockRun:
    """The blocks one ``(figure, seed)`` run asks :func:`execute_blocks` for.

    Attributes
    ----------
    figure_id, seed:
        The run's identity (span attributes; the seed of ``None`` draws
        its entropy at random).
    scenario:
        The scenario the blocks belong to.
    entropy:
        The run's root entropy: every block re-derives its streams from it.
    blocks:
        ``(sweep value, curve label)`` pairs, in the run's canonical
        order.
    """

    figure_id: str
    seed: int | None
    scenario: ScenarioConfig
    entropy: int | tuple[int, ...]
    blocks: tuple[tuple[int, str], ...]


def run_scenario(
    scenario: ScenarioConfig,
    *,
    seed: int | None = 0,
    include_milp: bool | None = None,
    milp_time_limit: float = 30.0,
    figure_id: str = "custom",
    normalize_to: str | None = None,
    workers: int | None = None,
    extra_curves: tuple[str, ...] = (),
) -> ExperimentResult:
    """Run one scenario and collect the per-curve period series.

    Parameters
    ----------
    scenario:
        The scenario to run (use :meth:`ScenarioConfig.scaled` to shrink
        the paper's full sweep for quick runs).
    seed:
        Root seed for reproducible instance generation.
    include_milp:
        Override the scenario's MIP flag (useful to skip the expensive
        MIP); the OtO curve follows ``scenario.include_one_to_one``.
    milp_time_limit:
        Per-instance time limit handed to the MIP backend.
    figure_id, normalize_to:
        Reporting metadata (filled automatically by :func:`run_figure`).
    workers:
        Fan the sweep points out over a process pool of this size.
        ``None`` or ``1`` runs serially in-process; any value produces
        bit-for-bit the same heuristic/one-to-one series as the serial
        run for the same seed (MIP cells can additionally time out under
        CPU oversubscription — see the module docstring).
    extra_curves:
        Additional curve labels resolved through
        :func:`~repro.experiments.providers.resolve_provider` (e.g.
        ``"H4ls"`` or ``"H2+ls"``).
    """
    curves = resolve_curves(scenario, include_milp=include_milp, extra_curves=extra_curves)
    figure = ResolvedFigure(figure_id, scenario, tuple(curves), normalize_to)
    return _run(figure, seed, milp_time_limit, workers)


def _run(
    figure: ResolvedFigure, seed: int | None, milp_time_limit: float, workers: int | None
) -> ExperimentResult:
    """Every block of one resolved run, through :func:`execute_blocks`."""
    start = time.perf_counter()
    # Resolve the effective entropy up front: with seed=None a random one
    # is drawn here once, so serial and parallel blocks share it.
    entropy = RandomStreamFactory(seed).entropy
    outcomes: dict[tuple[str, int], tuple[list[float], int]] = {}

    def record(_run, sweep_value: int, label: str, values, failures: int) -> None:
        outcomes[(label, sweep_value)] = (values, failures)

    blocks = tuple(
        (sweep_value, label)
        for sweep_value in figure.scenario.sweep_values
        for label in figure.curves
    )
    execute_blocks(
        [BlockRun(figure.figure_id, seed, figure.scenario, entropy, blocks)],
        record,
        milp_time_limit=milp_time_limit,
        workers=workers,
    )
    return ExperimentResult.from_cells(
        figure,
        seed,
        lambda label, sweep_value: outcomes[(label, sweep_value)],
        time.perf_counter() - start,
    )


def execute_blocks(
    runs: Sequence[BlockRun],
    record: Callable[[BlockRun, int, str, list[float], int], None],
    *,
    milp_time_limit: float = 30.0,
    workers: int | None = None,
) -> int:
    """Compute the blocks of every run: the one block executor.

    :func:`run_scenario` feeds it a figure's full grid, a campaign
    (:func:`repro.campaign.execute.execute_solves`) exactly the blocks
    its store still misses, over any number of runs.  Each completed
    block is handed to ``record(run, sweep_value, label, values,
    failures)`` — on the parallel path in completion order, so callers
    that need a deterministic layout must fold afterwards.

    ``workers`` above 1 dispatches one job per sweep point over a
    process pool (every curve label must round-trip through
    :func:`~repro.experiments.providers.resolve_provider`, since
    workers re-resolve providers by label); otherwise the runs execute
    serially in chunks.  Returns the number of point jobs an idle
    worker stole from another run's queue (0 on the serial path).
    """
    if workers is not None and workers > 1 and any(run.blocks for run in runs):
        return _dispatch(runs, record, milp_time_limit, workers)
    for run in runs:
        with span(
            "dag.run", figure=run.figure_id, seed=run.seed, blocks=len(run.blocks)
        ), timed_kernels():
            _execute_serial(run, record, milp_time_limit)
    return 0


def _chunk_points(scenario: ScenarioConfig, curves: dict[int, list[str]]) -> list[list[int]]:
    """Group consecutive sweep points into chunks: the engine's one chunker.

    Points join the current chunk while they share its ``(n, m)`` and
    its curve list, up to :data:`CROSS_POINT_MAX_ROWS` rows (a single
    point deeper than the cap still forms its own chunk).  Types sweeps
    keep ``(n, m)`` fixed and stack across points; tasks sweeps chunk
    per point.  A resumed run whose points miss different curves splits
    where the curve list changes, so every curve covers its whole chunk.
    """
    chunks: list[list[int]] = []
    chunk_key = None
    for sweep_value, labels in curves.items():
        n, _, m = scenario.dimensions_at(sweep_value)
        key = (n, m, tuple(labels))
        if (
            chunks
            and key == chunk_key
            and (len(chunks[-1]) + 1) * scenario.repetitions <= CROSS_POINT_MAX_ROWS
        ):
            chunks[-1].append(sweep_value)
        else:
            chunks.append([sweep_value])
        chunk_key = key
    return chunks


def _execute_serial(run: BlockRun, record, milp_time_limit: float) -> None:
    """One run's blocks, one sampled chunk and one provider pass per curve.

    Before the curve loop, the chunk solves every greedy H4-family curve
    it carries, and H4w for an H4ls curve's seeds, in one fused
    lock-step pass (:meth:`BlockChunk.sample`, wherever
    :func:`~repro.heuristics.base.solves_in_batch` holds at the chunk's
    depth); those curves' providers then read their blocks from it.
    """
    curves: dict[int, list[str]] = {}
    for sweep_value, label in run.blocks:
        curves.setdefault(sweep_value, []).append(label)
    providers = {
        label: resolve_provider(label, milp_time_limit=milp_time_limit)
        for _, label in run.blocks
    }
    # Sampling is label-keyed in the stream factory, so sampling a chunk
    # up front draws exactly the blocks a per-point loop would.
    streams = RandomStreamFactory(np.random.SeedSequence(run.entropy))
    for points in _chunk_points(run.scenario, curves):
        labels = curves[points[0]]
        greedy = filter(None, (providers[label].greedy for label in labels))
        chunk = BlockChunk.sample(run.scenario, points, streams, greedy)
        for label in labels:
            for block, result in zip(chunk.blocks, providers[label].evaluate(chunk)):
                record(run, block.sweep_value, label, result.values(), result.failures)


@dataclass(slots=True)
class DispatchReport:
    """What one :func:`steal_dispatch` call did."""

    queues: int = 0
    slots: int = 0
    executed: int = 0
    #: Items a slot took from a queue it does not own.
    stolen: int = 0


def _first_completed(futures: list[Future]) -> set[Future]:
    return wait(futures, return_when=FIRST_COMPLETED).done


def steal_dispatch(
    submit: Callable[[object], Future],
    queues: list[list],
    costs: list[list[float]] | None = None,
    *,
    slots: int,
    steal: bool = True,
    on_result=None,
    wait_any: Callable[[list[Future]], set[Future]] = _first_completed,
) -> DispatchReport:
    """Drain ``queues`` through ``slots`` concurrent ``submit`` calls.

    Queue ``q`` is *owned* by slot ``q % slots``; a slot serves its
    owned queues front-first (preserving each queue's canonical order),
    and with ``steal=True`` an idle slot then takes from the **tail** of
    the non-empty queue with the largest remaining estimated cost — the
    straggler — instead of retiring, so no slot idles while a straggler
    queue still holds work.  ``costs`` supplies per-item estimates
    (uniform when omitted); ``on_result(item, result)`` fires in
    completion order.  ``submit(item)`` starts one item and returns its
    ``concurrent.futures`` future (``partial(pool.submit, fn)`` on a
    thread pool in the tests; a worker-pool job for real solves), and
    ``wait_any(futures)`` blocks until one of them is done and returns
    the done ones (:meth:`WorkerPool.wait_any
    <repro.workers.WorkerPool.wait_any>` for a worker pool, whose
    futures only resolve while it reads their pipes).
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
        futures[submit(item)] = (slot, item)
    while futures:
        for future in wait_any(list(futures)):
            slot, item = futures.pop(future)
            result = future.result()
            report.executed += 1
            if on_result is not None:
                on_result(item, result)
            taken = take(slot)
            if taken is not None:
                queue, next_item = taken
                futures[submit(next_item)] = (slot, next_item)
    return report


def _point_runs(run: BlockRun) -> list[BlockRun]:
    """``run`` split into one run per sweep point, in the run's block order."""
    points: dict[int, list[tuple[int, str]]] = {}
    for block in run.blocks:
        points.setdefault(block[0], []).append(block)
    return [replace(run, blocks=tuple(blocks)) for blocks in points.values()]


def _point_job(run: BlockRun, milp_time_limit: float) -> list[tuple]:
    """A worker's job: one sweep point's pending curves, run serially.

    Returns the ``(sweep_value, label, values, failures)`` of each
    block.  The point is sampled once and every curve scores that
    sample, exactly as :func:`_execute_serial` does for a serial run;
    providers are re-resolved by label in the worker, so jobs stay
    picklable.
    """
    blocks: list[tuple] = []
    _execute_serial(run, lambda _run, *block: blocks.append(block), milp_time_limit)
    return blocks


def _dispatch(runs, record, milp_time_limit: float, workers: int) -> int:
    """Every sweep point of every run in one stealing dispatch over a worker pool."""
    # The dispatch span opens before the jobs are submitted, so the
    # context traced jobs carry is the dispatch itself — block-job spans
    # coming back from the workers hang directly off it.
    with span("dag.dispatch", slots=workers) as dispatch_span, WorkerPool(workers) as pool:
        context = current_context()
        queues = [[(run, point) for point in _point_runs(run)] for run in runs]
        costs = [
            [
                sum(block_cost(point.scenario, label, value) for value, label in point.blocks)
                for _, point in queue
            ]
            for queue in queues
        ]

        def submit(job) -> Future:
            _, point = job
            return pool.submit(
                run_traced,
                _point_job,
                (point, milp_time_limit),
                context,
                "dag.block_job",
                sweep_value=point.blocks[0][0],
                curves=len(point.blocks),
            )

        def on_result(job, result) -> None:
            blocks, spans = result
            emit_spans(spans)
            for block in blocks:
                record(job[0], *block)

        dispatch = steal_dispatch(
            submit, queues, costs, slots=workers, on_result=on_result, wait_any=pool.wait_any
        )
        dispatch_span.set(
            runs=len(queues), executed=dispatch.executed, stolen=dispatch.stolen
        )
    return dispatch.stolen


def run_figure(
    figure_id: str,
    *,
    seed: int | None = 0,
    repetitions: int | None = None,
    max_points: int | None = None,
    include_milp: bool | None = None,
    milp_time_limit: float = 30.0,
    workers: int | None = None,
    include_optional: bool = False,
) -> ExperimentResult:
    """Reproduce one figure of the paper.

    Parameters
    ----------
    figure_id:
        One of :func:`repro.experiments.figures.figure_ids` ("fig5" ..
        "fig12").
    repetitions, max_points:
        Optional scaling-down of the paper's full sweep (fewer repetitions
        per point / fewer sweep points), for quick runs and benchmarks.
    workers:
        Size of the block process pool; ``None``/``1`` runs serially
        with identical results for the heuristic and one-to-one curves
        (see :func:`run_scenario` for the MIP time-limit caveat).
    include_optional:
        Also run the figure's optional curves (e.g. the H4ls refinement
        on Figure 6).
    """
    figure = resolve_figure(
        figure_id,
        repetitions=repetitions,
        max_points=max_points,
        include_milp=include_milp,
        include_optional=include_optional,
    )
    return _run(figure, seed, milp_time_limit, workers)
