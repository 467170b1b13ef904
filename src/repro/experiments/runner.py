"""Experiment engine: regenerate any figure of the paper's evaluation.

The engine draws the random instances of a scenario, resolves the
figure's curves to :mod:`~repro.experiments.providers` (heuristics, the
exact MIP, the optimal one-to-one mapping, local-search refinements),
and collects the resulting periods into one
:class:`~repro.analysis.Series` per curve.  The output
:class:`ExperimentResult` renders the figure as a plain-text table or
CSV and computes the aggregate normalisation factors of Section 7.

Block scheduling
----------------
The engine groups the ``R`` structurally identical repetitions of each
sweep point into one :class:`~repro.batch.InstanceStack` and hands
whole blocks to the curve providers, which score each curve's ``R``
mappings in a single vectorized pass instead of re-entering the scalar
evaluator per cell.  Heuristics implementing the
:class:`~repro.heuristics.BatchHeuristic` protocol (the H4 family,
H4ls) additionally *solve* the whole block in one lock-step
``solve_batch`` call — both on the serial path and inside each pool
worker — so neither solving nor scoring re-enters Python per
repetition; heuristics without a batch kernel (H1, H2, H3) fall back to
the per-instance solve loop transparently.  The equivalence tests hold
every mode to a per-instance ``Heuristic.solve`` oracle bit for bit.

Repetition blocks are independent, so the engine can fan the (sweep
point, curve) blocks out over a process pool (``workers=N``) through
the campaign DAG's work-stealing dispatcher
(:func:`repro.dag.scheduler.steal_dispatch`, imported only on that
path).  Every block re-derives its random streams from the root seed
through :class:`~repro.simulation.rng.RandomStreamFactory` — whose
label hashing is process-independent — and results are folded back in
the serial iteration order, so a parallel run is bit-for-bit identical
to the serial one for the same seed.  The one caveat is the MIP curve:
the backend solves under a *wall-clock* time limit, so a cell that
proves optimality in a lightly loaded serial run may time out (and
report NaN) when ``workers`` oversubscribes the CPU.  Heuristic and
one-to-one curves are pure functions of the seed and carry the full
guarantee.

Runs are pure in-memory computations.  Persistent, resumable runs go
through the campaign DAG (``microrepro dag run``, or ``shard run`` for
one shard of a distributed campaign);
:meth:`~repro.experiments.store.ResultStore.save_result` stores an
in-memory result after the fact.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..analysis.normalize import NormalizationReport, normalize_series
from ..analysis.stats import Series
from ..analysis.tables import series_table, series_to_csv
from ..exceptions import ExperimentError
from ..generators.scenarios import ScenarioConfig
from ..simulation.rng import RandomStreamFactory
from .figures import FIGURES, FigureSpec
from .providers import (
    CROSS_POINT_MAX_ROWS,
    MIP_LABEL,
    OTO_LABEL,
    CellBlock,
    resolve_curves,
    resolve_provider,
)

__all__ = [
    "ExperimentResult",
    "run_figure",
    "run_scenario",
    "execute_blocks",
    "MIP_LABEL",
    "OTO_LABEL",
]


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
    """

    figure_id: str
    scenario: ScenarioConfig
    series: dict[str, Series]
    normalized: dict[str, Series] | None
    seed: int | None
    elapsed_seconds: float
    milp_failures: int = 0

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


def _evaluate_block_job(args) -> tuple[list[float], int]:
    """Worker entry point: sample one block and score one curve on it.

    Providers are re-resolved by label in the worker so jobs stay
    picklable; instance sampling honours ``memoize`` through the
    worker-local cache, so several curve jobs at the same sweep point
    re-draw each instance at most once per worker process.
    """
    scenario, sweep_value, label, entropy, milp_time_limit, memoize = args
    streams = RandomStreamFactory(np.random.SeedSequence(entropy))
    block = CellBlock.sample(scenario, sweep_value, streams, memoize=memoize)
    provider = resolve_provider(label, milp_time_limit=milp_time_limit)
    result = provider.evaluate_block(block)
    return result.values(), result.failures


def run_scenario(
    scenario: ScenarioConfig,
    *,
    seed: int | None = 0,
    include_milp: bool | None = None,
    include_one_to_one: bool | None = None,
    milp_time_limit: float = 30.0,
    figure_id: str = "custom",
    normalize_to: str | None = None,
    workers: int | None = None,
    memoize_instances: bool = False,
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
    include_milp, include_one_to_one:
        Override the scenario's flags (useful to skip the expensive MIP).
    milp_time_limit:
        Per-instance time limit handed to the MIP backend.
    figure_id, normalize_to:
        Reporting metadata (filled automatically by :func:`run_figure`).
    workers:
        Fan the (sweep point, curve) blocks out over a process pool of
        this size.  ``None`` or ``1`` runs serially in-process; any value
        produces bit-for-bit the same heuristic/one-to-one series as the
        serial run for the same seed (MIP cells can additionally time out
        under CPU oversubscription — see the module docstring).
    memoize_instances:
        Cache sampled instances under their (scenario, cell, seed) key.
        Honoured on the serial path *and*, per worker process, on the
        parallel path — each worker keeps its own cache, so curve jobs
        that share a sweep point re-draw each instance at most once per
        worker.  Memoized instances are bit-identical, so results never
        depend on the flag.
    extra_curves:
        Additional curve labels resolved through
        :func:`~repro.experiments.providers.resolve_provider` (e.g.
        ``"H4ls"`` or ``"H2+ls"``).
    """
    start = time.perf_counter()
    # Resolve the effective entropy up front: with seed=None a random one
    # is drawn here once, so serial and parallel blocks share it.
    entropy = RandomStreamFactory(seed).entropy
    use_milp = scenario.include_milp if include_milp is None else include_milp
    use_oto = (
        scenario.include_one_to_one if include_one_to_one is None else include_one_to_one
    )
    providers = resolve_curves(
        scenario,
        use_milp=use_milp,
        use_oto=use_oto,
        milp_time_limit=milp_time_limit,
        extra_curves=extra_curves,
    )
    labels = [provider.label for provider in providers]

    outcomes: dict[tuple[int, str], tuple[list[float], int]] = {}

    def record(sweep_value: int, label: str, values: list[float], failures: int) -> None:
        outcomes[(sweep_value, label)] = (values, failures)

    execute_blocks(
        scenario,
        entropy,
        [(sweep_value, label) for sweep_value in scenario.sweep_values for label in labels],
        dict(zip(labels, providers)),
        record,
        milp_time_limit=milp_time_limit,
        workers=workers,
        memoize=memoize_instances,
    )

    # Fold in the fixed (sweep value, curve) order so series contents do
    # not depend on worker scheduling.
    series: dict[str, Series] = {label: Series(label=label) for label in labels}
    milp_failures = 0
    for sweep_value in scenario.sweep_values:
        for label in labels:
            values, failures = outcomes[(sweep_value, label)]
            series[label].extend(sweep_value, values)
            milp_failures += failures

    normalized: dict[str, Series] | None = None
    if normalize_to is not None:
        if normalize_to not in series:
            raise ExperimentError(
                f"cannot normalise to {normalize_to!r}: that curve was not produced"
            )
        reference = series[normalize_to]
        normalized = {
            label: normalize_series(curve, reference)
            for label, curve in series.items()
            if label != normalize_to
        }

    return ExperimentResult(
        figure_id=figure_id,
        scenario=scenario,
        series=series,
        normalized=normalized,
        seed=seed,
        elapsed_seconds=time.perf_counter() - start,
        milp_failures=milp_failures,
    )


def execute_blocks(
    scenario: ScenarioConfig,
    entropy,
    pending: list[tuple[int, str]],
    provider_by_label: dict[str, "object"],
    record,
    *,
    milp_time_limit: float = 30.0,
    workers: int | None = None,
    memoize: bool = False,
) -> None:
    """Compute a set of (sweep value, curve label) blocks, in any subset.

    The shared execution core of the block engine: :func:`run_scenario`
    feeds it a figure's full grid, the campaign DAG's serial solve phase
    (:func:`repro.dag.scheduler.execute_solves`) exactly the blocks a
    run still misses.  Each completed block is handed to
    ``record(sweep_value, label, values, failures)`` — on the parallel
    path in completion order, so callers that need a deterministic
    layout must fold afterwards.

    ``provider_by_label`` supplies the resolved providers for the serial
    path; the parallel path re-resolves providers by label in each
    worker (jobs must stay picklable), which is why every curve label
    must round-trip through
    :func:`~repro.experiments.providers.resolve_provider`.
    """
    if workers is not None and workers > 1 and pending:
        # Imported here: the serial path (and every import of this
        # module) stays free of the DAG and campaign packages.
        from ..dag.scheduler import steal_dispatch

        jobs = [
            (scenario, sweep_value, label, entropy, milp_time_limit, memoize)
            for sweep_value, label in pending
        ]

        def on_result(job, result) -> None:
            values, failures = result
            record(job[1], job[2], values, failures)

        with ProcessPoolExecutor(max_workers=workers) as pool:
            steal_dispatch(
                pool,
                _evaluate_block_job,
                [jobs[slot::workers] for slot in range(workers)],
                slots=workers,
                on_result=on_result,
            )
        return

    by_point: dict[int, list[str]] = {}
    for sweep_value, label in pending:
        by_point.setdefault(sweep_value, []).append(label)
    streams = RandomStreamFactory(np.random.SeedSequence(entropy))
    # Chunk consecutive points with the same predicted (n, m) so a
    # provider can stack them across sweep points into one kernel pass
    # (types sweeps share the chain across points; tasks sweeps chunk
    # per point).  Sampling is label-keyed in the stream factory, so
    # sampling a chunk up front draws exactly the blocks the per-point
    # loop would.  Providers re-verify the true structural signature
    # before stacking, so the prediction only affects grouping
    # efficiency, never results.
    chunks: list[list[int]] = []
    current: list[int] = []
    current_key: tuple[int, int] | None = None
    rows = 0
    for sweep_value in by_point:
        n, _, m = scenario.dimensions_at(sweep_value)
        key = (n, m)
        if current and (
            key != current_key or rows + scenario.repetitions > CROSS_POINT_MAX_ROWS
        ):
            chunks.append(current)
            current, rows = [], 0
        current_key = key
        current.append(sweep_value)
        rows += scenario.repetitions
    if current:
        chunks.append(current)
    for chunk in chunks:
        # One sampling pass serves every curve of every chunked point.
        blocks = {
            sweep_value: CellBlock.sample(scenario, sweep_value, streams, memoize=memoize)
            for sweep_value in chunk
        }
        chunk_labels: list[str] = []
        for sweep_value in chunk:
            for label in by_point[sweep_value]:
                if label not in chunk_labels:
                    chunk_labels.append(label)
        for label in chunk_labels:
            points = [v for v in chunk if label in by_point[v]]
            results = provider_by_label[label].evaluate_blocks(
                [blocks[v] for v in points]
            )
            for sweep_value, result in zip(points, results):
                record(sweep_value, label, result.values(), result.failures)


def run_figure(
    figure_id: str,
    *,
    seed: int | None = 0,
    repetitions: int | None = None,
    max_points: int | None = None,
    include_milp: bool | None = None,
    milp_time_limit: float = 30.0,
    workers: int | None = None,
    memoize_instances: bool = False,
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
    memoize_instances:
        Cache sampled instances per process (worth enabling on parallel
        block runs, where several curve jobs share each sweep point's
        instances — see :func:`run_scenario`).
    include_optional:
        Also run the figure's optional curves (e.g. the H4ls refinement
        on Figure 6).
    """
    try:
        spec: FigureSpec = FIGURES[figure_id]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown figure {figure_id!r}; known figures: {sorted(FIGURES)}"
        ) from exc
    scenario = spec.scenario.scaled(repetitions=repetitions, max_points=max_points)
    return run_scenario(
        scenario,
        seed=seed,
        include_milp=include_milp,
        milp_time_limit=milp_time_limit,
        figure_id=figure_id,
        normalize_to=spec.normalize_to,
        workers=workers,
        memoize_instances=memoize_instances,
        extra_curves=spec.optional_curves if include_optional else (),
    )
