"""Text reports and cross-seed aggregation for experiment results.

The reporting layer turns an :class:`~repro.experiments.runner.ExperimentResult`
into the text report the figure benchmarks write to
``benchmarks/results/``: a header recalling the paper's setting and the
figure's ``expected_shape``, the figure table, and (when an exact
baseline is present) the aggregate normalisation factors.

Multi-seed campaigns store one run per ``(figure, seed)``;
:func:`aggregate_results` / :func:`aggregate_seeds` pool those runs into
one cross-seed result (``microrepro export --aggregate seeds``), with
two confidence-interval modes:

``ci="pooled"`` (default)
    Every sweep point's samples are the union of each seed's
    repetitions — the mean/CI per point treats all ``R x num_seeds``
    draws as one sample.  Tightest intervals, but the CI width assumes
    every draw is independent of the seed structure.
``ci="between"``
    Each seed is first reduced to its per-point mean; the reported CI
    is the Student interval over the ``num_seeds`` seed-level means
    (``df = num_seeds - 1``).  The conservative choice when seeds are
    the unit of replication (e.g. comparing campaigns run with
    different seed sets): the point estimate is unchanged for equal
    per-seed counts, only the interval widens.
"""

from __future__ import annotations

import io
from collections.abc import Sequence

from ..analysis.stats import Series
from ..analysis.tables import format_table
from ..exceptions import ExperimentError
from .figures import FIGURES
from .runner import MIP_LABEL, OTO_LABEL, ExperimentResult
from .store import ResultStore

__all__ = [
    "figure_report",
    "CI_MODES",
    "aggregate_results",
    "aggregate_seeds",
    "aggregate_report",
]


def _normalization_sections(result: ExperimentResult, buffer: io.StringIO) -> None:
    """Append the aggregate-factor tables for every exact baseline present."""
    for reference in (MIP_LABEL, OTO_LABEL):
        if reference in result.series:
            report = result.normalization_report(reference)
            rows = [
                [row["label"], row["mean"], row["ci_low"], row["ci_high"], row["count"]]
                for row in report.as_rows()
            ]
            buffer.write(f"\nAggregate factors relative to {reference}:\n")
            buffer.write(
                format_table(
                    ["heuristic", "factor", "ci_low", "ci_high", "pairs"],
                    rows,
                    float_format="{:.3f}",
                )
            )
            buffer.write("\n")
    if result.milp_failures:
        buffer.write(
            f"\nMIP did not prove optimality on {result.milp_failures} instance(s) "
            "(expected on the larger task counts, cf. Figure 12).\n"
        )


def figure_report(result: ExperimentResult, *, float_format: str = "{:.1f}") -> str:
    """Full plain-text report of one reproduced figure."""
    buffer = io.StringIO()
    spec = FIGURES.get(result.figure_id)
    scenario = result.scenario

    buffer.write(f"== {result.figure_id} ==\n")
    buffer.write(
        f"{result.figure_id}: {scenario.description or scenario.name} "
        f"[{scenario.repetitions} reps x {len(scenario.sweep_values)} points, "
        f"seed={result.seed}, {result.elapsed_seconds:.1f}s]\n"
    )
    if spec is not None and spec.expected_shape:
        buffer.write(f"Paper's expected shape: {spec.expected_shape}\n")
    buffer.write("\n")
    buffer.write(result.to_table(float_format=float_format))
    buffer.write("\n")
    _normalization_sections(result, buffer)
    return buffer.getvalue()


# -- cross-seed aggregation ---------------------------------------------------------


#: Valid cross-seed confidence-interval modes.
CI_MODES = ("pooled", "between")


def _pooled(series_by_seed: list[dict[str, Series]]) -> dict[str, Series]:
    """Union the per-seed sample lists, seed-major at every sweep point."""
    pooled: dict[str, Series] = {}
    for label in series_by_seed[0]:
        out = Series(label=label)
        x_values = series_by_seed[0][label].x_values
        for x in x_values:
            for per_seed in series_by_seed:
                out.extend(x, per_seed[label].samples.get(x, ()))
        pooled[label] = out
    return pooled


def _seed_means(series_by_seed: list[dict[str, Series]]) -> dict[str, Series]:
    """One sample per seed and sweep point: the seed's per-point mean.

    The summaries rendered from the resulting series are then seed-level
    statistics — the CI has ``num_seeds - 1`` degrees of freedom instead
    of treating every repetition as an independent draw.  A seed whose
    point holds no finite sample (e.g. every MIP repetition timed out)
    contributes NaN, which the downstream summaries already ignore.
    """
    reduced: dict[str, Series] = {}
    for label in series_by_seed[0]:
        out = Series(label=label)
        x_values = series_by_seed[0][label].x_values
        for x in x_values:
            for per_seed in series_by_seed:
                out.add(x, per_seed[label].point(x).mean)
        reduced[label] = out
    return reduced


def aggregate_results(
    results: Sequence[ExperimentResult], *, ci: str = "pooled"
) -> ExperimentResult:
    """Pool several same-figure runs (one per seed) into one result.

    Every input must reproduce the same figure under the same scenario
    (equal :meth:`~repro.generators.scenarios.ScenarioConfig.stable_hash`
    and repetition count) with a distinct seed and the same curve set.
    Inputs are pooled in ascending-seed order, so the output is
    independent of the order runs were loaded or computed in; its
    ``seed`` is ``None`` and elapsed/failure counters are summed.

    ``ci`` selects what the output's per-point samples are: the union of
    all seeds' repetitions (``"pooled"``, per-point sample count
    ``repetitions x len(results)``) or one per-seed mean each
    (``"between"``, sample count ``len(results)`` — between-seed CIs).

    Normalised series (Figure 11) are pooled the same way *after* each
    seed's per-instance normalisation — the mean of paired ratios, never
    the ratio of pooled means.
    """
    if ci not in CI_MODES:
        raise ExperimentError(f"unknown CI mode {ci!r}; use one of {CI_MODES}")
    if not results:
        raise ExperimentError("cannot aggregate zero experiment runs")
    seeds = [result.seed for result in results]
    if any(seed is None for seed in seeds):
        raise ExperimentError("cross-seed aggregation requires explicit seeds")
    if len(set(seeds)) != len(seeds):
        raise ExperimentError(f"duplicate seeds in aggregation: {sorted(seeds)}")
    first = results[0]
    for result in results[1:]:
        if result.figure_id != first.figure_id:
            raise ExperimentError(
                f"cannot aggregate runs of different figures: "
                f"{first.figure_id!r} vs {result.figure_id!r}"
            )
        if (
            result.scenario.stable_hash() != first.scenario.stable_hash()
            or result.scenario.repetitions != first.scenario.repetitions
            or list(result.scenario.sweep_values) != list(first.scenario.sweep_values)
        ):
            raise ExperimentError(
                f"cannot aggregate {first.figure_id!r} runs of different scenarios "
                f"(seeds {first.seed} and {result.seed} disagree)"
            )
        if list(result.series) != list(first.series):
            raise ExperimentError(
                f"cannot aggregate {first.figure_id!r} runs with different curves: "
                f"{list(first.series)} vs {list(result.series)}"
            )
    ordered = sorted(results, key=lambda result: result.seed)
    combine = _pooled if ci == "pooled" else _seed_means
    normalized = None
    if all(result.normalized is not None for result in ordered):
        normalized = combine([result.normalized for result in ordered])
    return ExperimentResult(
        figure_id=first.figure_id,
        scenario=first.scenario,
        series=combine([result.series for result in ordered]),
        normalized=normalized,
        seed=None,
        elapsed_seconds=sum(result.elapsed_seconds for result in ordered),
        milp_failures=sum(result.milp_failures for result in ordered),
        normalize_to=first.normalize_to,
    )


def aggregate_seeds(
    store: ResultStore,
    figure_id: str,
    *,
    scenario_hash: str | None = None,
    ci: str = "pooled",
) -> tuple[ExperimentResult, list[int]]:
    """Load and pool every stored seed of one figure run.

    Returns ``(pooled result, seeds)``.  ``scenario_hash`` narrows the
    lookup when the store holds the figure at several scales; ``ci``
    picks pooled or between-seed intervals (see
    :func:`aggregate_results`).
    """
    metas = [
        meta
        for meta in store.runs()
        if meta.figure_id == figure_id
        and (scenario_hash is None or meta.scenario_hash == scenario_hash)
    ]
    if not metas:
        raise ExperimentError(f"no stored run of {figure_id!r} in {store.path}")
    hashes = {meta.scenario_hash for meta in metas}
    if len(hashes) > 1:
        raise ExperimentError(
            f"{figure_id!r} is stored under {len(hashes)} different scenarios "
            f"({', '.join(sorted(hashes))}); pick one with --scenario-hash "
            "(scenario_hash= from Python)"
        )
    seeds = sorted(meta.seed for meta in metas)
    results = [
        store.load_result(figure_id, scenario_hash=meta.scenario_hash, seed=meta.seed)
        for meta in sorted(metas, key=lambda meta: meta.seed)
    ]
    return aggregate_results(results, ci=ci), seeds


def aggregate_report(
    result: ExperimentResult,
    seeds: Sequence[int],
    *,
    float_format: str = "{:.1f}",
    ci: str = "pooled",
) -> str:
    """Plain-text report of a cross-seed pooled result."""
    buffer = io.StringIO()
    scenario = result.scenario
    seed_text = ",".join(str(seed) for seed in seeds)
    if ci == "between":
        sampling = (
            f"[{len(seeds)} seed-level means/point "
            f"({scenario.repetitions} reps each, between-seed CIs) x "
        )
    else:
        sampling = (
            f"[{scenario.repetitions} reps x {len(seeds)} seeds = "
            f"{scenario.repetitions * len(seeds)} samples/point x "
        )
    buffer.write(f"== {result.figure_id} (aggregated over {len(seeds)} seeds) ==\n")
    buffer.write(
        f"{result.figure_id}: {scenario.description or scenario.name} "
        + sampling
        + f"{len(scenario.sweep_values)} points, seeds={seed_text}, "
        f"{result.elapsed_seconds:.1f}s total]\n\n"
    )
    buffer.write(result.to_table(float_format=float_format))
    buffer.write("\n")
    _normalization_sections(result, buffer)
    return buffer.getvalue()
