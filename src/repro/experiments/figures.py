"""Definitions of the paper's figures (Section 7) as scenario configs.

Every entry maps one figure of the evaluation to a
:class:`~repro.generators.ScenarioConfig`:

=========  =======================================================================
Figure     Setting
=========  =======================================================================
Figure 5   specialized, m=50,  p=5, n = 50..150, all six heuristics
Figure 6   specialized, m=10,  p=2, n = 10..100, H2/H3/H4/H4w
Figure 7   specialized, m=100, p=5, n = 100..200, H2/H3/H4w
Figure 8   specialized, m=10,  p=5, n = 10..100, failure rates up to 10%
Figure 9   one-to-one,  m=100, n=100, f[i,u]=f[i], p = 20..100, + optimal OtO
Figure 10  specialized, m=5,   p=2, n = 2..16, all heuristics + MIP
Figure 11  the Figure 10 data normalised by the MIP optimum
Figure 12  specialized, m=9,   p=4, n = 5..20, H2/H3/H4/H4w + MIP
=========  =======================================================================

Figure 11 shares Figure 10's scenario; the normalisation is performed by
the experiment runner (``normalize_to="MIP"``).

:func:`resolve_figure` is the one place a figure becomes what a run
computes, for ``run_figure`` and campaigns alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ExperimentError
from ..generators.platforms import HIGH_FAILURE_F_RANGE
from ..generators.scenarios import ScenarioConfig
from .providers import resolve_curves

__all__ = ["FigureSpec", "FIGURES", "figure_ids", "ResolvedFigure", "resolve_figure"]


@dataclass(frozen=True, slots=True)
class FigureSpec:
    """One figure of the paper: a scenario plus reporting options.

    Attributes
    ----------
    figure_id:
        Identifier ("fig5" .. "fig12").
    scenario:
        The random-instance scenario behind the figure.
    normalize_to:
        When set ("MIP" or "OtO"), report series divided by that
        reference's per-instance value (Figure 11).
    expected_shape:
        Free-text reminder of the qualitative result the paper reports,
        printed in the figure's report header (the ``.txt`` files of
        ``benchmarks/results/``) and checked (loosely) by the benchmark
        assertions.
    optional_curves:
        Extra curve labels (resolved through
        :func:`repro.experiments.providers.resolve_provider`) that are
        *not* part of the paper's figure but are worth comparing against
        it — run with ``run_figure(..., include_optional=True)`` or
        ``microrepro run --optional-curves``.
    """

    figure_id: str
    scenario: ScenarioConfig
    normalize_to: str | None = None
    expected_shape: str = ""
    optional_curves: tuple[str, ...] = ()


def _fig5() -> FigureSpec:
    return FigureSpec(
        figure_id="fig5",
        scenario=ScenarioConfig(
            name="fig5",
            num_machines=50,
            num_types=5,
            sweep="tasks",
            sweep_values=tuple(range(50, 151, 10)),
            repetitions=30,
            heuristics=("H1", "H2", "H3", "H4", "H4w", "H4f"),
            description="Specialized mappings, m=50 machines, p=5 types, n=50..150 tasks.",
        ),
        expected_shape="H1 and H4f clearly worst; H2/H3/H4/H4w close together and much better.",
    )


def _fig6() -> FigureSpec:
    return FigureSpec(
        figure_id="fig6",
        scenario=ScenarioConfig(
            name="fig6",
            num_machines=10,
            num_types=2,
            sweep="tasks",
            sweep_values=tuple(range(10, 101, 10)),
            repetitions=30,
            heuristics=("H2", "H3", "H4", "H4w"),
            description="Specialized mappings, m=10, p=2, n=10..100.",
        ),
        expected_shape="H4 slightly below (better than) the others on the small platform.",
        optional_curves=("H4ls",),
    )


def _fig7() -> FigureSpec:
    return FigureSpec(
        figure_id="fig7",
        scenario=ScenarioConfig(
            name="fig7",
            num_machines=100,
            num_types=5,
            sweep="tasks",
            sweep_values=tuple(range(100, 201, 10)),
            repetitions=30,
            heuristics=("H2", "H3", "H4w"),
            description="Specialized mappings on a large platform, m=100, p=5, n=100..200.",
        ),
        expected_shape="H4w better than H2 and H3 on the large platform.",
    )


def _fig8() -> FigureSpec:
    return FigureSpec(
        figure_id="fig8",
        scenario=ScenarioConfig(
            name="fig8",
            num_machines=10,
            num_types=5,
            sweep="tasks",
            sweep_values=tuple(range(10, 101, 10)),
            repetitions=30,
            f_range=HIGH_FAILURE_F_RANGE,
            heuristics=("H1", "H2", "H3", "H4", "H4w", "H4f"),
            description="High failure rates (0..10%), m=10, p=5, n=10..100.",
        ),
        expected_shape="Periods increase dramatically with n; H2 performs best.",
    )


def _fig9() -> FigureSpec:
    return FigureSpec(
        figure_id="fig9",
        scenario=ScenarioConfig(
            name="fig9",
            num_machines=100,
            num_types=0,  # unused: the sweep variable is the number of types
            num_tasks=100,
            sweep="types",
            sweep_values=tuple(range(20, 101, 10)),
            repetitions=100,
            task_dependent_failures=True,
            heuristics=("H2", "H3", "H4w"),
            include_one_to_one=True,
            description=(
                "One-to-one comparison: m=100, n=100, f[i,u]=f[i], p=20..100; "
                "heuristics vs the optimal one-to-one mapping (OtO)."
            ),
        ),
        expected_shape=(
            "H4w closest to the optimum (~1.28x), H3 ~1.75x, H2 ~1.84x; all curves "
            "converge as p approaches m."
        ),
    )


def _fig10() -> FigureSpec:
    return FigureSpec(
        figure_id="fig10",
        scenario=ScenarioConfig(
            name="fig10",
            num_machines=5,
            num_types=2,
            sweep="tasks",
            sweep_values=tuple(range(2, 17, 2)),
            repetitions=30,
            heuristics=("H1", "H2", "H3", "H4", "H4w", "H4f"),
            include_milp=True,
            description="Small instances, m=5, p=2, n=2..16; heuristics vs the exact MIP.",
        ),
        expected_shape="H4w best heuristic, H2/H4 close; MIP below every heuristic.",
    )


def _fig11() -> FigureSpec:
    spec = _fig10()
    return FigureSpec(
        figure_id="fig11",
        scenario=spec.scenario,
        normalize_to="MIP",
        expected_shape="Normalised factors: H4w ~1.33, H3 ~1.58, H2 ~1.73 over the MIP.",
    )


def _fig12() -> FigureSpec:
    return FigureSpec(
        figure_id="fig12",
        scenario=ScenarioConfig(
            name="fig12",
            num_machines=9,
            num_types=4,
            sweep="tasks",
            sweep_values=tuple(range(5, 21, 3)),
            repetitions=30,
            heuristics=("H2", "H3", "H4", "H4w"),
            include_milp=True,
            description="m=9, p=4, n=5..20; the MIP stops solving beyond ~15 tasks.",
        ),
        expected_shape=(
            "H4w best heuristic; the MIP tracks below the heuristics until it times out "
            "on the larger task counts."
        ),
    )


#: All figures of the evaluation section, keyed by identifier.
FIGURES: dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        _fig5(),
        _fig6(),
        _fig7(),
        _fig8(),
        _fig9(),
        _fig10(),
        _fig11(),
        _fig12(),
    )
}


def figure_ids() -> list[str]:
    """Identifiers of every reproduced figure, in paper order."""
    return list(FIGURES)


@dataclass(frozen=True, slots=True)
class ResolvedFigure:
    """What one run computes, but for its seed: the (scaled) scenario,
    the curve labels in series order and the reference curve, if any."""

    figure_id: str
    scenario: ScenarioConfig
    curves: tuple[str, ...]
    normalize_to: str | None = None


def resolve_figure(
    figure_id: str,
    *,
    repetitions: int | None = None,
    max_points: int | None = None,
    include_milp: bool | None = None,
    include_optional: bool = False,
) -> ResolvedFigure:
    """A figure scaled down (:meth:`ScenarioConfig.scaled`), with the MIP
    flag overridden and the optional curves added on request."""
    try:
        spec = FIGURES[figure_id]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown figure {figure_id!r}; known figures: {sorted(FIGURES)}"
        ) from exc
    scenario = spec.scenario.scaled(repetitions=repetitions, max_points=max_points)
    curves = resolve_curves(
        scenario,
        include_milp=include_milp,
        extra_curves=spec.optional_curves if include_optional else (),
    )
    return ResolvedFigure(figure_id, scenario, tuple(curves), spec.normalize_to)
