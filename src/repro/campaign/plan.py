"""Campaign manifests and the deterministic shard planner.

A :class:`CampaignManifest` describes one Monte-Carlo campaign: which
figures to reproduce, over which root seeds, at which scale.  The
planner expands it into the campaign's **work units** — one per
``(figure, seed, curve, sweep value)`` block, the exact granularity of
the result store's cell records — and partitions them into ``N``
disjoint :class:`ShardPlan` s:

>>> manifest = CampaignManifest(figures=("fig5",), seeds=(0, 1), repetitions=4)
>>> shards = plan(manifest, shards=2, by="seed")
>>> sum(len(s.units) for s in shards) == len(expand_units(manifest))
True

Planning is a pure function of ``(manifest, shards, by)``: re-planning
on any host reproduces the same partition.  Workers never re-plan,
though: :func:`write_plans` writes one self-contained ``shard_<k>.json``
per shard (manifest plus explicit unit list), and that file is all a
worker runs from (:func:`load_plan`), so a later change to the cost
model cannot re-tile a campaign already handed out.

The ``by`` axis controls what stays together on one shard:

``"seed"``
    Whole seeds (every figure of seed ``s`` on one host) — the natural
    choice for multi-seed campaigns, no cross-host RunMeta sharing.
``"curve"``
    (figure, seed, curve) groups — spreads expensive curves (MIP, the
    binary-search family) across hosts.
``"block"``
    Individual blocks — finest partition, best balance for small
    campaigns.

Groups are priced with the :mod:`repro.experiments.cost` model (a MIP
block runs ~100x a heuristic block) and assigned longest-processing-time-
first to the least-loaded shard, keeping estimated shard *durations*
level.  Ties break on first-appearance order, then shard index, so
re-planning anywhere reproduces the same partition.  The partition
never changes results: merged shard stores are bit for bit a single
host's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..exceptions import ExperimentError
from ..experiments.cost import block_cost
from ..experiments.figures import FIGURES, ResolvedFigure, resolve_figure

__all__ = [
    "CampaignManifest",
    "WorkUnit",
    "ShardPlan",
    "parse_seed_spec",
    "expand_units",
    "group_by_run",
    "plan",
    "write_plans",
    "load_plan",
    "PLAN_AXES",
    "CAMPAIGN_FILE",
]

#: Valid shard-partition axes.
PLAN_AXES = ("seed", "curve", "block")

#: File name of the campaign manifest ``dag run`` records in its store.
CAMPAIGN_FILE = "campaign.json"


def parse_seed_spec(spec: str | int) -> tuple[int, ...]:
    """Expand a seed specification into an explicit tuple.

    Accepts a plain integer, an inclusive range ``"0..9"``, or a
    comma-separated mix of both (``"0..3,7,9"``).
    """
    if isinstance(spec, int):
        return (spec,)
    seeds: list[int] = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            low_text, _, high_text = part.partition("..")
            try:
                low, high = int(low_text), int(high_text)
            except ValueError as exc:
                raise ExperimentError(f"bad seed range {part!r}; expected LO..HI") from exc
            if high < low:
                raise ExperimentError(f"bad seed range {part!r}: {high} < {low}")
            seeds.extend(range(low, high + 1))
        else:
            try:
                seeds.append(int(part))
            except ValueError as exc:
                raise ExperimentError(
                    f"bad seed {part!r}; expected an integer or LO..HI"
                ) from exc
    if not seeds:
        raise ExperimentError(f"seed spec {spec!r} expands to no seeds")
    if len(set(seeds)) != len(seeds):
        raise ExperimentError(f"seed spec {spec!r} repeats a seed")
    return tuple(seeds)


@dataclass(frozen=True, slots=True)
class CampaignManifest:
    """Everything that defines a campaign's results, and nothing else.

    Every field determines *what* is computed: the manifest is the
    plan's identity and must match between planner and workers.  How
    fast a host computes (its ``workers``) is an argument of each
    execution, never recorded here.
    """

    figures: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    repetitions: int | None = None
    max_points: int | None = None
    no_milp: bool = False
    milp_time_limit: float = 30.0
    optional_curves: bool = False

    def __post_init__(self) -> None:
        if not self.figures:
            raise ExperimentError("a campaign needs at least one figure")
        for figure_id in self.figures:
            if figure_id not in FIGURES:
                raise ExperimentError(
                    f"unknown figure {figure_id!r}; known figures: {sorted(FIGURES)}"
                )
        if not self.seeds:
            raise ExperimentError("a campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ExperimentError("campaign seeds must be distinct")

    def resolve(self, figure_id: str) -> ResolvedFigure:
        """What the campaign computes for one figure: scaled scenario,
        curve labels in series order and reference curve
        (:func:`~repro.experiments.figures.resolve_figure`)."""
        return resolve_figure(
            figure_id,
            repetitions=self.repetitions,
            max_points=self.max_points,
            include_milp=False if self.no_milp else None,
            include_optional=self.optional_curves,
        )

    # -- serialisation ----------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready plain-dict representation."""
        data = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        kwargs = dict(data)
        known = {spec.name for spec in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ExperimentError(
                f"unknown campaign manifest fields {sorted(unknown)}; "
                f"expected {sorted(known)}"
            )
        for name in ("figures", "seeds"):
            if name in kwargs and kwargs[name] is not None:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One block of work: a (figure, seed, curve, sweep value) cell.

    The unit of distribution is the unit of storage — computing a unit
    produces exactly one :class:`~repro.experiments.store.CellRecord`,
    which is what makes shard stores mergeable without coordination.
    """

    figure_id: str
    seed: int
    curve: str
    sweep_value: int

    def as_list(self) -> list:
        """JSON-ready ``[figure, seed, curve, sweep value]`` quadruple."""
        return [self.figure_id, self.seed, self.curve, self.sweep_value]

    @classmethod
    def from_list(cls, data: list) -> "WorkUnit":
        figure_id, seed, curve, sweep_value = data
        return cls(str(figure_id), int(seed), str(curve), int(sweep_value))

    def group_key(self, by: str) -> tuple:
        """The shard-assignment key of this unit along one plan axis."""
        if by == "seed":
            return (self.seed,)
        if by == "curve":
            return (self.figure_id, self.seed, self.curve)
        if by == "block":
            return (self.figure_id, self.seed, self.curve, self.sweep_value)
        raise ExperimentError(f"unknown plan axis {by!r}; use one of {PLAN_AXES}")


def expand_units(manifest: CampaignManifest) -> list[WorkUnit]:
    """Every work unit of a campaign, in canonical order.

    Canonical order — figures (manifest order), then seeds, then curves
    (series order), then sweep values — is what makes planning
    deterministic and shard plans reproducible from ``(manifest, N,
    by)`` alone.
    """
    units: list[WorkUnit] = []
    for figure_id in manifest.figures:
        figure = manifest.resolve(figure_id)
        for seed in manifest.seeds:
            for curve in figure.curves:
                for sweep_value in figure.scenario.sweep_values:
                    units.append(WorkUnit(figure_id, seed, curve, int(sweep_value)))
    return units


def group_by_run(units) -> dict[tuple[str, int], list[WorkUnit]]:
    """Units grouped per ``(figure, seed)`` run, preserving their order."""
    groups: dict[tuple[str, int], list[WorkUnit]] = {}
    for unit in units:
        groups.setdefault((unit.figure_id, unit.seed), []).append(unit)
    return groups


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """One worker's slice of a campaign: the manifest plus its units."""

    manifest: CampaignManifest
    index: int
    shards: int
    by: str
    units: tuple[WorkUnit, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        """Display name (``shard 2/4``)."""
        return f"shard {self.index}/{self.shards}"

    def to_dict(self) -> dict:
        return {
            "manifest": self.manifest.to_dict(),
            "shard": self.index,
            "shards": self.shards,
            "by": self.by,
            "units": [unit.as_list() for unit in self.units],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardPlan":
        """Parse a ``shard_k.json`` payload; every unit must be the campaign's."""
        manifest = CampaignManifest.from_dict(data["manifest"])
        units = tuple(WorkUnit.from_list(unit) for unit in data["units"])
        known = set(expand_units(manifest))
        for unit in units:
            if unit not in known:
                raise ExperimentError(f"unit {unit} is not part of this campaign")
        return cls(
            manifest=manifest,
            index=int(data["shard"]),
            shards=int(data["shards"]),
            by=str(data["by"]),
            units=units,
        )


def plan(manifest: CampaignManifest, *, shards: int, by: str = "seed") -> list[ShardPlan]:
    """Partition a campaign into ``shards`` disjoint, covering shard plans.

    Group keys along the ``by`` axis are priced by the calibrated cost
    model, sorted longest first and each assigned to the currently
    least-loaded shard (see module docstring).  Two calls with the same
    arguments produce identical plans on any host, every unit lands on
    exactly one shard, and units keep their canonical order within each
    shard (some shards may be empty when there are fewer groups than
    shards).
    """
    if shards < 1:
        raise ExperimentError(f"shards must be >= 1, got {shards}")
    if by not in PLAN_AXES:
        raise ExperimentError(f"unknown plan axis {by!r}; use one of {PLAN_AXES}")
    units = expand_units(manifest)
    scenarios = {figure_id: manifest.resolve(figure_id).scenario for figure_id in manifest.figures}
    group_cost: dict[tuple, float] = {}
    for unit in units:
        key = unit.group_key(by)
        cost = block_cost(scenarios[unit.figure_id], unit.curve, unit.sweep_value)
        group_cost[key] = group_cost.get(key, 0.0) + cost
    loads = [0.0] * shards
    assignment: dict[tuple, int] = {}
    # Both sorted() and min() keep the first of equals: ties go to the
    # group seen first and to the lowest shard index.
    for key in sorted(group_cost, key=lambda key: -group_cost[key]):
        shard = min(range(shards), key=loads.__getitem__)
        assignment[key] = shard
        loads[shard] += group_cost[key]
    per_shard: list[list[WorkUnit]] = [[] for _ in range(shards)]
    for unit in units:
        per_shard[assignment[unit.group_key(by)]].append(unit)
    return [
        ShardPlan(manifest=manifest, index=index, shards=shards, by=by, units=tuple(units))
        for index, units in enumerate(per_shard)
    ]


def write_plans(
    manifest: CampaignManifest,
    out_dir: str | os.PathLike,
    *,
    shards: int,
    by: str = "seed",
) -> list[tuple[Path, ShardPlan]]:
    """Write one ``shard_<k>.json`` per shard into ``out_dir``.

    Returns ``(path, plan)`` pairs; ship each path to its worker host.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for shard_plan in plan(manifest, shards=shards, by=by):
        path = out / f"shard_{shard_plan.index}.json"
        path.write_text(json.dumps(shard_plan.to_dict(), indent=2) + "\n", encoding="utf-8")
        written.append((path, shard_plan))
    return written


def load_plan(path: str | os.PathLike) -> ShardPlan:
    """Load the shard plan of one ``shard_<k>.json`` written by :func:`write_plans`."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ExperimentError(f"cannot read plan file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"{path} is not a valid plan file: {exc}") from exc
    if not isinstance(raw, dict) or "units" not in raw:
        raise ExperimentError(
            f"{path} is not a shard plan; pass a shard_<k>.json written by 'shard plan'"
        )
    return ShardPlan.from_dict(raw)
