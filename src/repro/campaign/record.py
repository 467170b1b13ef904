"""The campaign a store records in its ``campaign.json``.

``dag run FIGS`` writes it, ``dag run --store DIR`` resumes it, ``dag
status`` checks stores against it and ``store merge`` carries it into
the merged store.  The file holds the manifest's fields; a shard's
store (``dag run FIGS --shard k/K --by AXIS``) adds a ``"shard"`` entry
with the index, the shard count, the axis and the cost model the
partition was priced under, since its units are planned again on every
use.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ExperimentError
from ..experiments.cost import PROVIDER_COSTS, SIZE_EXPONENT
from .plan import CampaignManifest, ShardPlan, plan

__all__ = [
    "CAMPAIGN_FILE",
    "CampaignRecord",
    "ShardSpec",
    "cost_model",
    "kept_record",
    "option_name",
    "read_record",
    "write_record",
]

#: File name of the campaign record in a store directory.
CAMPAIGN_FILE = "campaign.json"


def cost_model() -> dict:
    """The cost model :func:`~repro.campaign.plan.plan` balances shards with."""
    return {"provider_costs": dict(PROVIDER_COSTS), "size_exponent": SIZE_EXPONENT}


def option_name(name: str) -> str:
    """The ``dag run`` option of a manifest field (``max_points`` -> ``--max-points``)."""
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class ShardSpec:
    """Shard ``index`` of ``shards``, grouped along ``by`` and priced with ``costs``."""

    index: int
    shards: int
    by: str = "seed"
    costs: dict = field(default_factory=cost_model)

    @classmethod
    def parse(cls, spec: str, by: str = "seed") -> "ShardSpec":
        """The shard a ``--shard k/K`` value names (``0 <= k < K``)."""
        match = re.fullmatch(r"(\d+)/(\d+)", spec)
        if match is None or not 0 <= int(match[1]) < int(match[2]):
            raise ExperimentError(
                f"bad --shard {spec!r}; expected k/K with 0 <= k < K, e.g. 0/4"
            )
        return cls(int(match[1]), int(match[2]), by)

    def __str__(self) -> str:
        return f"{self.index}/{self.shards}"


@dataclass(frozen=True)
class CampaignRecord:
    """A campaign, and the shard of it a store computes (``None``: all of it)."""

    manifest: CampaignManifest
    shard: ShardSpec | None = None

    def plans(self) -> list[ShardPlan]:
        """Every shard of this record's partition (one, unsharded).  Under
        another cost model than the recorded one this build would tile the
        campaign differently, so a sharded record refuses to plan."""
        if self.shard is None:
            return plan(self.manifest, shards=1)
        if self.shard.costs != cost_model():
            raise ExperimentError(
                f"shard {self.shard} was planned under the cost model "
                f"{self.shard.costs}, but this build prices with {cost_model()}; "
                "finish the campaign with the build that started it"
            )
        return plan(self.manifest, shards=self.shard.shards, by=self.shard.by)

    def plan(self) -> ShardPlan:
        """The units this record's store computes: its shard, or the whole campaign."""
        return self.plans()[0 if self.shard is None else self.shard.index]

    def same_tiling(self, other: "CampaignRecord") -> bool:
        """Whether both records hold shards of one partition of one campaign."""
        def tiling(record: CampaignRecord):
            shard = record.shard
            return record.manifest, None if shard is None else dataclasses.replace(shard, index=0)

        return tiling(self) == tiling(other)

    def options(self) -> dict:
        """Every recorded value but the figures, under the option that sets it."""
        values = {
            option_name(spec.name): getattr(self.manifest, spec.name)
            for spec in dataclasses.fields(CampaignManifest)
            if spec.name != "figures"
        }
        shard = self.shard
        values["--shard"] = None if shard is None else str(shard)
        values["--by"] = None if shard is None else shard.by
        values["cost model"] = None if shard is None else shard.costs
        return values

    def to_dict(self) -> dict:
        """The ``campaign.json`` payload (the manifest's, unsharded)."""
        data = self.manifest.to_dict()
        if self.shard is not None:
            data["shard"] = dataclasses.asdict(self.shard)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignRecord":
        data = dict(data)
        shard = data.pop("shard", None)
        manifest = CampaignManifest.from_dict(data)
        return cls(manifest, None if shard is None else ShardSpec(**shard))


def read_record(store_path: str | os.PathLike) -> CampaignRecord:
    """The campaign recorded in ``store_path``'s ``campaign.json``."""
    path = Path(store_path) / CAMPAIGN_FILE
    if not path.exists():
        raise ExperimentError(
            f"no {CAMPAIGN_FILE} in {store_path}; start a campaign with "
            "'microrepro dag run FIGS --store DIR'"
        )
    return CampaignRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))


def write_record(store_path: str | os.PathLike, record: CampaignRecord) -> None:
    """Write ``record`` as ``store_path``'s ``campaign.json``."""
    (Path(store_path) / CAMPAIGN_FILE).write_text(
        json.dumps(record.to_dict(), indent=2), encoding="utf-8"
    )


def kept_record(
    record: CampaignRecord, store_path: str | os.PathLike
) -> tuple[CampaignRecord, str | None]:
    """The record a run of ``record`` leaves in a store, and a note if it is not ``record``.

    Figures named with the stored campaign's options extend it, stored
    figures first.  A run with other options (a shard, an axis or a
    cost model among them), or with more figures for a sharded record
    (they would re-tile every shard), still runs into the store, whose
    cells serve any campaign, but the stored record stays, and the note
    names what differs.
    """
    if not (Path(store_path) / CAMPAIGN_FILE).exists():
        return record, None
    stored = read_record(store_path)
    stored_options = stored.options()
    differing = [
        f"{name} (stored {stored_options[name]!r}, given {value!r})"
        for name, value in record.options().items()
        if stored_options[name] != value
    ]
    if not differing and stored.shard is not None and stored.manifest != record.manifest:
        differing.append(
            f"figures (stored {stored.manifest.figures!r}, given "
            f"{record.manifest.figures!r}), which would re-tile every shard"
        )
    if differing:
        return stored, (
            f"note: {Path(store_path) / CAMPAIGN_FILE} keeps its campaign; this run "
            f"differs in {'; '.join(differing)}"
        )
    stored_figures = stored.manifest.figures
    added = tuple(figure for figure in record.manifest.figures if figure not in stored_figures)
    manifest = dataclasses.replace(record.manifest, figures=stored_figures + added)
    return dataclasses.replace(record, manifest=manifest), None
