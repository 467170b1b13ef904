"""Campaign completeness: which units of each shard are stored.

``microrepro dag status --store D1 [D2 ...]`` answers *how far along is
every shard of a campaign?*  Each store names its campaign, and its
shard, in its ``campaign.json``; every unit of each shard is checked
against that shard's store and classified:

``done``
    The cell is stored with at least the campaign's repetition count
    (:func:`cell_done`, the same rule that makes a unit a hit for
    :func:`~repro.campaign.execute.execute_solves`).
``partial``
    A cell exists but with fewer repetitions than the campaign requires
    (e.g. a store carried over from a smaller trial run); the run
    will recompute it.
``missing``
    No cell under the unit's key: the work has not run, or its store
    was lost or not listed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import ExperimentError
from ..experiments.store import CellRecord, ResultStore
from .plan import ShardPlan
from .record import read_record

__all__ = [
    "cell_done",
    "ShardStatus",
    "shard_status",
    "campaign_status",
    "status_payload",
]


def cell_done(record: CellRecord | None, repetitions: int) -> bool:
    """Whether a stored cell holds a unit at ``repetitions`` depth or more."""
    return record is not None and record.repetitions >= repetitions


@dataclass(frozen=True, slots=True)
class ShardStatus:
    """Completeness of one shard plan against one store."""

    shard: int
    shards: int
    store: str
    units: int
    done: int
    partial: int
    missing: int

    @property
    def complete(self) -> bool:
        """True when every unit is stored at full depth."""
        return self.done == self.units

    def as_row(self) -> dict:
        """One catalogue row for the CLI table."""
        return {
            "shard": f"{self.shard}/{self.shards}",
            "store": self.store,
            "units": self.units,
            "done": self.done,
            "partial": self.partial,
            "missing": self.missing,
            "complete": self.complete,
        }


def shard_status(shard: ShardPlan, store: ResultStore) -> ShardStatus:
    """Classify every unit of one shard plan against a store."""
    manifest = shard.manifest
    done = partial = missing = 0
    scenario_info: dict[str, tuple[str, int]] = {}
    for unit in shard.units:
        if unit.figure_id not in scenario_info:
            scenario = manifest.resolve(unit.figure_id).scenario
            scenario_info[unit.figure_id] = (
                scenario.stable_hash(),
                scenario.repetitions,
            )
        scenario_hash, repetitions = scenario_info[unit.figure_id]
        record = store.get_cell(
            unit.figure_id, scenario_hash, unit.seed, unit.curve, unit.sweep_value
        )
        if cell_done(record, repetitions):
            done += 1
        elif record is None:
            missing += 1
        else:
            partial += 1
    return ShardStatus(
        shard=shard.index,
        shards=shard.shards,
        store=str(store.path),
        units=len(shard.units),
        done=done,
        partial=partial,
        missing=missing,
    )


def status_payload(rows: list[ShardStatus]) -> dict:
    """Machine-readable status document (``dag status --json``): per-shard
    rows plus campaign-level totals and a single ``complete`` verdict."""
    return {
        "shards": [row.as_row() for row in rows],
        "units": sum(row.units for row in rows),
        "done": sum(row.done for row in rows),
        "partial": sum(row.partial for row in rows),
        "missing": sum(row.missing for row in rows),
        "complete": all(row.complete for row in rows),
    }


def campaign_status(store_paths: list[str | os.PathLike]) -> list[ShardStatus]:
    """One row per shard of the campaign the stores record, in shard order.

    Every store must record the same campaign, sharded the same way,
    and no two stores may hold one shard.  A shard whose store is not
    listed counts every unit as missing.
    """
    paths = [Path(path) for path in store_paths]
    records = [read_record(path) for path in paths]
    plans = records[0].plans()
    held: dict[int, Path] = {}
    for path, record in zip(paths, records):
        if not record.same_tiling(records[0]):
            raise ExperimentError(
                f"{path} and {paths[0]} record different campaigns; list the "
                "stores of one campaign's shards"
            )
        shard = plans[0 if record.shard is None else record.shard.index]
        if shard.index in held:
            raise ExperimentError(
                f"{held[shard.index]} and {path} both hold {shard.name}; list each "
                "shard's store once"
            )
        held[shard.index] = path
    return [
        shard_status(shard, ResultStore(held[shard.index]))
        if shard.index in held
        else ShardStatus(
            shard.index, shard.shards, "-", len(shard.units), 0, 0, len(shard.units)
        )
        for shard in plans
    ]
