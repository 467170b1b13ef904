"""Shard-completeness reporting: which units of a plan are stored.

``microrepro shard status`` answers the fleet-operations question *how
far along is every shard of a distributed campaign?*  Each shard's plan
is checked unit by unit against a store — either the shard's own store
directory (one store per shard) or one merged store covering the whole
fleet — and classified:

``done``
    The cell is stored with at least the plan's repetition count
    (:func:`cell_done`, the same rule that makes a unit a hit for
    :func:`~repro.campaign.execute.execute_solves`).
``partial``
    A cell exists but with fewer repetitions than the plan requires
    (e.g. a store carried over from a smaller trial run); the worker
    will recompute it.
``missing``
    No cell under the unit's key: the work has not run (or its store
    was lost).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import ExperimentError
from ..experiments.store import CellRecord, ResultStore
from .plan import ShardPlan, load_plan

__all__ = [
    "cell_done",
    "ShardStatus",
    "shard_status",
    "load_shard_plans",
    "status_rows",
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


def load_shard_plans(path: str | os.PathLike) -> list[ShardPlan]:
    """Every shard plan of a planner output, in shard order.

    ``path`` is either a planner directory (the ``--out`` of ``shard
    plan``), whose ``shard_*.json`` files must be shards ``0..N-1`` of
    one plan, or a single ``shard_k.json`` (that one shard only).
    """
    target = Path(path)
    if not target.is_dir():
        return [load_plan(target)]
    plans = sorted(
        (load_plan(file) for file in target.glob("shard_*.json")),
        key=lambda shard: shard.index,
    )
    if not plans:
        raise ExperimentError(
            f"{target} holds no shard_*.json; pass a planner directory or one shard file"
        )
    first = plans[0]
    for shard in plans:
        if (shard.manifest, shard.shards, shard.by) != (first.manifest, first.shards, first.by):
            raise ExperimentError(
                f"{target}: {shard.name} and {first.name} come from different plans; "
                "re-run 'shard plan' into an empty directory"
            )
    indices = [shard.index for shard in plans]
    if indices != list(range(first.shards)):
        raise ExperimentError(
            f"{target} holds shard(s) {indices} of a {first.shards}-shard plan; "
            f"expected each of 0..{first.shards - 1} once"
        )
    return plans


def status_payload(rows: list[ShardStatus]) -> dict:
    """Machine-readable status document (``shard status --json``).

    One format shared by ``shard status --json`` and ``dag status
    --json`` so CI tooling parses both: per-shard rows plus campaign-
    level totals and a single ``complete`` verdict.
    """
    return {
        "shards": [row.as_row() for row in rows],
        "units": sum(row.units for row in rows),
        "done": sum(row.done for row in rows),
        "partial": sum(row.partial for row in rows),
        "missing": sum(row.missing for row in rows),
        "complete": all(row.complete for row in rows),
    }


def status_rows(
    plans: list[ShardPlan], store_paths: list[str | os.PathLike]
) -> list[ShardStatus]:
    """Status of every shard against its store.

    One store path per shard pairs them in index order; a single store
    path checks every shard against it (the merged-store case).
    """
    if not plans:
        raise ExperimentError("no shard plans to check")
    if len(store_paths) == 1:
        store_paths = list(store_paths) * len(plans)
    if len(store_paths) != len(plans):
        raise ExperimentError(
            f"{len(plans)} shard plan(s) but {len(store_paths)} store(s); pass one "
            "store per shard (in shard order) or a single merged store"
        )
    rows = []
    stores: dict[str, ResultStore] = {}
    for shard, path in zip(plans, store_paths):
        key = str(path)
        if key not in stores:
            stores[key] = ResultStore(path)
        rows.append(shard_status(shard, stores[key]))
    return rows
