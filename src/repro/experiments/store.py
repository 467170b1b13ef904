"""Persistent, resumable store for experiment results.

A :class:`ResultStore` is a directory holding one **append-only**
JSON-lines file (``results.jsonl``), its only on-disk record.  Every
completed ``(figure, scenario hash, seed, curve, sweep value)`` block
lands as one line the moment it finishes, so
an interrupted campaign loses at most the block in flight; resuming it
(``microrepro dag run``, with or without its figures) skips every
stored block and only computes the remainder.

The store is a campaign's only record.  A cell holding at least a
run's repetitions is the cache hit for its work unit
(:func:`repro.campaign.execute.execute_solves`), and every export — the
per-seed CSVs and the cross-seed aggregate of ``dag run
--export-dir`` and ``export`` — is derived on read from the cells
(:meth:`ResultStore.load_result`).

The append/scan machinery itself is format-agnostic and lives in
:class:`repro.jsonl_store.JsonlStore`: a directory with one append-only
JSONL file of ``{"kind": ..., "data": {...}}`` records, scanned on open
into an in-memory byte-offset index over the kinds a subclass declares.
:class:`ResultStore` builds the
experiment store on it (kinds ``cell`` and ``meta``); the solve
service's persistent cache tier
(:class:`repro.service.cache.SolveCacheStore`) reuses the same base for
its response records.

Record kinds
------------
``cell``
    One curve's periods over the repetitions of one sweep point
    (:class:`CellRecord`).  The primary unit of resumption.
``meta``
    One experiment run's header (:class:`RunMeta`): the full scenario
    config, seed, curve order and reporting options — everything needed
    to rebuild an :class:`~repro.experiments.runner.ExperimentResult`
    from its cells (:meth:`ResultStore.load_result`).

Opening a store scans the records file once, mapping record keys to
byte offsets; nothing else is written, so there is nothing to flush or
close.  A crash-truncated final line is recovered when its JSON is
complete (only the newline was lost) and ignored otherwise.  Records are
append-only: re-putting a key appends a new line and the index points at
the newest one.

Append-only cell records are also what makes stores *mergeable*:
:meth:`ResultStore.merge` unions the shard stores of a distributed
campaign back into one (see :mod:`repro.campaign`), with key-level
conflict detection and idempotent re-merge.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace

from ..backend import get_backend
from ..exceptions import ExperimentError
from ..generators.scenarios import ScenarioConfig
from ..jsonl_store import JsonlStore
from .figures import ResolvedFigure
from .providers import MIP_LABEL
from .runner import ExperimentResult

__all__ = ["CellRecord", "RunMeta", "ResultStore", "MergeReport"]


@dataclass(frozen=True, slots=True)
class CellRecord:
    """One stored (figure, scenario, seed, curve, sweep point) block.

    ``values`` holds the per-repetition periods in repetition order —
    the order the engine and the per-cell runner both produce — so a
    stored block with ``repetitions >= R`` can serve a run that needs
    only its first ``R`` repetitions.
    """

    figure_id: str
    scenario_hash: str
    seed: int
    curve: str
    sweep_value: int
    repetitions: int
    values: list[float]
    failures: int = 0

    def __post_init__(self) -> None:
        if len(self.values) != self.repetitions:
            raise ExperimentError(
                f"cell record carries {len(self.values)} values for "
                f"{self.repetitions} repetitions"
            )

    @property
    def key(self) -> tuple[str, str, int, str, int]:
        """The record's identity within a store."""
        return (
            self.figure_id,
            self.scenario_hash,
            self.seed,
            self.curve,
            self.sweep_value,
        )

    def sliced(self, repetitions: int) -> tuple[list[float], int]:
        """``(values, failures)`` restricted to the first ``repetitions``.

        A record serving a run with fewer repetitions recounts its
        failures from the slice's NaNs — exact for the MIP curve, whose
        NaNs are precisely its unproven repetitions (the only curve that
        reports failures).  Requires ``repetitions <= self.repetitions``.
        """
        if repetitions > self.repetitions:
            raise ExperimentError(
                f"cell record holds {self.repetitions} repetitions, "
                f"{repetitions} requested"
            )
        values = self.values[:repetitions]
        if repetitions == self.repetitions:
            return values, self.failures
        failures = (
            sum(1 for v in values if math.isnan(v)) if self.failures else 0
        )
        return values, failures


@dataclass(frozen=True, slots=True)
class RunMeta:
    """Header of one experiment run (everything but the cell data)."""

    figure_id: str
    scenario_hash: str
    seed: int
    scenario: dict
    curves: list[str]
    normalize_to: str | None = None
    elapsed_seconds: float = 0.0
    #: Kernel set the run was computed with (informational, ``"numpy"``).
    #: Stored run headers carry it and load through ``RunMeta(**data)``,
    #: so it stays a field.
    backend: str | None = None

    @classmethod
    def for_run(cls, figure: ResolvedFigure, seed: int, elapsed_seconds: float) -> "RunMeta":
        """The header of one run of ``figure``: the one header builder, for
        campaigns and :meth:`ResultStore.save_result` alike."""
        return cls(
            figure_id=figure.figure_id,
            scenario_hash=figure.scenario.stable_hash(),
            seed=seed,
            scenario=figure.scenario.to_dict(),
            curves=list(figure.curves),
            normalize_to=figure.normalize_to,
            elapsed_seconds=elapsed_seconds,
            backend=get_backend().name,
        )

    @property
    def key(self) -> tuple[str, str, int]:
        """The run's identity within a store."""
        return (self.figure_id, self.scenario_hash, self.seed)


def _key_str(parts: tuple) -> str:
    return "|".join(str(part) for part in parts)


def _values_equal(left: list[float], right: list[float]) -> bool:
    """Elementwise equality treating NaN as equal to NaN.

    Cell values are bit-for-bit reproducible floats except for the MIP
    curve's timeout NaNs; two stores that both recorded "no proven
    optimum" for a repetition agree, which plain ``==`` would deny.
    """
    if len(left) != len(right):
        return False
    return all(
        a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(left, right)
    )


def _cells_equal(left: CellRecord, right: CellRecord) -> bool:
    """Whether two records of the same key carry identical results."""
    return (
        left.repetitions == right.repetitions
        and left.failures == right.failures
        and _values_equal(left.values, right.values)
    )


def _metas_compatible(left: RunMeta, right: RunMeta) -> bool:
    """Same-run headers may differ only in ``elapsed_seconds``/``backend``.

    Shards of one distributed campaign each record their own wall-clock,
    and ``backend`` is informational (every kernel set it has named
    solves bit-for-bit identically), but they must agree on everything
    that defines the run (scenario, curve order, normalisation).
    """
    return replace(left, elapsed_seconds=0.0, backend=None) == replace(
        right, elapsed_seconds=0.0, backend=None
    )


@dataclass(slots=True)
class MergeReport:
    """What one :meth:`ResultStore.merge` call did.

    Attributes
    ----------
    sources:
        Number of source stores merged.
    cells_added, cells_skipped:
        New cell records appended / identical records already present.
    metas_added, metas_updated, metas_skipped:
        New run headers / headers rewritten with a larger
        ``elapsed_seconds`` / headers already present.
    """

    sources: int = 0
    cells_added: int = 0
    cells_skipped: int = 0
    metas_added: int = 0
    metas_updated: int = 0
    metas_skipped: int = 0

    def summary(self) -> str:
        """One-line report for the CLI."""
        return (
            f"merged {self.sources} store(s): {self.cells_added} cell(s) added, "
            f"{self.cells_skipped} identical skipped; {self.metas_added} run "
            f"header(s) added, {self.metas_updated} updated"
        )


@dataclass(slots=True)
class _MergePlan:
    """Staged writes of one merge (nothing touches disk until it is clean)."""

    cells: dict[str, CellRecord] = field(default_factory=dict)
    metas: dict[str, RunMeta] = field(default_factory=dict)
    conflicts: list[str] = field(default_factory=list)
    report: MergeReport = field(default_factory=MergeReport)



class ResultStore(JsonlStore):
    """Append-only on-disk store of experiment cells and run headers.

    Parameters
    ----------
    path:
        Directory of the store (created if missing).

    Notes
    -----
    The store keeps only byte offsets in memory, scanned from
    ``results.jsonl`` on open; record payloads are read back on demand.
    Durability, torn-tail recovery and the read-back key check come from
    :class:`JsonlStore`; this class contributes the record
    schema (:class:`CellRecord` / :class:`RunMeta`), the
    :class:`~repro.experiments.runner.ExperimentResult` round-trip and
    shard-store merging.
    """

    KINDS = ("cell", "meta")

    def __init__(self, path: str | os.PathLike):
        super().__init__(path)
        # Aliases onto the generic per-kind index (same dict objects).
        self._cells = self._index["cell"]
        self._meta = self._index["meta"]

    def _key_of(self, kind: str, data: dict) -> str:
        if kind == "cell":
            return _key_str(CellRecord(**data).key)
        return _key_str(RunMeta(**data).key)

    # -- cells ------------------------------------------------------------------
    def put_cell(self, record: CellRecord) -> None:
        """Append one completed block (last write wins on re-put)."""
        self._put("cell", _key_str(record.key), asdict(record))

    def get_cell(
        self,
        figure_id: str,
        scenario_hash: str,
        seed: int,
        curve: str,
        sweep_value: int,
    ) -> CellRecord | None:
        """The stored block for a key, or ``None``."""
        data = self._get(
            "cell", _key_str((figure_id, scenario_hash, seed, curve, sweep_value))
        )
        if data is None:
            return None
        return CellRecord(**data)

    def has_cell(
        self,
        figure_id: str,
        scenario_hash: str,
        seed: int,
        curve: str,
        sweep_value: int,
    ) -> bool:
        """True when a block is stored under the key."""
        return (
            _key_str((figure_id, scenario_hash, seed, curve, sweep_value))
            in self._cells
        )

    def __len__(self) -> int:
        return len(self._cells)

    # -- run headers -------------------------------------------------------------
    def put_meta(self, meta: RunMeta) -> None:
        """Append one run header (last write wins on re-put)."""
        self._put("meta", _key_str(meta.key), asdict(meta))

    def get_meta(
        self, figure_id: str, scenario_hash: str, seed: int
    ) -> RunMeta | None:
        """The stored run header for a key, or ``None``."""
        data = self._get("meta", _key_str((figure_id, scenario_hash, seed)))
        if data is None:
            return None
        return RunMeta(**data)

    def runs(self) -> list[RunMeta]:
        """Every stored run header, in key order."""
        return [RunMeta(**data) for _, data in self._payloads("meta")]

    # -- ExperimentResult round-trip ----------------------------------------------
    def save_result(self, result: ExperimentResult) -> None:
        """Store a completed run: its header plus one cell per curve/point.

        Per-cell MIP failures are recovered from the NaN count of the MIP
        curve (the runner sets NaN exactly on unproven repetitions).
        """
        if result.seed is None:
            raise ExperimentError(
                "storing an experiment requires an explicit seed (got None)"
            )
        figure = ResolvedFigure(
            result.figure_id, result.scenario, tuple(result.series), result.normalize_to
        )
        meta = RunMeta.for_run(figure, result.seed, result.elapsed_seconds)
        for curve, series in result.series.items():
            for sweep_value in series.x_values:
                values = [float(v) for v in series.samples[sweep_value]]
                failures = (
                    sum(1 for v in values if math.isnan(v))
                    if curve == MIP_LABEL
                    else 0
                )
                self.put_cell(
                    CellRecord(
                        figure_id=meta.figure_id,
                        scenario_hash=meta.scenario_hash,
                        seed=meta.seed,
                        curve=curve,
                        sweep_value=int(sweep_value),
                        repetitions=len(values),
                        values=values,
                        failures=failures,
                    )
                )
        self.put_meta(meta)

    def load_result(
        self,
        figure_id: str,
        *,
        scenario_hash: str | None = None,
        seed: int | None = None,
    ) -> ExperimentResult:
        """Rebuild an :class:`ExperimentResult` from stored records.

        ``scenario_hash`` / ``seed`` narrow the lookup when several runs
        of the same figure share the store; with one match they can be
        omitted.  Each cell is sliced to the run's repetitions and the
        result is folded by
        :meth:`~repro.experiments.runner.ExperimentResult.from_cells`,
        exactly as an in-memory run's.
        """
        matches = [
            meta
            for meta in self.runs()
            if meta.figure_id == figure_id
            and (scenario_hash is None or meta.scenario_hash == scenario_hash)
            and (seed is None or meta.seed == seed)
        ]
        if not matches:
            raise ExperimentError(
                f"no stored run of {figure_id!r}"
                + (f" with seed {seed}" if seed is not None else "")
                + f" in {self.path}"
            )
        if len(matches) > 1:
            raise ExperimentError(
                f"{len(matches)} stored runs match {figure_id!r}; disambiguate "
                "with scenario_hash= and/or seed="
            )
        meta = matches[0]
        scenario = ScenarioConfig.from_dict(meta.scenario)

        def cell(curve: str, sweep_value: int) -> tuple[list[float], int]:
            record = self.get_cell(
                meta.figure_id, meta.scenario_hash, meta.seed, curve, sweep_value
            )
            if record is None:
                raise ExperimentError(
                    f"store is missing cell ({curve!r}, {sweep_value}) of "
                    f"{figure_id!r}; was the run interrupted? resume it first"
                )
            return record.sliced(scenario.repetitions)

        figure = ResolvedFigure(
            meta.figure_id, scenario, tuple(meta.curves), meta.normalize_to
        )
        return ExperimentResult.from_cells(figure, meta.seed, cell, meta.elapsed_seconds)

    def cells(self) -> list[CellRecord]:
        """Every stored cell (newest record per key), in key order."""
        return [CellRecord(**data) for _, data in self._payloads("cell")]

    # -- merging -----------------------------------------------------------------
    def merge(self, *stores: "ResultStore") -> MergeReport:
        """Union other stores' records into this one (the shard-merge core).

        Cell records are matched by key: keys absent here are appended,
        identical records (same values bit for bit, NaN matching NaN) are
        skipped — so re-merging an already-merged shard is a no-op — and a
        key carrying *different* values anywhere (against this store or
        between two sources) is a hard error listing every offending cell.
        Run headers must agree on everything but ``elapsed_seconds``,
        which keeps the per-shard maximum.

        The merge is two-phase: every source is checked before anything is
        written, so a conflicting merge leaves this store untouched.
        Records land in sorted key order, making the merged byte stream
        independent of source completion times (only of source *order*,
        which callers should keep stable).
        """
        plan = _MergePlan()
        plan.report.sources = len(stores)
        # Preload this store's records once: staging otherwise pays one
        # open/seek/close per overlapping key, which dominates the
        # conflict scan on an idempotent re-merge.
        mine_cells = {
            key: CellRecord(**data) for key, data in self._payloads("cell")
        }
        mine_metas = {key: RunMeta(**data) for key, data in self._payloads("meta")}
        for store in stores:
            if store.path.resolve() == self.path.resolve():
                raise ExperimentError(f"cannot merge a store into itself: {self.path}")
            for record in store.cells():
                self._stage_cell(plan, record, mine_cells, source=store)
            for meta in store.runs():
                self._stage_meta(plan, meta, mine_metas, source=store)
        if plan.conflicts:
            shown = plan.conflicts[:10]
            more = len(plan.conflicts) - len(shown)
            listing = "\n  - ".join(shown)
            raise ExperimentError(
                f"store merge aborted, {len(plan.conflicts)} conflicting record(s) "
                f"(nothing was written):\n  - {listing}"
                + (f"\n  ... and {more} more" if more else "")
            )
        for _, record in sorted(plan.cells.items()):
            self.put_cell(record)
        for _, meta in sorted(plan.metas.items()):
            self.put_meta(meta)
        return plan.report

    def _stage_cell(
        self,
        plan: _MergePlan,
        record: CellRecord,
        mine_cells: dict[str, CellRecord],
        *,
        source: "ResultStore",
    ) -> None:
        key = _key_str(record.key)
        staged = plan.cells.get(key)
        existing = staged if staged is not None else mine_cells.get(key)
        if existing is None:
            plan.cells[key] = record
            plan.report.cells_added += 1
        elif _cells_equal(existing, record):
            plan.report.cells_skipped += 1
        else:
            plan.conflicts.append(
                f"cell {key}: {source.path} disagrees with previously merged values"
            )

    def _stage_meta(
        self,
        plan: _MergePlan,
        meta: RunMeta,
        mine_metas: dict[str, RunMeta],
        *,
        source: "ResultStore",
    ) -> None:
        key = _key_str(meta.key)
        staged = plan.metas.get(key)
        existing = staged if staged is not None else mine_metas.get(key)
        if existing is None:
            plan.metas[key] = meta
            plan.report.metas_added += 1
        elif not _metas_compatible(existing, meta):
            plan.conflicts.append(
                f"run header {key}: {source.path} disagrees on the scenario, curve "
                "order or normalisation"
            )
        elif meta.elapsed_seconds > existing.elapsed_seconds:
            # Keep the slowest shard's wall-clock (idempotent re-merge:
            # max() is monotone, so a second pass changes nothing).
            plan.metas[key] = replace(existing, elapsed_seconds=meta.elapsed_seconds)
            if staged is None:
                plan.report.metas_updated += 1
        else:
            plan.report.metas_skipped += 1

    # -- catalogue ----------------------------------------------------------------
    def catalog(self) -> list[dict]:
        """One summary row per stored run (for ``microrepro export``)."""
        rows = []
        for meta in self.runs():
            scenario = ScenarioConfig.from_dict(meta.scenario)
            expected = len(meta.curves) * len(scenario.sweep_values)
            stored = sum(
                1
                for curve in meta.curves
                for sweep_value in scenario.sweep_values
                if self.has_cell(
                    meta.figure_id, meta.scenario_hash, meta.seed, curve, sweep_value
                )
            )
            rows.append(
                {
                    "figure": meta.figure_id,
                    "scenario_hash": meta.scenario_hash,
                    "seed": meta.seed,
                    "curves": len(meta.curves),
                    "points": len(scenario.sweep_values),
                    "cells": f"{stored}/{expected}",
                    "complete": stored == expected,
                }
            )
        return rows
