"""Persistent, resumable store for experiment results.

A :class:`ResultStore` is a directory holding an **append-only**
JSON-lines file (``results.jsonl``) plus a byte-offset index
(``index.json``).  Every completed ``(figure, scenario hash, seed,
curve, sweep value)`` block lands as one line the moment it finishes, so
an interrupted campaign loses at most the block in flight; resuming it
(``microrepro resume``, ``run --store ... --resume``, ``dag run``) skips
every stored block and only computes the remainder.

The store is a campaign's only record.  A cell holding at least a
run's repetitions is the cache hit for its work unit
(:func:`repro.dag.scheduler.execute_solves`), and every export — the
per-seed CSVs and the cross-seed aggregate of ``dag run
--export-dir`` and ``export`` — is derived on read from the cells
(:meth:`ResultStore.load_result`).

The append/scan/index machinery itself is format-agnostic and lives in
:class:`JsonlStore`: a directory with one append-only JSONL file of
``{"kind": ..., "data": {...}}`` records plus a byte-offset index over
the kinds a subclass declares.  :class:`ResultStore` builds the
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

The index maps record keys to byte offsets and remembers the prefix
length it covers; on open, any lines appended after the last index write
(e.g. by a run that was killed) are recovered by scanning the tail; a
crash-truncated final line is recovered when its JSON is complete (only
the newline was lost) and ignored otherwise.  Records are append-only:
re-putting a key appends a new line and the index points at the newest
one.

Append-only cell records are also what makes stores *mergeable*:
:meth:`ResultStore.merge` unions the shard stores of a distributed
campaign back into one (see :mod:`repro.campaign`), with key-level
conflict detection and idempotent re-merge.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..analysis.stats import Series
from ..exceptions import ExperimentError
from ..generators.scenarios import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import ExperimentResult

__all__ = ["JsonlStore", "CellRecord", "RunMeta", "ResultStore", "MergeReport"]

#: How many appended records may accumulate before the index is rewritten.
_INDEX_EVERY = 64


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


#: Exceptions that mark a record line (or an index entry) as unusable.
_PARSE_ERRORS = (KeyError, TypeError, ValueError, ExperimentError)


class JsonlStore:
    """Append-only JSONL records plus a byte-offset index, in a directory.

    The reusable persistence core shared by :class:`ResultStore` and the
    solve service's cache tier.  A store directory holds one append-only
    JSON-lines file of ``{"kind": ..., "data": {...}}`` records and an
    ``index.json`` mapping record keys to byte offsets per kind.
    Subclasses declare the record kinds they index (:attr:`KINDS`) and
    how a record's key is derived from its payload (:meth:`_key_of`).

    Guarantees carried by the base:

    * records are append-only and flushed per write, so concurrent
      readers and an interrupted writer always see a consistent prefix;
      re-putting a key appends a new line and the index points at the
      newest one;
    * on open, lines appended after the last index write are recovered
      by scanning the tail; a crash-truncated final line is recovered
      when its JSON survived intact (only the newline lost) and ignored
      otherwise;
    * a **stale or corrupt index** — offsets that point into the middle
      of records, at records of another key, or past EOF (e.g. an
      ``index.json`` copied from another store, or a records file
      rewritten underneath it) — is detected on first use and rebuilt
      from the records file instead of surfacing as a parse error;
    * one *instance* may be shared across threads: reads, writes and
      :meth:`compact` serialise on an internal lock, so an appender
      thread racing a compaction never strands its record in the
      swapped-out file.

    One store must not be written by several *processes* at once.
    """

    #: Record kinds this store indexes; anything else is ignored on scan.
    KINDS: tuple[str, ...] = ()
    #: ``index.json`` field name per kind (defaults to the kind itself).
    INDEX_NAMES: dict[str, str] = {}
    #: Name of the append-only records file inside the store directory.
    RECORDS_FILE = "results.jsonl"

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        if not self.path.exists():  # tolerate read-only existing stores
            self.path.mkdir(parents=True, exist_ok=True)
        self._records_path = self.path / self.RECORDS_FILE
        self._index_path = self.path / "index.json"
        self._index: dict[str, dict[str, int]] = {kind: {} for kind in self.KINDS}
        self._indexed_end = 0
        self._unindexed = 0
        #: The records file ends in a torn (newline-less) line from an
        #: interrupted write; the next append must start on a fresh line.
        self._tail_torn = False
        #: The on-disk index lags the in-memory one (new appends, or a
        #: tail scan found records the stored index misses).
        self._index_dirty = False
        #: Serialises every index/file mutation so one instance may be
        #: shared across threads — above all an appender racing
        #: :meth:`compact`, whose file swap would otherwise strand bytes
        #: the appender just wrote in the replaced-away inode.
        #: Reentrant because reads heal (:meth:`_rebuild`) and writes
        #: auto-flush inside already-locked regions.  Separate *store
        #: instances* are still single-writer (see the class docstring).
        self._lock = threading.RLock()
        self._load()

    # -- subclass interface -------------------------------------------------------
    def _key_of(self, kind: str, data: dict) -> str:
        """The index key of one record's payload (raise on malformed data)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _index_name(self, kind: str) -> str:
        return self.INDEX_NAMES.get(kind, kind)

    # -- loading ----------------------------------------------------------------
    def _load(self) -> None:
        for index in self._index.values():
            index.clear()
        self._indexed_end = 0
        self._tail_torn = False
        self._index_dirty = False
        if self._index_path.exists():
            try:
                raw = json.loads(self._index_path.read_text(encoding="utf-8"))
                end = int(raw["end"])
                size = (
                    self._records_path.stat().st_size
                    if self._records_path.exists()
                    else 0
                )
                if 0 <= end <= size:
                    loaded = {
                        kind: {
                            key: int(offset)
                            for key, offset in raw[self._index_name(kind)].items()
                        }
                        for kind in self.KINDS
                    }
                    for kind, entries in loaded.items():
                        self._index[kind].update(entries)
                    self._indexed_end = end
            except _PARSE_ERRORS:
                # Corrupt index file: fall back to a full scan.
                for index in self._index.values():
                    index.clear()
                self._indexed_end = 0
        self._scan_tail()

    def _scan_tail(self) -> None:
        """Index every complete record appended after the stored index."""
        if not self._records_path.exists():
            return
        with open(self._records_path, "rb") as handle:
            handle.seek(self._indexed_end)
            offset = self._indexed_end
            for line in handle:
                if not line.endswith(b"\n"):
                    # Torn final write of an interrupted run: remember it
                    # so the next append starts on a fresh line instead of
                    # merging into (and losing) both records on a rescan.
                    # A kill can also truncate *only* the trailing newline
                    # — the record itself is complete JSON and is
                    # recovered rather than dropped (a strict prefix of a
                    # JSON object never parses, so this cannot resurrect
                    # a half-written record).  The record stays outside
                    # the indexed prefix (``_indexed_end`` is not
                    # advanced): its line is still open, and the next
                    # append or rescan re-derives it from the tail.
                    self._tail_torn = True
                    self._index_record(line, offset)
                    break
                self._index_record(line, offset)
                offset += len(line)
                self._index_dirty = True
            self._indexed_end = offset

    def _index_record(self, line: bytes, offset: int) -> None:
        """Register one scanned line's key, ignoring foreign/corrupt lines."""
        try:
            record = json.loads(line)
            kind = record["kind"]
            if kind in self._index:
                self._index[kind][self._key_of(kind, record["data"])] = offset
        except _PARSE_ERRORS:
            pass

    def _rebuild(self) -> None:
        """Re-derive the whole index from the records file.

        Invoked when a lookup finds its offset unusable — the on-disk
        index was stale (another store's, or older than a rewrite of the
        records file).  The records file itself stays the single source
        of truth, so a full scan restores every record that is really
        there; the refreshed index is persisted on the next flush.
        """
        for index in self._index.values():
            index.clear()
        self._indexed_end = 0
        self._tail_torn = False
        self._scan_tail()
        self._index_dirty = True

    # -- reading ----------------------------------------------------------------
    def _read(self, offset: int) -> dict:
        with open(self._records_path, "rb") as handle:
            handle.seek(offset)
            return json.loads(handle.readline())

    def _get(self, kind: str, key: str) -> dict | None:
        """The newest payload stored under ``key``, or ``None``.

        An offset that reads back as anything but a ``kind`` record with
        this key means the index is stale; the index is then rebuilt from
        the records file and the lookup retried once.
        """
        with self._lock:
            offset = self._index[kind].get(key)
            if offset is None:
                return None
            try:
                payload = self._read(offset)
                if payload["kind"] == kind:
                    data = payload["data"]
                    if self._key_of(kind, data) == key:
                        return data
            except _PARSE_ERRORS:
                pass
            self._rebuild()
            offset = self._index[kind].get(key)
            if offset is None:
                return None
            return self._read(offset)["data"]

    def _payloads(self, kind: str) -> list[tuple[str, dict]]:
        """Every indexed ``(key, payload)`` of a kind, in key order.

        Bulk reads (``cells()``, ``runs()``, the merge scan) would pay
        one open/seek/close per record through :meth:`_get`; at campaign
        scale that is tens of thousands of syscall round-trips per store.
        Like :meth:`_get`, a record that does not read back as its key
        triggers one index rebuild and retry.
        """
        with self._lock:
            try:
                return self._scan_payloads(kind)
            except _PARSE_ERRORS:
                self._rebuild()
                return self._scan_payloads(kind)

    def _scan_payloads(self, kind: str) -> list[tuple[str, dict]]:
        index = self._index[kind]
        if not index:
            return []
        with open(self._records_path, "rb") as handle:
            payloads = []
            for key, offset in sorted(index.items()):
                handle.seek(offset)
                payload = json.loads(handle.readline())
                if payload["kind"] != kind or self._key_of(kind, payload["data"]) != key:
                    raise ExperimentError(
                        f"stale index entry for {kind} record {key!r}"
                    )
                payloads.append((key, payload["data"]))
        return payloads

    # -- writing ----------------------------------------------------------------
    def _append(self, kind: str, data: dict) -> int:
        # A torn final line (interrupted writer) must be closed first, or
        # this record would merge into it and be dropped by any future
        # recovery scan.
        prefix = b"\n" if self._tail_torn else b""
        line = (
            json.dumps({"kind": kind, "data": data}, allow_nan=True) + "\n"
        ).encode("utf-8")
        with open(self._records_path, "ab") as handle:
            start = handle.tell()
            handle.write(prefix + line)
        self._tail_torn = False
        offset = start + len(prefix)  # where the record's JSON begins
        self._indexed_end = offset + len(line)
        self._unindexed += 1
        self._index_dirty = True
        return offset

    def _put(self, kind: str, key: str, data: dict) -> None:
        """Append one record and point the index at it (last write wins)."""
        with self._lock:
            offset = self._append(kind, data)
            self._index[kind][key] = offset
            self._maybe_flush()

    def _maybe_flush(self) -> None:
        """Periodic index rewrite — call only *after* the new record's key
        is registered, or a crash right after the flush would persist an
        ``end`` past a record the index does not know about."""
        if self._unindexed >= _INDEX_EVERY:
            self.flush()

    # -- compaction ---------------------------------------------------------------
    def _live_snapshot(self) -> list[tuple[int, str, str]]:
        """Every indexed ``(offset, kind, key)`` in offset order.

        ``list(...)`` pins each per-kind dict before iterating — cheap
        insurance against a caller touching the index mid-sweep even
        though :meth:`compact` already holds the instance lock.
        """
        return sorted(
            (offset, kind, key)
            for kind, index in self._index.items()
            for key, offset in list(index.items())
        )

    def compact(self) -> int:
        """Rewrite the records file keeping only the newest record per key.

        Append-only logs grow without bound under re-puts (every re-put
        of a key leaves its older lines dead on disk); long-lived users
        — the solve service's persistent cache above all — call this to
        reclaim them.  Live records are written to a temporary file in
        their current offset order (so relative append recency is
        preserved), then atomically swapped in with ``os.replace``; a
        crash at any point leaves either the old file or the new one,
        never a mix.  The in-memory index is rewritten to the new
        offsets and persisted.  Returns the number of bytes reclaimed.

        Holds the instance lock for the whole rewrite: an appender
        thread sharing this instance blocks until the swap is done
        rather than writing into the about-to-be-replaced file.
        """
        with self._lock:
            live = self._live_snapshot()
            try:
                lines = self._live_lines(live)
            except _PARSE_ERRORS:
                # Stale index (same failure mode _get heals): rebuild from
                # the records file and compact what is really there.
                self._rebuild()
                live = self._live_snapshot()
                lines = self._live_lines(live)
            before = (
                self._records_path.stat().st_size if self._records_path.exists() else 0
            )
            tmp = self._records_path.parent / (self._records_path.name + ".tmp")
            offsets: list[tuple[str, str, int]] = []
            position = 0
            with open(tmp, "wb") as handle:
                for (_, kind, key), line in zip(live, lines):
                    offsets.append((kind, key, position))
                    handle.write(line)
                    position += len(line)
            os.replace(tmp, self._records_path)
            # The per-kind dicts are aliased by subclasses; mutate in place.
            for index in self._index.values():
                index.clear()
            for kind, key, offset in offsets:
                self._index[kind][key] = offset
            self._indexed_end = position
            self._tail_torn = False
            self._index_dirty = True
            self.flush()
            return before - position

    def _live_lines(self, live: list[tuple[int, str, str]]) -> list[bytes]:
        """The indexed records' raw lines, validated against their keys."""
        if not live:
            return []
        lines = []
        with open(self._records_path, "rb") as handle:
            for offset, kind, key in live:
                handle.seek(offset)
                line = handle.readline()
                record = json.loads(line)
                if record["kind"] != kind or self._key_of(kind, record["data"]) != key:
                    raise ExperimentError(
                        f"stale index entry for {kind} record {key!r}"
                    )
                if not line.endswith(b"\n"):
                    line += b"\n"  # close a torn-but-complete final record
                lines.append(line)
        return lines

    def flush(self) -> None:
        """Persist the in-memory index next to the records file.

        A no-op when the on-disk index is already current, so read-only
        usage (``microrepro export`` on a shipped store) never writes.
        """
        with self._lock:
            if not self._index_dirty:
                self._unindexed = 0
                return
            payload = {"end": self._indexed_end}
            for kind in self.KINDS:
                payload[self._index_name(kind)] = self._index[kind]
            tmp = self._index_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(self._index_path)
            self._unindexed = 0
            self._index_dirty = False

    def close(self) -> None:
        """Flush the index (the records file is already on disk)."""
        self.flush()

    def __enter__(self) -> "JsonlStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ResultStore(JsonlStore):
    """Append-only on-disk store of experiment cells and run headers.

    Parameters
    ----------
    path:
        Directory of the store (created if missing).

    Notes
    -----
    The store keeps only byte offsets in memory; record payloads are read
    back on demand.  Durability, tail recovery and stale-index rebuild
    come from :class:`JsonlStore`; this class contributes the record
    schema (:class:`CellRecord` / :class:`RunMeta`), the
    :class:`~repro.experiments.runner.ExperimentResult` round-trip and
    shard-store merging.
    """

    KINDS = ("cell", "meta")
    #: Index field names predate the generic base; keeping them means a
    #: PR 2-era store opens without a rescan.
    INDEX_NAMES = {"cell": "cells", "meta": "meta"}

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
    def save_result(self, result: "ExperimentResult") -> None:
        """Store a completed run: its header plus one cell per curve/point.

        Per-cell MIP failures are recovered from the NaN count of the MIP
        curve (the runner sets NaN exactly on unproven repetitions).
        """
        if result.seed is None:
            raise ExperimentError(
                "storing an experiment requires an explicit seed (got None)"
            )
        scenario = result.scenario
        scenario_hash = scenario.stable_hash()
        from .providers import MIP_LABEL

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
                        figure_id=result.figure_id,
                        scenario_hash=scenario_hash,
                        seed=result.seed,
                        curve=curve,
                        sweep_value=int(sweep_value),
                        repetitions=len(values),
                        values=values,
                        failures=failures,
                    )
                )
        self.put_meta(
            RunMeta(
                figure_id=result.figure_id,
                scenario_hash=scenario_hash,
                seed=result.seed,
                scenario=scenario.to_dict(),
                curves=list(result.series),
                normalize_to=(
                    None
                    if result.normalized is None
                    else next(
                        (
                            label
                            for label in result.series
                            if label not in result.normalized
                        ),
                        None,
                    )
                ),
                elapsed_seconds=result.elapsed_seconds,
            )
        )
        self.flush()

    def load_result(
        self,
        figure_id: str,
        *,
        scenario_hash: str | None = None,
        seed: int | None = None,
    ) -> "ExperimentResult":
        """Rebuild an :class:`ExperimentResult` from stored records.

        ``scenario_hash`` / ``seed`` narrow the lookup when several runs
        of the same figure share the store; with one match they can be
        omitted.
        """
        from ..analysis.normalize import normalize_series
        from .runner import ExperimentResult

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
        series: dict[str, Series] = {}
        milp_failures = 0
        for curve in meta.curves:
            curve_series = Series(label=curve)
            for sweep_value in scenario.sweep_values:
                record = self.get_cell(
                    meta.figure_id, meta.scenario_hash, meta.seed, curve, sweep_value
                )
                if record is None:
                    raise ExperimentError(
                        f"store is missing cell ({curve!r}, {sweep_value}) of "
                        f"{figure_id!r}; was the run interrupted? resume it first"
                    )
                values, failures = record.sliced(scenario.repetitions)
                curve_series.extend(sweep_value, values)
                milp_failures += failures
            series[curve] = curve_series
        normalized = None
        if meta.normalize_to is not None:
            reference = series[meta.normalize_to]
            normalized = {
                label: normalize_series(curve_series, reference)
                for label, curve_series in series.items()
                if label != meta.normalize_to
            }
        return ExperimentResult(
            figure_id=meta.figure_id,
            scenario=scenario,
            series=series,
            normalized=normalized,
            seed=meta.seed,
            elapsed_seconds=meta.elapsed_seconds,
            milp_failures=milp_failures,
        )

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
        self.flush()
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
