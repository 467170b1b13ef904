"""Append-only JSONL records plus a byte-offset index: :class:`JsonlStore`.

The persistence core of the package's keyed on-disk logs — the
experiment :class:`~repro.experiments.store.ResultStore` and the solve
service's cache tier (:class:`repro.service.cache.SolveCacheStore`).  A
leaf module: it imports no other ``repro`` package, so loading a cache
store does not load the experiment engine.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from .exceptions import ExperimentError

__all__ = ["JsonlStore"]

#: How many appended records may accumulate before the index is rewritten.
_INDEX_EVERY = 64

#: Exceptions that mark a record line (or an index entry) as unusable.
_PARSE_ERRORS = (KeyError, TypeError, ValueError, ExperimentError)

#: Index rebuilds a read may take before it gives up.  A reader racing
#: another instance's :meth:`JsonlStore.compact` can rebuild from one
#: records file and read from its replacement; each retry rescans.
_READ_ATTEMPTS = 4


class JsonlStore:
    """Append-only JSONL records plus a byte-offset index, in a directory.

    The reusable persistence core shared by
    :class:`~repro.experiments.store.ResultStore` and the solve service's
    cache tier.  A store directory holds one append-only
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
        the records file and the lookup retried, up to
        ``_READ_ATTEMPTS`` times.
        """
        with self._lock:
            for attempt in range(_READ_ATTEMPTS):
                if attempt:
                    self._rebuild()
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
            raise ExperimentError(f"{kind} record {key!r} does not read back as its key")

    def _payloads(self, kind: str) -> list[tuple[str, dict]]:
        """Every indexed ``(key, payload)`` of a kind, in key order.

        Bulk reads (``cells()``, ``runs()``, the merge scan) would pay
        one open/seek/close per record through :meth:`_get`; at campaign
        scale that is tens of thousands of syscall round-trips per store.
        Like :meth:`_get`, a record that does not read back as its key
        triggers an index rebuild and retry.
        """
        with self._lock:
            for _ in range(_READ_ATTEMPTS - 1):
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
