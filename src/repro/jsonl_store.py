"""Append-only JSONL records, keyed in memory: :class:`JsonlStore`.

The persistence core of the package's keyed on-disk logs — the
experiment :class:`~repro.experiments.store.ResultStore` and the solve
service's cache tier (:class:`repro.service.cache.SolveCacheStore`) —
and :class:`LineLog`, the torn-tail append rule they share with the
span log (:class:`repro.obs.trace.TraceStore`).  A leaf module: it
imports no other ``repro`` package, so loading a cache store does not
load the experiment engine.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from .exceptions import ExperimentError

__all__ = ["JsonlStore", "LineLog"]

#: Exceptions that mark a record line as unusable.
_PARSE_ERRORS = (KeyError, TypeError, ValueError, ExperimentError)

#: Rescans a read may take before it gives up.  A reader racing another
#: instance's :meth:`JsonlStore.compact` can scan one records file and
#: read from its replacement; each retry rescans.
_READ_ATTEMPTS = 4


class LineLog:
    """One append-only file of newline-terminated lines.

    A final line without its newline — torn by an interrupted writer or
    by a write that failed part-way (``ENOSPC``) — gets its newline
    before the next append, so the torn bytes and the next record never
    merge into one unreadable line.  Callers serialise appends.
    """

    def __init__(self, path: Path):
        self.path = path
        #: The file may end in a torn line; the next append closes it.
        self.torn = False
        if path.exists() and path.stat().st_size:
            with open(path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                self.torn = handle.read(1) != b"\n"

    def append(self, line: bytes) -> int:
        """Append one newline-terminated line; return the offset it starts at."""
        prefix = b"\n" if self.torn else b""
        # Until the write returns, the file may end in part of this line.
        self.torn = True
        with open(self.path, "ab") as handle:
            start = handle.tell()
            handle.write(prefix + line)
        self.torn = False
        return start + len(prefix)


class JsonlStore:
    """Append-only JSONL records in a directory, keyed by an in-memory index.

    The reusable persistence core shared by
    :class:`~repro.experiments.store.ResultStore` and the solve service's
    cache tier.  A store directory holds one append-only JSON-lines file
    of ``{"kind": ..., "data": {...}}`` records and nothing else.
    Opening a store scans that file once into a key → byte-offset map
    per kind; payloads are read back on demand, so memory holds offsets
    only.  Subclasses declare the record kinds they index (:attr:`KINDS`)
    and how a record's key is derived from its payload (:meth:`_key_of`).

    Guarantees carried by the base:

    * records are append-only and written one line per write, so
      concurrent readers and an interrupted writer always see a
      consistent prefix; re-putting a key appends a new line and the
      index points at the newest one;
    * a torn final line (interrupted or failed write) is recovered when
      its JSON survived intact (only the newline lost) and ignored
      otherwise, and the next append starts on a fresh line
      (:class:`LineLog`);
    * every read checks that its offset holds a record of its key; an
      offset made stale by another instance's :meth:`compact` triggers
      a rescan and retry instead of surfacing as a parse error;
    * one *instance* may be shared across threads: reads, writes and
      :meth:`compact` serialise on an internal lock, so an appender
      thread racing a compaction never strands its record in the
      swapped-out file.

    One store must not be written by several *processes* at once.
    """

    #: Record kinds this store indexes; anything else is ignored on scan.
    KINDS: tuple[str, ...] = ()
    #: Name of the append-only records file inside the store directory.
    RECORDS_FILE = "results.jsonl"

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        if not self.path.exists():  # tolerate read-only existing stores
            self.path.mkdir(parents=True, exist_ok=True)
        self._records_path = self.path / self.RECORDS_FILE
        self._log = LineLog(self._records_path)
        self._index: dict[str, dict[str, int]] = {kind: {} for kind in self.KINDS}
        #: Serialises every index/file mutation so one instance may be
        #: shared across threads — above all an appender racing
        #: :meth:`compact`, whose file swap would otherwise strand bytes
        #: the appender just wrote in the replaced-away inode.  Separate
        #: *store instances* are still single-writer (see the class
        #: docstring).
        self._lock = threading.Lock()
        self._scan()

    # -- subclass interface -------------------------------------------------------
    def _key_of(self, kind: str, data: dict) -> str:
        """The index key of one record's payload (raise on malformed data)."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- loading ----------------------------------------------------------------
    def _scan(self) -> None:
        """Re-derive the whole index from one pass over the records file.

        Runs on open, and again when a read finds its offset unusable
        (another instance rewrote the file with :meth:`compact`).  A
        final line missing its newline is indexed when its JSON is
        complete (a strict prefix of a JSON object never parses, so this
        cannot resurrect a half-written record), and marks the tail torn.
        """
        for index in self._index.values():
            index.clear()
        self._log.torn = False
        if not self._records_path.exists():
            return
        with open(self._records_path, "rb") as handle:
            offset = 0
            for line in handle:
                self._index_record(line, offset)
                offset += len(line)
                self._log.torn = not line.endswith(b"\n")

    def _index_record(self, line: bytes, offset: int) -> None:
        """Register one scanned line's key, ignoring foreign/corrupt lines."""
        try:
            record = json.loads(line)
            kind = record["kind"]
            if kind in self._index:
                self._index[kind][self._key_of(kind, record["data"])] = offset
        except _PARSE_ERRORS:
            pass

    # -- reading ----------------------------------------------------------------
    def _read(self, offset: int) -> dict:
        with open(self._records_path, "rb") as handle:
            handle.seek(offset)
            return json.loads(handle.readline())

    def _get(self, kind: str, key: str) -> dict | None:
        """The newest payload stored under ``key``, or ``None``.

        An offset that reads back as anything but a ``kind`` record with
        this key means the file changed underneath the index; the index
        is then rescanned and the lookup retried, up to
        ``_READ_ATTEMPTS`` times.
        """
        with self._lock:
            for attempt in range(_READ_ATTEMPTS):
                if attempt:
                    self._scan()
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
        triggers a rescan and retry.
        """
        with self._lock:
            for _ in range(_READ_ATTEMPTS - 1):
                try:
                    return self._scan_payloads(kind)
                except _PARSE_ERRORS:
                    self._scan()
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
    def _put(self, kind: str, key: str, data: dict) -> None:
        """Append one record and point the index at it (last write wins)."""
        line = (
            json.dumps({"kind": kind, "data": data}, allow_nan=True) + "\n"
        ).encode("utf-8")
        with self._lock:
            self._index[kind][key] = self._log.append(line)

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
        offsets.  Returns the number of bytes reclaimed.

        Holds the instance lock for the whole rewrite: an appender
        thread sharing this instance blocks until the swap is done
        rather than writing into the about-to-be-replaced file.
        """
        with self._lock:
            live = self._live_snapshot()
            try:
                lines = self._live_lines(live)
            except _PARSE_ERRORS:
                # Stale offsets (same failure mode _get heals): rescan
                # the records file and compact what is really there.
                self._scan()
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
            self._log.torn = False
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
