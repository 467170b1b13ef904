"""Unit tests for the persistent result store (one JSON-lines file)."""

from __future__ import annotations

import json
import math

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import run_scenario
from repro.experiments.store import CellRecord, ResultStore, RunMeta
from repro.generators import ScenarioConfig
from tests.helpers import fail_next_append


def _record(**overrides) -> CellRecord:
    defaults = dict(
        figure_id="figX",
        scenario_hash="abc123",
        seed=0,
        curve="H4w",
        sweep_value=10,
        repetitions=3,
        values=[1.0, 2.0, 3.0],
        failures=0,
    )
    defaults.update(overrides)
    return CellRecord(**defaults)


def _scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="store-test",
        num_machines=4,
        num_types=2,
        sweep="tasks",
        sweep_values=(4, 6),
        repetitions=2,
        heuristics=("H2", "H4w"),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestCellRecord:
    def test_key(self):
        assert _record().key == ("figX", "abc123", 0, "H4w", 10)

    def test_value_count_must_match_repetitions(self):
        with pytest.raises(ExperimentError):
            _record(values=[1.0])

    @pytest.mark.parametrize(
        "values, failures, want, want_failures",
        [
            ([1.0, 2.0, 3.0], 0, 3, 0),
            ([1.0, math.nan, 3.0], 1, 3, 1),
            ([1.0, math.nan, 3.0], 1, 2, 1),
            ([math.nan, 2.0, 3.0], 1, 1, 1),
            ([1.0, 2.0, 3.0], 0, 2, 0),
        ],
    )
    def test_sliced_serves_a_prefix_and_recounts_failures(
        self, values, failures, want, want_failures
    ):
        record = _record(repetitions=len(values), values=values, failures=failures)
        got_values, got_failures = record.sliced(want)
        assert got_values == pytest.approx(values[:want], nan_ok=True)
        assert got_failures == want_failures

    def test_sliced_rejects_more_repetitions_than_stored(self):
        with pytest.raises(ExperimentError):
            _record().sliced(4)


class TestStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        record = _record()
        store.put_cell(record)
        assert store.get_cell("figX", "abc123", 0, "H4w", 10) == record
        assert store.has_cell("figX", "abc123", 0, "H4w", 10)
        assert not store.has_cell("figX", "abc123", 0, "H4w", 11)
        assert len(store) == 1

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        store.put_cell(_record(values=[9.0, 9.0, 9.0]))
        assert store.get_cell("figX", "abc123", 0, "H4w", 10).values == [9.0, 9.0, 9.0]
        assert len(store) == 1

    def test_persists_across_reopen(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get_cell("figX", "abc123", 0, "H4w", 10) == _record()

    def test_nan_values_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record(curve="MIP", values=[1.0, float("nan"), 3.0], failures=1))
        back = store.get_cell("figX", "abc123", 0, "MIP", 10)
        assert math.isnan(back.values[1])
        assert back.failures == 1

    def test_meta_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        meta = RunMeta(
            figure_id="figX",
            scenario_hash="abc123",
            seed=0,
            scenario=_scenario().to_dict(),
            curves=["H2", "H4w"],
            normalize_to=None,
            elapsed_seconds=1.5,
        )
        store.put_meta(meta)
        assert store.get_meta("figX", "abc123", 0) == meta
        assert store.runs() == [meta]


class TestStoreRecovery:
    def test_puts_write_only_the_records_file(self, tmp_path):
        # No close and no flush: the records file is already the whole store.
        store = ResultStore(tmp_path / "s")
        for sweep_value in range(65):
            store.put_cell(_record(sweep_value=sweep_value))
        assert [path.name for path in (tmp_path / "s").iterdir()] == ["results.jsonl"]
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 65
        assert sorted(reopened.cells(), key=lambda cell: cell.sweep_value) == [
            _record(sweep_value=sweep_value) for sweep_value in range(65)
        ]

    def test_leftover_index_file_changes_nothing(self, tmp_path):
        # Older stores carry an index.json of byte offsets; it is never
        # read, so garbage offsets in it cannot mislead a lookup.
        store = ResultStore(tmp_path / "s")
        for sweep_value in (10, 20, 30):
            store.put_cell(_record(sweep_value=sweep_value))
        index = tmp_path / "s" / "index.json"
        garbage = {"end": 7, "cells": {key: 5 for key in store._cells}, "meta": {}}
        index.write_text(json.dumps(garbage), encoding="utf-8")
        reopened = ResultStore(tmp_path / "s")
        for sweep_value in (10, 20, 30):
            assert reopened.get_cell("figX", "abc123", 0, "H4w", sweep_value) == (
                _record(sweep_value=sweep_value)
            )
        reopened.put_cell(_record(sweep_value=40))
        assert len(ResultStore(tmp_path / "s")) == 4
        assert json.loads(index.read_text(encoding="utf-8")) == garbage

    def test_unindexed_tail_is_recovered(self, tmp_path):
        # A line appended after this store's last write (another writer,
        # or a run killed right after its append) is found on reopen.
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        extra = _record(sweep_value=20, values=[7.0, 8.0, 9.0])
        line = json.dumps(
            {
                "kind": "cell",
                "data": {
                    "figure_id": extra.figure_id,
                    "scenario_hash": extra.scenario_hash,
                    "seed": extra.seed,
                    "curve": extra.curve,
                    "sweep_value": extra.sweep_value,
                    "repetitions": extra.repetitions,
                    "values": extra.values,
                    "failures": extra.failures,
                },
            }
        )
        with open(tmp_path / "s" / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get_cell("figX", "abc123", 0, "H4w", 20) == extra

    def test_torn_final_line_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        with open(tmp_path / "s" / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "data": {"figure_id": "figX"')  # no newline
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 1

    def test_append_after_torn_line_does_not_merge(self, tmp_path):
        # A record appended after a torn line must start on a fresh line,
        # or the next scan would drop both as one corrupt line.
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        with open(tmp_path / "s" / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # interrupted writer, no newline
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record(sweep_value=20, values=[4.0, 5.0, 6.0]))
        assert store.get_cell("figX", "abc123", 0, "H4w", 20).values == [4.0, 5.0, 6.0]
        rescanned = ResultStore(tmp_path / "s")
        assert len(rescanned) == 2
        assert rescanned.get_cell("figX", "abc123", 0, "H4w", 20) is not None

    def test_failed_append_does_not_swallow_the_next_record(self, tmp_path, monkeypatch):
        # A write that fails part-way (a full disk) leaves a torn line;
        # the next record must start on a fresh line or a reopen loses it.
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record(sweep_value=10))
        fail_next_append(monkeypatch)
        with pytest.raises(OSError):
            store.put_cell(_record(sweep_value=20))
        store.put_cell(_record(sweep_value=30))
        assert not store.has_cell("figX", "abc123", 0, "H4w", 20)
        reopened = ResultStore(tmp_path / "s")
        assert sorted(cell.sweep_value for cell in reopened.cells()) == [10, 30]

    def test_truncated_mid_record_reopens_and_keeps_prefix(self, tmp_path):
        # Regression: a kill that truncates the final JSONL line mid-record
        # must reopen cleanly, keep every complete record, and stay
        # appendable.
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        store.put_cell(_record(sweep_value=20, values=[4.0, 5.0, 6.0]))
        path = tmp_path / "s" / "results.jsonl"
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 17)  # cut into the final record's JSON
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.get_cell("figX", "abc123", 0, "H4w", 10) == _record()
        assert reopened.get_cell("figX", "abc123", 0, "H4w", 20) is None
        reopened.put_cell(_record(sweep_value=30, values=[7.0, 8.0, 9.0]))
        rescanned = ResultStore(tmp_path / "s")
        assert len(rescanned) == 2
        assert rescanned.get_cell("figX", "abc123", 0, "H4w", 30).values == [7.0, 8.0, 9.0]

    def test_truncated_newline_recovers_complete_record(self, tmp_path):
        # A partial write can lose *only* the trailing newline: the final
        # line is complete JSON and must be recovered, not dropped.
        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        store.put_cell(_record(sweep_value=20, values=[4.0, 5.0, 6.0]))
        path = tmp_path / "s" / "results.jsonl"
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 1)
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 2
        assert reopened.get_cell("figX", "abc123", 0, "H4w", 20).values == [4.0, 5.0, 6.0]
        # The recovered line is still open: the next append must not merge
        # into it, and a rescan must see every record.
        reopened.put_cell(_record(sweep_value=30, values=[7.0, 8.0, 9.0]))
        rescanned = ResultStore(tmp_path / "s")
        assert len(rescanned) == 3

    def test_read_only_store_can_be_opened_and_read(self, tmp_path):
        import os

        store = ResultStore(tmp_path / "s")
        store.put_cell(_record())
        os.chmod(tmp_path / "s", 0o555)
        try:
            readonly = ResultStore(tmp_path / "s")
            assert readonly.get_cell("figX", "abc123", 0, "H4w", 10) == _record()
            assert len(readonly.cells()) == 1
        finally:
            os.chmod(tmp_path / "s", 0o755)


class TestStoreMerge:
    def _meta(self, **overrides) -> RunMeta:
        defaults = dict(
            figure_id="figX",
            scenario_hash="abc123",
            seed=0,
            scenario=_scenario().to_dict(),
            curves=["H2", "H4w"],
            normalize_to=None,
            elapsed_seconds=1.0,
        )
        defaults.update(overrides)
        return RunMeta(**defaults)

    def test_disjoint_union(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.put_cell(_record(sweep_value=10))
        b = ResultStore(tmp_path / "b")
        b.put_cell(_record(sweep_value=20, values=[4.0, 5.0, 6.0]))
        dest = ResultStore(tmp_path / "m")
        report = dest.merge(ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b"))
        assert report.cells_added == 2
        assert len(dest) == 2
        # Merged records survive a reopen (they are ordinary appends).
        assert ResultStore(tmp_path / "m").get_cell(
            "figX", "abc123", 0, "H4w", 20
        ).values == [4.0, 5.0, 6.0]

    def test_overlapping_identical_cells_are_idempotent(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.put_cell(_record(sweep_value=10))
        a.put_cell(_record(sweep_value=20, values=[4.0, 5.0, 6.0]))
        dest = ResultStore(tmp_path / "m")
        first = dest.merge(ResultStore(tmp_path / "a"))
        again = dest.merge(ResultStore(tmp_path / "a"))
        assert first.cells_added == 2
        assert again.cells_added == 0
        assert again.cells_skipped == 2
        assert len(dest) == 2

    def test_identical_nan_cells_do_not_conflict(self, tmp_path):
        nan_record = _record(curve="MIP", values=[1.0, float("nan"), 3.0], failures=1)
        a = ResultStore(tmp_path / "a")
        a.put_cell(nan_record)
        dest = ResultStore(tmp_path / "m")
        dest.put_cell(nan_record)
        report = dest.merge(ResultStore(tmp_path / "a"))
        assert report.cells_skipped == 1

    def test_conflicting_cells_raise_and_write_nothing(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.put_cell(_record(sweep_value=10))
        a.put_cell(_record(sweep_value=20, values=[4.0, 5.0, 6.0]))
        b = ResultStore(tmp_path / "b")
        b.put_cell(_record(sweep_value=20, values=[9.0, 9.0, 9.0]))
        b.put_cell(_record(sweep_value=30))
        dest = ResultStore(tmp_path / "m")
        with pytest.raises(ExperimentError) as excinfo:
            dest.merge(ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b"))
        # The error names the offending cell key, and the two-phase merge
        # left the destination untouched (not even the clean records).
        assert "figX|abc123|0|H4w|20" in str(excinfo.value)
        assert len(dest) == 0

    def test_merge_into_itself_rejected(self, tmp_path):
        dest = ResultStore(tmp_path / "m")
        with pytest.raises(ExperimentError):
            dest.merge(ResultStore(tmp_path / "m"))

    def test_empty_shard_merge(self, tmp_path):
        dest = ResultStore(tmp_path / "m")
        dest.put_cell(_record())
        report = dest.merge(ResultStore(tmp_path / "empty"))
        assert report.cells_added == 0
        assert report.metas_added == 0
        assert len(dest) == 1

    def test_meta_union_and_elapsed_max(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.put_meta(self._meta(elapsed_seconds=1.0))
        b = ResultStore(tmp_path / "b")
        b.put_meta(self._meta(elapsed_seconds=5.0))
        dest = ResultStore(tmp_path / "m")
        report = dest.merge(ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b"))
        assert report.metas_added == 1
        assert dest.get_meta("figX", "abc123", 0).elapsed_seconds == 5.0
        # Re-merging the slower shard changes nothing (max is monotone).
        again = dest.merge(ResultStore(tmp_path / "b"))
        assert again.metas_added == 0 and again.metas_updated == 0
        assert dest.get_meta("figX", "abc123", 0).elapsed_seconds == 5.0

    def test_headers_naming_other_kernel_sets_merge(self, tmp_path):
        # ``backend`` is informational: shards written while other kernel
        # implementations existed merge with today's ``"numpy"`` headers.
        a = ResultStore(tmp_path / "a")
        a.put_meta(self._meta(backend="jit"))
        dest = ResultStore(tmp_path / "m")
        dest.put_meta(self._meta(backend="numpy"))
        report = dest.merge(ResultStore(tmp_path / "a"))
        assert report.metas_added == 0
        assert dest.get_meta("figX", "abc123", 0).backend == "numpy"
        reopened = ResultStore(tmp_path / "a").get_meta("figX", "abc123", 0)
        assert reopened == self._meta(backend="jit")

    def test_differing_meta_conflicts(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.put_meta(self._meta())
        dest = ResultStore(tmp_path / "m")
        dest.put_meta(self._meta(curves=["H2", "H4w", "MIP"]))
        with pytest.raises(ExperimentError) as excinfo:
            dest.merge(ResultStore(tmp_path / "a"))
        assert "run header" in str(excinfo.value)


class TestExperimentResultRoundTrip:
    def test_save_and_load_result(self, tmp_path):
        result = run_scenario(_scenario(), seed=5, figure_id="figX")
        store = ResultStore(tmp_path / "s")
        store.save_result(result)
        loaded = store.load_result("figX")
        assert loaded.figure_id == result.figure_id
        assert loaded.scenario == result.scenario
        assert loaded.seed == result.seed
        assert loaded.milp_failures == result.milp_failures
        assert {l: s.samples for l, s in loaded.series.items()} == {
            l: s.samples for l, s in result.series.items()
        }
        assert loaded.normalized is None

    def test_round_trip_preserves_normalisation(self, tmp_path):
        result = run_scenario(
            _scenario(sweep_values=(4,)),
            seed=2,
            figure_id="figN",
            include_milp=True,
            normalize_to="MIP",
        )
        store = ResultStore(tmp_path / "s")
        store.save_result(result)
        loaded = store.load_result("figN")
        assert set(loaded.normalized) == set(result.normalized)
        for label in result.normalized:
            assert loaded.normalized[label].samples == result.normalized[label].samples

    def test_load_requires_complete_run(self, tmp_path):
        result = run_scenario(_scenario(), seed=5, figure_id="figX")
        store = ResultStore(tmp_path / "s")
        store.save_result(result)
        # Wipe the cell index entry for one block: loading must complain.
        key = next(k for k in store._cells if "|H4w|6" in k)
        del store._cells[key]
        with pytest.raises(ExperimentError):
            store.load_result("figX")

    def test_load_unknown_figure_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ExperimentError):
            store.load_result("fig404")

    def test_ambiguous_load_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for seed in (1, 2):
            store.save_result(run_scenario(_scenario(), seed=seed, figure_id="figX"))
        with pytest.raises(ExperimentError):
            store.load_result("figX")
        assert store.load_result("figX", seed=2).seed == 2

    def test_save_requires_seed(self, tmp_path):
        result = run_scenario(_scenario(), seed=None, figure_id="figX")
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ExperimentError):
            store.save_result(result)

    def test_catalog(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.save_result(run_scenario(_scenario(), seed=5, figure_id="figX"))
        rows = store.catalog()
        assert len(rows) == 1
        assert rows[0]["figure"] == "figX"
        assert rows[0]["complete"] is True
        assert rows[0]["cells"] == "4/4"


class TestCompactConcurrency:
    """``compact()`` racing a concurrent reader / appender.

    A store is single-writer by contract, but compaction must stay safe
    against the concurrency the base class *does* promise: independent
    reader instances (other processes) heal their stale index after the
    records file is rewritten underneath them, and a same-process
    appender thread never corrupts the log or crashes the sweep — every
    record fully stored before a ``compact()`` starts survives it.
    """

    @staticmethod
    def _cell(i: int, generation: int = 0) -> CellRecord:
        return _record(
            sweep_value=i,
            values=[float(generation)] * 3,
        )

    def test_stale_reader_instance_heals_after_compact(self, tmp_path):
        writer = ResultStore(tmp_path / "s")
        for i in range(10):
            writer.put_cell(self._cell(i, generation=0))
        reader = ResultStore(tmp_path / "s")
        assert reader.get_cell("figX", "abc123", 0, "H4w", 3).values[0] == 0.0
        # Re-put every key and compact: the records file is rewritten and
        # every offset the reader cached is now wrong.
        for i in range(10):
            writer.put_cell(self._cell(i, generation=1))
        assert writer.compact() > 0
        # Point lookups and the bulk scan both heal and see generation 1.
        healed = reader.get_cell("figX", "abc123", 0, "H4w", 7)
        assert healed.values == [1.0, 1.0, 1.0]
        assert sorted(cell.sweep_value for cell in reader.cells()) == list(range(10))
        assert all(cell.values == [1.0, 1.0, 1.0] for cell in reader.cells())

    def test_reader_survives_a_compact_between_rescan_and_read(self, tmp_path):
        writer = ResultStore(tmp_path / "s")
        for i in range(8):
            writer.put_cell(self._cell(i, generation=0))
        reader = ResultStore(tmp_path / "s")
        # Compaction keeps append order: re-putting keys 0-4 moves key 5
        # to the front, so the reader's offsets are stale.
        for i in range(5):
            writer.put_cell(self._cell(i, generation=1))
        writer.compact()
        scan = reader._scan

        def scan_then_compact() -> None:
            # Another instance compacts right after the reader's rescan and
            # moves key 5 back behind keys 0-4.
            scan()
            reader._scan = scan
            for i in range(5, 8):
                writer.put_cell(self._cell(i, generation=2))
            writer.compact()

        reader._scan = scan_then_compact
        cell = reader.get_cell("figX", "abc123", 0, "H4w", 5)
        assert cell.sweep_value == 5 and cell.values == [2.0, 2.0, 2.0]

    def test_reader_thread_racing_repeated_compacts(self, tmp_path):
        import threading

        writer = ResultStore(tmp_path / "s")
        for i in range(8):
            writer.put_cell(self._cell(i, generation=0))
        reader = ResultStore(tmp_path / "s")
        errors: list[BaseException] = []
        observed: set[float] = set()
        stop = threading.Event()

        def read_loop() -> None:
            try:
                while not stop.is_set():
                    cell = reader.get_cell("figX", "abc123", 0, "H4w", 5)
                    assert cell is not None
                    observed.add(cell.values[0])
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        thread = threading.Thread(target=read_loop)
        thread.start()
        try:
            for generation in range(1, 30):
                for i in range(8):
                    writer.put_cell(self._cell(i, generation=generation))
                writer.compact()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors
        # Every observed value is a real generation, never torn garbage.
        assert observed <= {float(generation) for generation in range(30)}

    def test_appender_thread_racing_compact_loses_nothing(self, tmp_path):
        import threading

        store = ResultStore(tmp_path / "s")
        total = 200
        errors: list[BaseException] = []

        def append_loop() -> None:
            try:
                for i in range(total):
                    store.put_cell(self._cell(i))
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=append_loop)
        thread.start()
        compactions = 0
        try:
            while thread.is_alive():
                store.compact()
                compactions += 1
        finally:
            thread.join(timeout=30)
        assert not errors
        assert compactions > 0
        # Every completed put survived every interleaved compaction: the
        # instance lock keeps an append out of the compactor's file swap.
        assert {cell.sweep_value for cell in store.cells()} == set(range(total))
        reopened = ResultStore(tmp_path / "s")
        assert {cell.sweep_value for cell in reopened.cells()} == set(range(total))
        for cell in reopened.cells():
            assert cell.values == [0.0, 0.0, 0.0]
