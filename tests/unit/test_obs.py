"""Unit tests for the unified telemetry subsystem (`repro.obs`).

Covers the metrics registry and its Prometheus exposition, the span
tracer (including propagation across executor threads, worker
processes and the DAG's stealing dispatch), the `/v1/metrics` endpoint
with `X-Request-Id` attribution, and the `trace summarize` CLI.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.obs import trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    RESERVOIR_SIZE,
    Histogram,
    MetricsRegistry,
    nearest_rank,
)
from repro.obs.summary import format_table, format_tree, load_spans, summarize_spans
from repro.obs.trace import (
    TraceContext,
    TraceStore,
    request_id_or_new,
    span,
)
from repro.service.client import ServiceClient
from repro.service.requests import normalize_request, solve_group
from repro.service.server import SolveService
from repro.workers import WorkerPool, run_traced
from tests.helpers import fail_next_append


@pytest.fixture(autouse=True)
def _no_leaked_tracing():
    """Tracing is process-global state; never let a test leak it."""
    yield
    trace.disable()


def make_payload(**overrides) -> dict:
    payload = {
        "heuristic": "H4w",
        "application": {"tasks": 10, "types": 3},
        "platform": {"machines": 5},
        "options": {"seed": 0, "repetition": 0},
    }
    for key, value in overrides.items():
        if key in ("tasks", "types"):
            payload["application"][key] = value
        elif key == "machines":
            payload["platform"][key] = value
        elif key in ("seed", "repetition"):
            payload["options"][key] = value
        else:
            payload[key] = value
    return payload


class TestMetricsPrimitives:
    def test_counter_stays_int_and_rejects_decrements(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert isinstance(counter.value, int)
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_set_and_high_water_mark(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3)
        gauge.max(2)
        assert gauge.value == 3
        gauge.max(7)
        assert gauge.value == 7

    def test_histogram_buckets_are_cumulative_with_le_semantics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.01, 0.5, 5.0):
            histogram.observe(value)
        child = histogram.labels()
        # le=0.01 covers 0.005 and the exact boundary 0.01.
        assert child.bucket_counts() == [2, 2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(5.515)


class TestHistogramRecentSamples:
    """The ``/v1/stats`` percentiles come from a histogram's recent samples."""

    def test_nearest_rank_percentiles_are_exact(self):
        histogram = Histogram()
        for ms in range(1, 101):
            histogram.observe(ms / 1000.0)
        assert histogram.percentile(0.50) == pytest.approx(0.050)
        assert histogram.percentile(0.95) == pytest.approx(0.095)
        assert histogram.percentile(0.99) == pytest.approx(0.099)
        assert histogram.percentile(1.0) == pytest.approx(0.100)
        assert histogram.max == pytest.approx(0.100)
        assert nearest_rank([], 0.5) == 0.0

    def test_ring_keeps_only_the_most_recent_samples(self):
        histogram = Histogram()
        for value in range(1, RESERVOIR_SIZE + 3):
            histogram.observe(float(value))
        # 1.0 and 2.0 were overwritten: the window is {3, ..., size + 2}.
        assert histogram.percentile(1.0 / RESERVOIR_SIZE) == 3.0
        assert histogram.percentile(1.0) == float(RESERVOIR_SIZE + 2)
        # The buckets, sum, count and max still cover every sample.
        assert histogram.count == RESERVOIR_SIZE + 2
        assert histogram.bucket_counts()[-1] == RESERVOIR_SIZE + 2
        assert histogram.max == float(RESERVOIR_SIZE + 2)

    def test_empty_histogram_reports_zero(self):
        histogram = Histogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.max == 0


class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", labels=("tier",))

    def test_labeled_children_and_label_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", labels=("tier",))
        family.labels(tier="memory").inc(2)
        family.labels(tier="store").inc()
        assert family.labels(tier="memory").value == 2
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(level="memory")
        with pytest.raises(ValueError, match="use .labels"):
            family.inc()

    def test_render_is_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "Things counted.").inc(3)
        registry.counter("repro_hits_total", labels=("tier",)).labels(
            tier='we"ird\n'
        ).inc()
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render()
        assert "# HELP repro_x_total Things counted.\n" in text
        assert "# TYPE repro_x_total counter\n" in text
        assert "repro_x_total 3\n" in text
        # Label values escape quotes and newlines.
        assert 'repro_hits_total{tier="we\\"ird\\n"} 1' in text
        # Cumulative buckets end at +Inf and agree with _count.
        assert 'repro_lat_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_sum 0.5" in text
        assert "repro_lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b", labels=("k",)).labels(k="v").set(2)
        registry.histogram("c_seconds").observe(0.2)
        snapshot = registry.snapshot()
        assert snapshot["a_total"] == {"kind": "counter", "samples": {"": 1}}
        assert snapshot["b"]["samples"] == {'{k="v"}': 2}
        assert snapshot["c_seconds"]["samples"][""]["count"] == 1
        json.dumps(snapshot)  # must serialize as-is

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestTracer:
    def test_disabled_span_is_a_shared_noop(self):
        first = span("anything", attr=1)
        second = span("else")
        assert first is second
        with first as live:
            live.set(more=2)  # must not raise
        assert trace.current_context() is None
        assert not trace.tracing_active()

    def test_nested_spans_share_a_trace_and_link_parents(self, tmp_path):
        store = trace.configure(tmp_path / "traces")
        with span("outer", site="test") as outer:
            with span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        trace.disable()
        records = {r["name"]: r for r in load_spans(tmp_path / "traces")}
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["outer"]["parent_id"] is None
        assert records["outer"]["site"] == "test"
        assert records["inner"]["duration"] <= records["outer"]["duration"]
        assert str(store.path) == str(tmp_path / "traces")

    def test_span_log_keeps_append_order_and_skips_a_torn_line(self, tmp_path):
        # Span ids sort against append order here, so a keyed read would
        # reorder them.
        store = TraceStore(tmp_path / "traces")
        for span_id in ("c", "b"):
            store.put_span({"span_id": span_id, "name": "appended"})
        log = tmp_path / "traces" / "trace.jsonl"
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"span_id": "torn", "na')  # an interrupted writer
        TraceStore(tmp_path / "traces").put_span({"span_id": "a", "name": "appended"})
        assert [r["span_id"] for r in load_spans(tmp_path / "traces")] == ["c", "b", "a"]
        assert load_spans(log) == load_spans(tmp_path / "traces")
        assert log.read_text(encoding="utf-8").count("\n") == 4
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == ["trace.jsonl"]

    def test_failed_append_does_not_swallow_the_next_span(self, tmp_path, monkeypatch):
        # A write that fails part-way (a full disk) leaves a torn line;
        # the next span must start on a fresh line or it is lost with it.
        store = TraceStore(tmp_path / "traces")
        store.put_span({"span_id": "a", "name": "first"})
        fail_next_append(monkeypatch)
        with pytest.raises(OSError):
            store.put_span({"span_id": "b", "name": "failed"})
        store.put_span({"span_id": "c", "name": "last"})
        assert [r["span_id"] for r in load_spans(tmp_path / "traces")] == ["a", "c"]

    def test_exceptions_are_recorded_and_propagate(self, tmp_path):
        trace.configure(tmp_path / "traces")
        with pytest.raises(ValueError, match="boom"):
            with span("fails"):
                raise ValueError("boom")
        trace.disable()
        (record,) = load_spans(tmp_path / "traces")
        assert record["error"] == "ValueError: boom"

    def test_capture_buffers_instead_of_the_store(self, tmp_path):
        trace.configure(tmp_path / "traces")
        with trace.capture() as buffered:
            with span("worker.side"):
                pass
        assert [r["name"] for r in buffered] == ["worker.side"]
        assert load_spans(tmp_path / "traces") == []  # nothing hit the store
        trace.emit_spans(buffered)
        assert [r["name"] for r in load_spans(tmp_path / "traces")] == ["worker.side"]

    def test_emit_timing_parents_at_the_current_span(self, tmp_path):
        trace.configure(tmp_path / "traces")
        with span("solve") as solve_span:
            trace.emit_timing("kernel.fake", 0.25, calls=10)
        trace.disable()
        records = {r["name"]: r for r in load_spans(tmp_path / "traces")}
        kernel = records["kernel.fake"]
        assert kernel["parent_id"] == solve_span.span_id
        assert kernel["duration"] == 0.25
        assert kernel["calls"] == 10
        # Back-dated so the synthetic span nests inside its parent.
        assert kernel["start"] <= records["solve"]["start"] + records["solve"]["duration"]

    def test_activate_reenters_a_foreign_context(self):
        context = TraceContext(trace.new_id(), trace.new_id())
        with trace.activate(context):
            assert trace.current_context() == context
        assert trace.current_context() is None
        with trace.activate(None):
            assert trace.current_context() is None

    def test_request_id_validation(self):
        assert request_id_or_new("abc-123.x_y") == "abc-123.x_y"
        for bad in (None, "", "has space", "UPPER", "x" * 65):
            generated = request_id_or_new(bad)
            assert generated.startswith("r")
            assert len(generated) == 17


class TestSummarize:
    def _chain(self, names, durations):
        """A single trace: names[0] parents names[1] parents ..."""
        trace_id = trace.new_id()
        spans, parent = [], None
        for index, (name, duration) in enumerate(zip(names, durations)):
            span_id = f"s{index}"
            spans.append(
                {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent,
                    "name": name,
                    "start": float(index),
                    "duration": duration,
                }
            )
            parent = span_id
        return spans

    def test_self_time_telescopes_to_the_root_latency(self):
        spans = self._chain(["root", "mid", "leaf"], [1.0, 0.7, 0.3])
        aggregates = {a.name: a for a in summarize_spans(spans)}
        assert aggregates["root"].self_seconds == pytest.approx(0.3)
        assert aggregates["mid"].self_seconds == pytest.approx(0.4)
        assert aggregates["leaf"].self_seconds == pytest.approx(0.3)
        total_self = sum(a.self_seconds for a in aggregates.values())
        assert total_self == pytest.approx(1.0)  # == the root's latency

    def test_self_time_floors_at_zero(self):
        spans = self._chain(["root", "child"], [0.1, 0.5])  # child outlives root
        aggregates = {a.name: a for a in summarize_spans(spans)}
        assert aggregates["root"].self_seconds == 0.0

    def test_format_table_and_tree(self):
        spans = self._chain(["root", "leaf"], [1.0, 0.4])
        table = format_table(summarize_spans(spans))
        assert "span" in table and "self_%" in table
        assert "root" in table and "leaf" in table
        tree = format_tree(spans)
        assert tree.splitlines()[0].startswith("trace ")
        assert "- root 1000.000 ms" in tree
        assert "  - leaf 400.000 ms" in tree

    def test_cli_trace_summarize(self, tmp_path, capsys):
        trace.configure(tmp_path / "traces")
        with span("cli.outer"):
            with span("cli.inner"):
                pass
        trace.disable()
        assert main(["trace", "summarize", str(tmp_path / "traces"), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "cli.outer" in out and "cli.inner" in out
        assert "trace " in out  # the --tree section
        assert main(["trace", "summarize", str(tmp_path / "traces"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 2
        assert {a["name"] for a in payload["aggregates"]} == {"cli.outer", "cli.inner"}


class TestPropagation:
    def test_pool_worker_spans_carry_the_callers_context(self):
        """Spans made inside a worker process join the caller's trace."""
        context = TraceContext(trace.new_id(), trace.new_id())
        requests = tuple(
            normalize_request(make_payload(seed=seed)) for seed in range(2)
        )
        with WorkerPool(1) as pool:
            (responses, batched), spans = pool.call(
                run_traced,
                solve_group,
                (requests,),
                context,
                "pool.worker_solve",
                requests=len(requests),
            )
        reference, reference_batched = solve_group(requests)
        assert responses == reference  # tracing never changes results
        assert batched is reference_batched
        by_name = {r["name"]: r for r in spans}
        solve_span = by_name["pool.worker_solve"]
        assert solve_span["trace_id"] == context.trace_id
        assert solve_span["parent_id"] == context.span_id
        assert solve_span["requests"] == 2
        # Kernel timings (if any kernels ran) nest under the solve span.
        for record in spans:
            if record["name"].startswith("kernel."):
                assert record["trace_id"] == context.trace_id
                assert record["parent_id"] == solve_span["span_id"]

    def test_dag_parallel_block_jobs_join_the_pipeline_trace(self, tmp_path):
        from repro.campaign import CampaignManifest, run_pipeline
        from repro.experiments.store import ResultStore

        manifest = CampaignManifest(
            figures=("fig5",),
            seeds=(0,),
            repetitions=2,
            max_points=2,
            no_milp=True,
            milp_time_limit=30.0,
        )
        trace.configure(tmp_path / "traces")
        store = ResultStore(tmp_path / "s")
        run_pipeline(manifest, store, workers=2)
        trace.disable()
        spans = load_spans(tmp_path / "traces")
        by_name: dict[str, list[dict]] = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        (pipeline_span,) = by_name["dag.pipeline"]
        (dispatch_span,) = by_name["dag.dispatch"]
        assert dispatch_span["trace_id"] == pipeline_span["trace_id"]
        blocks = by_name["dag.block_job"]
        assert len(blocks) == dispatch_span["executed"]
        for block in blocks:
            # Produced inside pool worker processes, yet part of the
            # dispatching trace, hung off the dispatch span.
            assert block["trace_id"] == pipeline_span["trace_id"]
            assert block["parent_id"] == dispatch_span["span_id"]

    def test_parallel_in_memory_run_traces_its_block_jobs(self, tmp_path):
        # run_scenario(workers=N) dispatches through the same executor as
        # a campaign, so its workers' spans join the caller's trace too.
        from repro.experiments import run_scenario
        from repro.generators import ScenarioConfig

        scenario = ScenarioConfig(
            name="traced-run",
            num_machines=5,
            num_types=2,
            sweep="tasks",
            sweep_values=(6, 9),
            repetitions=2,
            heuristics=("H2", "H4w"),
        )
        trace.configure(tmp_path / "traces")
        traced = run_scenario(scenario, seed=3, workers=2)
        trace.disable()
        assert traced.series == run_scenario(scenario, seed=3).series
        by_name: dict[str, list[dict]] = {}
        for record in load_spans(tmp_path / "traces"):
            by_name.setdefault(record["name"], []).append(record)
        (dispatch_span,) = by_name["dag.dispatch"]
        blocks = by_name["dag.block_job"]
        # One job per sweep point, each scoring both curves.
        assert len(blocks) == dispatch_span["executed"] == 2
        assert [block["curves"] for block in blocks] == [2, 2]
        assert sorted(block["sweep_value"] for block in blocks) == [6, 9]
        for block in blocks:
            assert block["trace_id"] == dispatch_span["trace_id"]
            assert block["parent_id"] == dispatch_span["span_id"]

    def test_http_request_trace_links_batcher_pool_and_cache(self, tmp_path):
        trace.configure(tmp_path / "traces")

        async def scenario():
            service = SolveService(port=0, cache_dir=None)
            await service.start()
            loop = asyncio.get_running_loop()
            client = ServiceClient(service.url)
            try:
                response = await loop.run_in_executor(
                    None,
                    lambda: client.solve(make_payload(seed=3), request_id="trace-me-1"),
                )
                echoed = client.last_request_id
                metrics_text = await loop.run_in_executor(None, client.metrics)
                stats = await loop.run_in_executor(None, client.stats)
            finally:
                client.close()
                await service.stop()
            return response, echoed, metrics_text, stats

        response, echoed, metrics_text, stats = asyncio.run(scenario())
        trace.disable()
        assert response["period"] > 0
        assert echoed == "trace-me-1"  # client id echoed back verbatim

        # /v1/metrics is Prometheus text covering every stats family.
        assert "# TYPE repro_service_requests_total counter" in metrics_text
        assert "repro_service_requests_total 1" in metrics_text
        for series in (
            "repro_batcher_requests_total",
            "repro_cache_misses_total",
            "repro_sessions_lifecycle_total",
            "repro_service_latency_seconds_bucket",
        ):
            assert series in metrics_text, series
        # /v1/stats carries the registry snapshot; the two cannot drift.
        assert stats["metrics"]["repro_service_requests_total"]["samples"][""] == 1
        assert stats["service"]["solved"] == 1

        spans = load_spans(tmp_path / "traces")
        by_name: dict[str, list[dict]] = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        request_span = next(
            r for r in by_name["http.request"] if r.get("request_id") == "trace-me-1"
        )
        trace_id = request_span["trace_id"]
        (group_span,) = by_name["batcher.group"]
        (roundtrip_span,) = by_name["pool.roundtrip"]
        (worker_span,) = by_name["pool.worker_solve"]
        (write_span,) = by_name["cache.write"]
        chain = [group_span, roundtrip_span, worker_span, write_span]
        assert all(record["trace_id"] == trace_id for record in chain)
        # The tree: request -> group -> roundtrip -> worker solve, and
        # the cache write also hangs off the group.
        assert group_span["parent_id"] == request_span["span_id"]
        assert roundtrip_span["parent_id"] == group_span["span_id"]
        assert worker_span["parent_id"] == roundtrip_span["span_id"]
        assert write_span["parent_id"] == group_span["span_id"]
        # Coalesced attribution: the group names the request keys it served.
        assert normalize_request(make_payload(seed=3)).key in group_span["request_keys"]

        # `trace summarize` invariant: inside the group subtree the self
        # times telescope back to the group's end-to-end latency.
        subtree = {
            group_span["span_id"],
            roundtrip_span["span_id"],
            worker_span["span_id"],
            write_span["span_id"],
        }
        members = [
            r
            for r in spans
            if r["span_id"] in subtree
            or (r["parent_id"] in subtree and r["name"].startswith("kernel."))
        ]
        total_self = sum(
            a.self_seconds for a in summarize_spans(members)
        )
        assert total_self == pytest.approx(group_span["duration"], rel=0.15, abs=5e-3)
