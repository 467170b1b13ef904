#!/usr/bin/env python
"""CI smoke check of the solve service, end to end over real HTTP.

Two phases, each against a fresh ``microrepro serve`` subprocess on a
free port:

**Phase 1 — mixed traffic through the worker pool** (``--workers 2``):
fires a mix of concurrent solve requests — several signatures, several
heuristics, deliberate duplicates — through ``ServiceClient``, and
asserts:

* every response is **bit-for-bit identical** to the direct (unbatched,
  uncached) reference solve of the same request;
* the duplicates produced cache hits (``/stats`` cache counter > 0);
* the service actually grouped compatible requests (at least one
  multi-request flush);
* ``/stats`` accounting adds up (solved == requests fired, errors == 0)
  and reports latency percentiles (p50/p95/p99 > 0).

**Phase 2 — overload** (``--max-pending 2`` and a long window): fires a
burst of distinct concurrent requests, and asserts:

* at least one request was load-shed with HTTP 429 carrying a
  ``Retry-After`` hint (surfaced client-side as
  :class:`~repro.exceptions.ServiceOverloadedError`);
* every shed request, retried, eventually got the bit-for-bit correct
  response;
* shedding is accounted as ``shed``, never as ``errors``.

**Phase 3 — telemetry** (``--trace <tmpdir>``): one traced round trip
through a 2-process worker pool, and asserts:

* a caller-supplied ``X-Request-Id`` is echoed back verbatim, and a
  request without one gets a server-generated id;
* ``GET /v1/metrics`` returns valid Prometheus text (``# TYPE`` lines,
  well-formed samples) covering the service/batcher/cache/session
  series, and ``/v1/stats`` carries the same registry snapshot;
* the span log is non-empty and links the HTTP request to its batcher
  group and to the pool worker's solve under one trace id — across the
  process boundary.

Exit code 0 on success; any assertion or timeout kills the server and
exits non-zero.  Runs from a source checkout::

    python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import queue
import re
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exceptions import ServiceOverloadedError  # noqa: E402 - path bootstrap
from repro.service import (  # noqa: E402 - path bootstrap above
    ServiceClient,
    direct_response,
    normalize_request,
)

STARTUP_TIMEOUT = 30.0
#: How long a shed request keeps retrying before the smoke gives up.
RETRY_TIMEOUT = 60.0


def solve_once(url: str, payload: dict) -> dict:
    """One solve on a fresh connection; a 429 raises instead of retrying."""
    with ServiceClient(url, retries=0) as client:
        return client.solve(payload)


def stats_of(url: str) -> dict:
    with ServiceClient(url) as client:
        return client.stats()


def request_mix() -> list[dict]:
    """~20 requests: 3 signatures, mixed heuristics, with duplicates."""
    mix = []
    # 8 compatible H4w requests (one signature, distinct seeds).
    for seed in range(8):
        mix.append(
            {
                "heuristic": "H4w",
                "application": {"tasks": 20, "types": 3},
                "platform": {"machines": 6},
                "options": {"seed": seed},
            }
        )
    # 5 compatible H2 requests on a different platform.
    for seed in range(5):
        mix.append(
            {
                "heuristic": "H2",
                "application": {"tasks": 15, "types": 2},
                "platform": {"machines": 4},
                "options": {"seed": seed},
            }
        )
    # 3 randomized-heuristic requests (per-instance fallback path).
    for seed in range(3):
        mix.append(
            {
                "heuristic": "H1",
                "application": {"tasks": 10, "types": 2},
                "platform": {"machines": 5},
                "options": {"seed": seed},
            }
        )
    return mix


def burst_requests() -> list[dict]:
    """12 distinct same-signature requests for the overload phase."""
    return [
        {
            "heuristic": "H4w",
            "application": {"tasks": 25, "types": 3},
            "platform": {"machines": 6},
            "options": {"seed": seed},
        }
        for seed in range(12)
    ]


def start_server(*extra_args: str) -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    # readline() on the pipe blocks, which would let a wedged server
    # hang the job past STARTUP_TIMEOUT — read on a daemon thread and
    # poll its queue with a real deadline instead.
    lines: queue.Queue[str] = queue.Queue()
    threading.Thread(
        target=lambda: [lines.put(line) for line in process.stdout],
        daemon=True,
    ).start()
    deadline = time.time() + STARTUP_TIMEOUT
    seen: list[str] = []
    while time.time() < deadline:
        if process.poll() is not None and lines.empty():
            raise RuntimeError(
                f"server exited early (rc={process.returncode}): {seen[-3:]!r}"
            )
        try:
            line = lines.get(timeout=0.2)
        except queue.Empty:
            continue
        seen.append(line)
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return process, match.group(1)
    raise RuntimeError(
        f"server did not announce a URL in {STARTUP_TIMEOUT}s: {seen[-3:]!r}"
    )


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()


def check_equivalence(requests: list[dict], responses: list[dict]) -> int:
    """Count response fields diverging from the direct reference solves."""
    failures = 0
    for payload, response in zip(requests, responses):
        reference = direct_response(normalize_request(payload))
        for field in ("assignment", "period", "throughput", "key"):
            if response[field] != reference[field]:
                failures += 1
                print(
                    f"MISMATCH {payload}: {field} service={response[field]!r} "
                    f"direct={reference[field]!r}"
                )
    return failures


def report(checks: list[tuple[bool, str]]) -> bool:
    ok = True
    for passed, label in checks:
        print(("PASS" if passed else "FAIL"), label)
        ok = ok and passed
    return ok


def phase_mixed_traffic() -> bool:
    """Phase 1: the request mix through a 2-process worker pool."""
    print("== phase 1: mixed traffic, --workers 2 ==")
    # A generous batching window: the grouping assertion below must hold
    # even when a loaded CI runner staggers the concurrent wave's
    # arrivals by tens of milliseconds.
    process, url = start_server("--window-ms", "100", "--workers", "2")
    try:
        unique = request_mix()
        # Wave 1: fire every unique request concurrently so the batching
        # window actually has company to group.
        with ThreadPoolExecutor(max_workers=len(unique)) as pool:
            responses = list(
                pool.map(lambda payload: solve_once(url, payload), unique)
            )
        # Wave 2: re-fire a few duplicates after the first wave settled —
        # these must be answered from the solve cache.
        duplicates = [dict(unique[0]), dict(unique[3]), dict(unique[8]), dict(unique[13])]
        duplicate_responses = [solve_once(url, payload) for payload in duplicates]
        requests = unique + duplicates
        responses = responses + duplicate_responses

        not_cached = [
            payload
            for payload, response in zip(duplicates, duplicate_responses)
            if not response.get("cached")
        ]
        if not_cached:
            print(f"FAIL: duplicate request(s) missed the cache: {not_cached}")
            return False

        failures = check_equivalence(requests, responses)
        if failures:
            print(f"FAIL: {failures} response field(s) diverged from direct solves")
            return False
        print(f"{len(responses)} service responses bit-for-bit match direct solves")

        stats = stats_of(url)
        print("stats:", stats)
        service, batcher, cache = stats["service"], stats["batcher"], stats["cache"]
        return report(
            [
                (service["errors"] == 0, "no request errors"),
                (service["solved"] == len(requests), "every request accounted for"),
                (cache["hits"] >= len(duplicates), "duplicates hit the cache"),
                (batcher["max_group"] > 1, "compatible requests were grouped"),
                (stats["workers"] == 2, "worker pool attached"),
                (
                    all(
                        service[key] > 0
                        for key in (
                            "latency_p50_ms",
                            "latency_p95_ms",
                            "latency_p99_ms",
                        )
                    ),
                    "latency percentiles reported",
                ),
            ]
        )
    finally:
        stop_server(process)


def phase_overload() -> bool:
    """Phase 2: shed a concurrent burst, retry it to completion."""
    print("== phase 2: overload, --max-pending 2 ==")
    # A long window holds each admitted group open, so the burst's
    # arrivals reliably find the queue full and get shed.
    process, url = start_server(
        "--window-ms", "300", "--workers", "2", "--max-pending", "2"
    )
    try:
        requests = burst_requests()
        shed_hints: list[float] = []

        def ask(payload: dict) -> dict:
            deadline = time.time() + RETRY_TIMEOUT
            while True:
                try:
                    return solve_once(url, payload)
                except ServiceOverloadedError as exc:
                    if exc.retry_after_seconds is None or exc.retry_after_seconds < 1:
                        raise RuntimeError(
                            f"429 without a usable Retry-After hint: "
                            f"{exc.retry_after_seconds!r}"
                        )
                    shed_hints.append(exc.retry_after_seconds)
                    if time.time() > deadline:
                        raise RuntimeError(
                            f"request still shed after {RETRY_TIMEOUT}s: {payload}"
                        )
                    # Back off far less than the advertised hint so the
                    # phase stays fast; correctness only needs the hint
                    # to have been delivered.
                    time.sleep(0.2)

        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            responses = list(pool.map(ask, requests))

        failures = check_equivalence(requests, responses)
        if failures:
            print(f"FAIL: {failures} shed-then-retried field(s) diverged")
            return False
        print(
            f"{len(responses)} burst responses bit-for-bit match direct solves "
            f"({len(shed_hints)} shed-and-retried)"
        )

        stats = stats_of(url)
        print("stats:", stats)
        service = stats["service"]
        return report(
            [
                (len(shed_hints) >= 1, "burst actually overloaded the queue"),
                (service["shed"] >= 1, "shedding surfaced in /stats"),
                (stats["batcher"]["shed"] >= 1, "batcher admission counted it"),
                (service["errors"] == 0, "shed requests are not errors"),
                (service["solved"] == len(requests), "every request eventually solved"),
            ]
        )
    finally:
        stop_server(process)


#: Series every scrape must expose once a solve went through — one per
#: instrumented subsystem (service, batcher, cache, sessions).
REQUIRED_SERIES = (
    "repro_service_requests_total",
    "repro_service_latency_seconds_bucket",
    "repro_batcher_requests_total",
    "repro_cache_misses_total",
    "repro_sessions_lifecycle_total",
)

#: A well-formed Prometheus text sample: name, optional labels, value.
SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+infa]+$")


def check_prometheus_text(text: str) -> list[tuple[bool, str]]:
    """Format checks over one ``/v1/metrics`` scrape."""
    lines = text.splitlines()
    samples = [line for line in lines if line and not line.startswith("#")]
    typed = {
        line.split()[2]
        for line in lines
        if line.startswith("# TYPE ") and len(line.split()) == 4
    }
    malformed = [line for line in samples if not SAMPLE_RE.match(line)]
    if malformed:
        print(f"malformed sample lines: {malformed[:5]}")
    missing = [
        series
        for series in REQUIRED_SERIES
        if not any(line.startswith(series) for line in samples)
    ]
    if missing:
        print(f"missing series: {missing}")
    return [
        (bool(samples), "scrape carries sample lines"),
        (not malformed, "every sample line is well-formed"),
        (bool(typed), "scrape carries # TYPE headers"),
        (not missing, "service/batcher/cache/session series present"),
    ]


def load_spans(trace_dir: str) -> list[dict]:
    """Every span record in the trace log, in append order."""
    trace_file = Path(trace_dir) / "trace.jsonl"
    if not trace_file.exists():
        return []
    spans = []
    for line in trace_file.read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") == "span":
            spans.append(record["data"])
    return spans


def phase_telemetry() -> bool:
    """Phase 3: request ids, /v1/metrics scrape, cross-process span tree."""
    print("== phase 3: telemetry, --trace ==")
    trace_dir = tempfile.mkdtemp(prefix="smoke-trace-")
    process, url = start_server(
        "--window-ms", "50", "--workers", "2", "--trace", trace_dir
    )
    try:
        client = ServiceClient(url)
        payload = {
            "heuristic": "H4w",
            "application": {"tasks": 20, "types": 3},
            "platform": {"machines": 6},
            "options": {"seed": 0},
        }
        response = client.solve(payload, request_id="smoke-trace-1")
        echoed = client.last_request_id
        reference = direct_response(normalize_request(payload))
        if response["assignment"] != reference["assignment"]:
            print("FAIL: traced response diverged from the direct solve")
            return False

        client.solve({**payload, "options": {"seed": 1}})
        generated = client.last_request_id

        metrics_text = client.metrics()
        stats = client.stats()
    finally:
        stop_server(process)

    spans = load_spans(trace_dir)
    by_id = {record["span_id"]: record for record in spans}
    http_spans = [
        record
        for record in spans
        if record["name"] == "http.request"
        and record.get("request_id") == "smoke-trace-1"
    ]
    groups = [record for record in spans if record["name"] == "batcher.group"]
    worker_solves = [record for record in spans if record["name"] == "pool.worker_solve"]
    trace_ids = {record["trace_id"] for record in http_spans}
    linked_groups = [
        record for record in groups if by_id.get(record.get("parent_id", ""), {}).get("name") == "http.request"
    ]
    linked_solves = [
        record for record in worker_solves if record["trace_id"] in {g["trace_id"] for g in groups}
    ]

    checks = [
        (echoed == "smoke-trace-1", "caller's X-Request-Id echoed back"),
        (bool(generated) and generated != "smoke-trace-1", "request id generated when absent"),
        ("metrics" in stats, "/v1/stats carries the registry snapshot"),
        (bool(spans), "trace log is non-empty"),
        (len(http_spans) == 1 and len(trace_ids) == 1, "traced request logged one http.request span"),
        (bool(linked_groups), "batcher group parented on the http request"),
        (bool(linked_solves), "pool worker solve joined the trace across the process boundary"),
    ]
    checks.extend(check_prometheus_text(metrics_text))
    print(
        f"{len(spans)} spans in {trace_dir} "
        f"({len(groups)} groups, {len(worker_solves)} pool worker solves)"
    )
    return report(checks)


def main() -> int:
    ok = phase_mixed_traffic()
    ok = phase_overload() and ok
    ok = phase_telemetry() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
