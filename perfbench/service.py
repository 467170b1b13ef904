"""``service``: a ``microrepro serve --workers 1`` subprocess under load.

One benchmark process runs a closed loop of two keep-alive
``ServiceClient`` threads against the server.  Each sends its next
request only after the previous answer.  The seeded mix is:

* three of every four requests are distinct, cycling over six
  (heuristic, n, p, m) shapes from H2 n=30 m=10 to H4w/H2 n=100 m=50;
* every fourth repeats a uniformly drawn earlier request.

With two requests in flight every batcher group stays below the batch
threshold, so misses take the scalar ``solve_one`` path: the other side
of the batch/loop choice from ``figures``.  Repeats put cache reads
beside solve-and-write misses.  This is the only workload that runs the
HTTP, batcher, cache and pool layers.

One op is one completed request; untraced runs time it in reference
seconds of :mod:`perfbench.clock`, the speed measured in the benchmark
process.  Set-up is spawn to first ``/v1/healthz`` 200, in wall seconds.  Every response is checked against
``direct_response`` for its request after the timed phase; a 429, 5xx or
wrong answer counts as failed.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median

from .clock import ReferenceClock
from .common import (
    SETUP_SAMPLES,
    WORK,
    ROOT,
    BenchmarkError,
    Deadline,
    Result,
    checkout_env,
    percentile,
    tree_peak_rss_mb,
)

#: ``(heuristic, tasks, types, machines)`` of the distinct requests.
SHAPES = (
    ("H2", 30, 3, 10),
    ("H3", 50, 5, 20),
    ("H4ls", 40, 4, 10),
    ("H4w", 100, 5, 50),
    ("H3", 60, 4, 20),
    ("H2", 100, 5, 50),
)
CLIENTS = 2
#: Every ``REPEAT_EVERY``-th request repeats an earlier one.
REPEAT_EVERY = 4
#: Requests of the traced phase (fixed, so its span table covers the
#: same work on every run).
TRACED_REQUESTS = 400
#: Spans of the server's own ``--trace`` log reported per request.
SPANS = (
    "http.request",
    "batcher.group",
    "pool.roundtrip",
    "pool.worker_solve",
    "cache.lookup",
    "cache.write",
)
_LISTENING = re.compile(r"listening on (http://\S+)")


def mix(seed: int):
    """The seeded request stream: ``(payload, repeats_earlier)`` forever."""
    rng = random.Random(seed)
    distinct: list[dict] = []
    for position in itertools.count():
        if position % REPEAT_EVERY == REPEAT_EVERY - 1:
            yield rng.choice(distinct), True
            continue
        heuristic, tasks, types, machines = SHAPES[len(distinct) % len(SHAPES)]
        payload = {
            "heuristic": heuristic,
            "application": {"tasks": tasks, "types": types},
            "platform": {"machines": machines},
            "options": {"seed": seed, "repetition": len(distinct)},
        }
        distinct.append(payload)
        yield payload, False


class Server:
    """One ``python -m repro serve`` child process in its own session."""

    def __init__(self, trace_dir=None):
        WORK.mkdir(exist_ok=True)
        self.log_path = WORK / f"serve-{os.getpid()}-{time.monotonic_ns()}.log"
        command = [sys.executable, "-m", "repro", "serve", "--workers", "1", "--port", "0"]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=ROOT,
                env=checkout_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        try:
            self.url = self._await_url(start + 120.0)
            self._await_health(start + 120.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_url(self, give_up: float) -> str:
        while time.perf_counter() < give_up:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchmarkError(
            "service did not start: " + self.log_path.read_text(errors="replace")[-2000:]
        )

    def _await_health(self, give_up: float) -> None:
        from repro.exceptions import ReproError
        from repro.service.client import ServiceClient

        with ServiceClient(self.url, timeout=5.0, retries=0) as client:
            while True:
                try:
                    client.healthz()
                    return
                except ReproError:
                    if time.perf_counter() > give_up:
                        raise
                    time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (graceful drain), then make sure the whole group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=30)
        # A graceful stop has already joined the pool worker; anything left
        # in the session (e.g. after a timeout) is killed and waited for.
        give_up = time.monotonic() + 10.0
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            while time.monotonic() < give_up:
                time.sleep(0.01)
                os.killpg(self.proc.pid, 0)
        except ProcessLookupError:
            pass
        self.log_path.unlink(missing_ok=True)


@dataclass(slots=True)
class Sent:
    payload: dict
    repeat: bool
    response: dict | None
    start: float
    seconds: float
    error: str | None = None


def drive(url: str, seed: int, *, seconds: float | None = None, requests: int | None = None):
    """Closed loop of ``CLIENTS`` clients: ``(sent, start, end)``."""
    from repro.exceptions import ReproError
    from repro.service.client import ServiceClient

    stream = mix(seed)
    lock = threading.Lock()
    issued = 0
    sent: list[Sent] = []
    deadline = Deadline(seconds if seconds is not None else float("inf"))

    def take():
        nonlocal issued
        with lock:
            if deadline.passed() or (requests is not None and issued >= requests):
                return None
            issued += 1
            return next(stream)

    def client_loop() -> None:
        with ServiceClient(url, timeout=120.0, retries=0) as client:
            while (item := take()) is not None:
                payload, repeat = item
                start = time.perf_counter()
                try:
                    response, error = client.solve(payload), None
                except ReproError as exc:
                    response, error = None, f"{type(exc).__name__}: {exc}"
                except Exception as exc:  # noqa: BLE001 - the op fails, the loop goes on
                    response, error = None, f"client error {type(exc).__name__}: {exc}"
                entry = Sent(payload, repeat, response, start, time.perf_counter() - start, error)
                with lock:
                    sent.append(entry)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent, deadline.start, time.perf_counter()


def _stats(url: str) -> dict:
    from repro.service.client import ServiceClient

    with ServiceClient(url, timeout=30.0, retries=0) as client:
        return client.stats()


def _check(
    result: Result, sent: list[Sent], expected: dict[str, dict], timing: dict[str, float]
) -> None:
    """Compare every answer with ``direct_response``; time distinct solves.

    ``expected`` caches the direct responses by request key across calls;
    ``timing`` receives the seconds of each direct solve made here.
    """
    from repro.service.requests import direct_response, normalize_request

    for entry in sent:
        result.attempted += 1
        if entry.response is None:
            result.failed += 1
            result.notes.append(entry.error or "no response")
            continue
        request = normalize_request(entry.payload)
        if request.key not in expected:
            start = time.perf_counter()
            expected[request.key] = direct_response(request)
            timing[request.key] = time.perf_counter() - start
        want = {k: v for k, v in expected[request.key].items() if k != "batched"}
        got = {k: v for k, v in entry.response.items() if k not in ("batched", "cached")}
        if got != want:
            result.failed += 1
            result.notes.append(f"wrong answer for {request.key}")


def _delta(before: dict, after: dict, section: str, key: str) -> float:
    return float(after[section][key]) - float(before[section][key])


def _stats_metrics(result: Result, before: dict, after: dict) -> None:
    hits = _delta(before, after, "cache", "hits")
    lookups = hits + _delta(before, after, "cache", "misses")
    flushes = _delta(before, after, "batcher", "flushes")
    batched = _delta(before, after, "batcher", "batched_requests")
    solved = batched + _delta(before, after, "batcher", "fallback_requests")
    solve_s = _delta(before, after, "batcher", "solve_seconds")
    result.set("service.cache_hit_ratio", hits / lookups if lookups else 0.0, "share")
    result.set("service.group_mean", solved / flushes if flushes else 0.0, "requests")
    result.set("service.batched_share", batched / solved if solved else 0.0, "share")
    result.set(
        "service.solve_ms_per_request", solve_s * 1000.0 / solved if solved else 0.0, "ms"
    )
    result.set("service.shed", _delta(before, after, "service", "shed"), "count")


def _measured_phase(server: Server, seed: int, seconds: float):
    before = _stats(server.url)
    sent, start, end = drive(server.url, seed, seconds=seconds)
    after = _stats(server.url)
    return sent, start, end, before, after


def _ops_per_s(sent: list[Sent], wall: float) -> float:
    return sum(1 for entry in sent if entry.response is not None) / wall


def setup() -> None:
    """Import the client side (the server's set-up is timed per spawn)."""
    import repro.service.client  # noqa: F401
    import repro.service.requests  # noqa: F401


def run(seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run (set-up already done by the caller)."""
    result = Result("service")
    if not trace:
        spawns = []
        for _ in range(SETUP_SAMPLES - 1):
            spare = Server()
            spare.stop()
            spawns.append(spare)
        server = Server()
        spawns.append(server)
        try:
            with ReferenceClock() as clock:
                sent, start, end, _, _ = _measured_phase(server, seed, seconds)
            peak = server.peak_rss_mb()
        finally:
            server.stop()
        setups = [spawn.setup_s for spawn in spawns]
        # The benchmark process mostly waits on sockets here, so its own
        # kernel runs are left in (``exclusive=False``).
        reference = clock.reference(start, end, exclusive=False)
        latencies = [
            entry.seconds * 1000.0 * clock.scale(entry.start, entry.start + entry.seconds)
            for entry in sent
        ]
        result.set("ops_per_s", _ops_per_s(sent, reference), "ops/s")
        result.set("latency_p50_ms", percentile(latencies, 0.50), "ms")
        result.set("latency_p90_ms", percentile(latencies, 0.90), "ms")
        result.set("setup_s", median(setups), "s")
        result.set("peak_rss_mb", peak, "MB")
        result.notes.append(
            f"{len(sent)} requests in {end - start:.2f} s wall, {reference:.2f} reference s; "
            f"set-up samples {[round(value, 4) for value in setups]}"
        )
        _check(result, sent, {}, {})
        return result

    import shutil
    import tempfile

    from repro.obs.summary import load_spans, summarize_spans

    from .layers import LayerClock

    server = Server()
    try:
        sent, start, end, before, after = _measured_phase(server, seed, seconds / 2)
        wall = end - start
    finally:
        server.stop()
    WORK.mkdir(exist_ok=True)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=WORK)
    try:
        server = Server(trace_dir)
        try:
            traced, start, end = drive(server.url, seed, requests=TRACED_REQUESTS)
            traced_wall = end - start
        finally:
            server.stop()
        spans = {agg.name: agg for agg in summarize_spans(load_spans(trace_dir))}
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    _stats_metrics(result, before, after)
    hits = [e.seconds * 1000.0 for e in sent if e.repeat and e.response is not None]
    misses = [e.seconds * 1000.0 for e in sent if not e.repeat and e.response is not None]
    result.set("service.hit_latency_p50_ms", percentile(hits, 0.50), "ms")
    result.set("service.miss_latency_p50_ms", percentile(misses, 0.50), "ms")
    completed = sum(1 for entry in traced if entry.response is not None) or 1
    for name in SPANS:
        aggregate = spans.get(name)
        self_ms = aggregate.self_seconds * 1000.0 / completed if aggregate else 0.0
        result.set(f"service.span.{name}_self_ms", self_ms, "ms")
    result.set(
        "tracing.ops_ratio", _ops_per_s(traced, traced_wall) / _ops_per_s(sent, wall), "ratio"
    )

    # The layer timers run around the direct solves of the traced
    # requests (a fixed set), which is the service's solve floor.
    expected: dict[str, dict] = {}
    timing: dict[str, float] = {}
    with LayerClock() as clock:
        _check(result, traced, expected, timing)
    for name, (value, unit) in clock.metrics().items():
        result.set(name, value, unit)
    direct_ms = 1000.0 * sum(timing.values()) / len(timing) if timing else 0.0
    distinct = len(timing)
    _check(result, sent, expected, timing)
    result.set("service.direct_solve_ms", direct_ms, "ms")
    result.set(
        "service.overhead_ms", result.metrics["service.miss_latency_p50_ms"][0] - direct_ms, "ms"
    )
    result.notes.append(
        f"untraced {len(sent)} requests in {wall:.2f} s; traced {len(traced)} in "
        f"{traced_wall:.2f} s; {distinct} distinct traced solves"
    )
    return result
