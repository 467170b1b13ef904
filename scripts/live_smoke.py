#!/usr/bin/env python
"""CI smoke check of the live replanning subsystem, end to end.

Two phases over one seeded scenario (H4ls, n=12, p=3, m=6, a 60-unit
timeline with exponential failures/repairs and Poisson request probes):

**Phase 1 — in process**: runs the timeline through the warm replanner
and the ``warm=False`` cold re-solve reference and asserts:

* the two runs agree **bit for bit** on every event (mapping, period,
  tier, feasibility, availability);
* the timeline actually exercised the tier cascade (warm, cold and
  cache replans all > 0) and the request probes were observed;
* availability is integrated over the whole horizon (final clock ==
  duration).

**Phase 2 — over HTTP**: starts a real ``microrepro serve`` subprocess,
replays the same timeline through ``microrepro live --url ... --verify
--json`` (one session, one POST per event), and asserts:

* the CLI's verification passed (remote records == local warm run ==
  cold re-solve, availability equal *exactly*);
* the reported availability equals phase 1's bit for bit;
* ``/v1/stats`` accounts the session (created, closed, events, replan
  tiers, availability);
* the unversioned routes are gone (404 ``not_found``), and error
  responses carry the ``{"error": {"code", "message"}}`` envelope.

Exit code 0 on success; any assertion or timeout kills the server and
exits non-zero.  Runs from a source checkout::

    python scripts/live_smoke.py
"""

from __future__ import annotations

import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exceptions import ExperimentError  # noqa: E402 - path bootstrap
from repro.live import (  # noqa: E402 - path bootstrap above
    LiveConfig,
    compare_reports,
    run_timeline,
)
from repro.service.client import ServiceClient  # noqa: E402 - path bootstrap

STARTUP_TIMEOUT = 30.0

#: The scenario both phases replay (small enough to finish in seconds,
#: long enough that every replan tier fires).
CONFIG = LiveConfig(
    tasks=12,
    types=3,
    machines=6,
    heuristic="H4ls",
    seed=0,
    duration=60.0,
    mtbf=25.0,
    mttr=8.0,
    arrival_rate=0.2,
)


def report(checks: list[tuple[bool, str]]) -> bool:
    ok = True
    for passed, label in checks:
        print(("PASS" if passed else "FAIL"), label)
        ok = ok and passed
    return ok


def start_server(*extra_args: str) -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
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


def phase_in_process() -> tuple[bool, float]:
    """Phase 1: warm run vs cold re-solve reference, in process."""
    print("== phase 1: in-process warm vs cold re-solve ==")
    warm = run_timeline(CONFIG, warm=True)
    cold = run_timeline(CONFIG, warm=False)
    try:
        compare_reports(cold, warm)
    except ExperimentError as exc:
        print(f"FAIL warm/cold divergence: {exc}")
        return False, warm.availability
    print(
        f"{len(warm.records)} events bit-for-bit identical across warm and "
        f"cold runs (availability {warm.availability:.4f})"
    )
    counters = warm.counters
    last = warm.records[-1]
    ok = report(
        [
            (counters["warm"] > 0, "warm-tier replans exercised"),
            (counters["cold"] > 0, "cold-tier replans exercised"),
            (counters["cache"] > 0, "plan-cache replays exercised"),
            (
                counters["served"] + counters["missed"] > 0,
                "request probes observed",
            ),
            (
                last["time"] == CONFIG.duration,
                "availability integrated to the horizon",
            ),
            (0.0 <= warm.availability <= 1.0, "availability is a fraction"),
        ]
    )
    return ok, warm.availability


def phase_over_http(expected_availability: float) -> bool:
    """Phase 2: the same timeline through a real server's session API."""
    print("== phase 2: session API over HTTP ==")
    process, url = start_server("--session-ttl", "60")
    try:
        cli = subprocess.run(
            [
                sys.executable, "-m", "repro", "live",
                "--url", url,
                "--tasks", str(CONFIG.tasks),
                "--types", str(CONFIG.types),
                "--machines", str(CONFIG.machines),
                "--heuristic", CONFIG.heuristic,
                "--seed", str(CONFIG.seed),
                "--duration", str(CONFIG.duration),
                "--mtbf", str(CONFIG.mtbf),
                "--mttr", str(CONFIG.mttr),
                "--arrival-rate", str(CONFIG.arrival_rate),
                "--verify", "--json",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        if cli.returncode != 0:
            print(f"FAIL: microrepro live exited {cli.returncode}: {cli.stderr}")
            return False
        remote = json.loads(cli.stdout)

        with ServiceClient(url) as client:
            stats = client.stats()["sessions"]
            # Unversioned paths are not served: the standard 404 envelope.
            try:
                client.get("/healthz")
                unversioned_gone = False
            except ExperimentError as exc:
                unversioned_gone = "no such endpoint" in str(exc)
            # Error envelope on a 404.
            try:
                client.get("/v1/session/never-created")
                envelope_ok = False
            except ExperimentError as exc:
                envelope_ok = "never-created" in str(exc)

        print("remote availability:", remote["availability"])
        print("session stats:", stats)
        return report(
            [
                (remote["verified"] is True, "CLI verified remote == warm == cold"),
                (remote["mode"] == "remote", "timeline ran through the session API"),
                (
                    remote["availability"] == expected_availability,
                    "availability identical to the in-process run",
                ),
                (stats["created"] >= 1 and stats["closed"] >= 1, "session accounted"),
                (
                    stats["events"] == remote["events"],
                    "every event accounted in /v1/stats",
                ),
                (
                    stats["replans"]["warm"] > 0 and stats["replans"]["cold"] > 0,
                    "replan tiers surfaced in /v1/stats",
                ),
                (unversioned_gone, "unversioned /healthz answers 404"),
                (envelope_ok, "errors carry the structured envelope"),
            ]
        )
    finally:
        stop_server(process)


def main() -> int:
    ok, availability = phase_in_process()
    ok = phase_over_http(availability) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
