"""Shared plumbing of the benchmark: paths, results, percentiles, memory."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; the benchmark imports ``repro`` from here only.
SRC = ROOT / "src"
#: Scratch space for server logs and trace stores (ignored by git).
WORK = ROOT / ".perfbench"

#: Set-up samples per run: the run's own plus ``SETUP_SAMPLES - 1``
#: fresh interpreters doing the same import + warm-up.  Set-up is mostly
#: imports, whose time swings ~15% from sample to sample on a shared host
#: without following the host's CPU speed, so a run reports the median.
SETUP_SAMPLES = 5


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


def use_checkout_sources() -> None:
    """Put ``src/`` first on ``sys.path``; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def checkout_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def set(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def payload(self) -> dict:
        """The contract's final JSON object."""
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def lines(self) -> list[str]:
        """Human-readable report (every metric by name, with its unit)."""
        out = [f"[{self.workload}] attempted={self.attempted} failed={self.failed} "
               f"error_rate={self.error_rate:.4f} share"]
        width = max((len(name) for name in self.metrics), default=10)
        for name, (value, unit) in self.metrics.items():
            out.append(f"  {name:<{width}}  {value:>14.6g}  {unit}")
        out.extend(f"  note: {note}" for note in self.notes)
        return out


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0 for no samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory of ``pid`` and its children (MB)."""
    pids = [pid]
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The ppid is the second field after the parenthesised command.
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            pids.append(int(entry.name))
    total_kb = 0
    for child in pids:
        try:
            status = Path(f"/proc/{child}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def probe_setup(workload: str, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters (import + warm-up)."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--setup-probe", workload],
            cwd=ROOT,
            env=checkout_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


class Deadline:
    """``seconds`` from construction on the monotonic performance clock."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.end

    def elapsed(self) -> float:
        return time.perf_counter() - self.start
