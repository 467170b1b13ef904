#!/usr/bin/env python3
"""Run the benchmark from the repository root.

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload figures --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload live --trace 1 --out results.jsonl

A single-workload run prints a human-readable report and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics
(a workload reports 0 for the layers it does not run).  Without
``--workload`` every workload runs in its own interpreter and the last
line collects their results.  ``--out`` appends each result to a JSONL
file that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

_HERE = Path(__file__).resolve().parent
if sys.path and Path(sys.path[0]).resolve() == _HERE:
    sys.path[0] = str(_HERE.parent)
else:
    sys.path.insert(0, str(_HERE.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SETUP_SAMPLES,
    BenchmarkError,
    checkout_env,
    probe_setup,
    use_checkout_sources,
)

WORKLOADS = ("figures", "service", "live")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def declared_metrics(result, spec: dict, trace: bool) -> dict:
    """Exactly the declared metrics, in declared order, with declared units.

    A per-layer metric a workload does not produce reads 0; a non-finite
    value is reported as 0 so the line stays valid JSON.
    """
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value, _ = result.metrics.get(metric["name"], (0.0, metric["unit"]))
        out[metric["name"]] = (value if math.isfinite(value) else 0.0, metric["unit"])
    return out


def timed_setup(module) -> float:
    """Wall seconds of ``module.setup()`` (import + warm-up).

    Set-up is not rescaled to reference seconds: it is partly I/O-bound,
    so it moves with host speed less than the clock's kernel does, and
    rescaling it made it noisier, not steadier.
    """
    start = time.perf_counter()
    module.setup()
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    spec = load_spec()
    use_checkout_sources()
    module = importlib.import_module(f"perfbench.{name}")
    own_setup = timed_setup(module)
    result = module.run(seed, seconds, trace)
    if not trace and "setup_s" not in result.metrics:
        samples = [own_setup] + probe_setup(name, SETUP_SAMPLES - 1)
        result.set("setup_s", median(samples), "s")
        result.notes.append(f"set-up samples {[round(s, 4) for s in samples]}")
    result.metrics = declared_metrics(result, spec, trace)
    return result


def record(name: str, seed: int, seconds: float, trace: bool, payload: dict) -> dict:
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), **payload}


def _append(path: str | None, entry: dict) -> None:
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")


def run_all(args) -> int:
    """Every workload in a fresh interpreter (set-up time needs one)."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(_HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        proc = subprocess.run(command, cwd=ROOT, env=checkout_env(), stdout=subprocess.PIPE,
                              text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] failed with exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status = status or (0 if results[name]["correct"] else 1)
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="JSONL",
                        help="append each result record to this file")
    parser.add_argument("--setup-probe", choices=WORKLOADS, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            use_checkout_sources()
            module = importlib.import_module(f"perfbench.{args.setup_probe}")
            print(json.dumps({"setup_s": timed_setup(module)}))
            return 0
        if args.workload is None:
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(result.lines()), flush=True)
    payload = result.payload()
    _append(args.out, record(args.workload, args.seed, args.seconds, bool(args.trace), payload))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
