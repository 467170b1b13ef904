#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs: a paired sign test.

    python3 scripts/perf_pairs.py REF [--workload figures] [--pairs 10]
                                      [--seconds 15] [--seed 0] [--trace 0]

Extracts REF's committed files (``git archive``) into a temporary
directory, then runs ``perfbench/run.py --workload W`` there and in the
working tree, ``--pairs`` times.  The side that runs first alternates:
REF first in even pairs, the working tree first in odd ones, so an
effect of run order (a warm page cache, CPU frequency) does not land on
one side.  For every metric it prints REF's median and interquartile
range, the working tree's median, their ratio, and in how many pairs
the working tree was better (by the metric's direction in
``BENCHMARK.json``).  It only reports: the exit status does not depend
on the numbers.  The extracted copy is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, args) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its metrics by name."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    if not payload["correct"] or payload["failed"]:
        print(f"warning: {checkout}: correct={payload['correct']} "
              f"failed={payload['failed']}", file=sys.stderr)
    return {name: entry["value"] for name, entry in payload["metrics"].items()}


def report(ref_runs: list[dict], new_runs: list[dict], spec: dict) -> list[str]:
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'metric':36} {'ref':>12} {'ref IQR':>10} {'change':>12} {'ratio':>7}  better"]
    for name in ref_runs[0]:
        ref = [run[name] for run in ref_runs]
        new = [run[name] for run in new_runs]
        ref_median, new_median = statistics.median(ref), statistics.median(new)
        quartiles = statistics.quantiles(ref, n=4) if len(ref) > 1 else [ref[0]] * 3
        iqr = quartiles[2] - quartiles[0]
        ratio = new_median / ref_median if ref_median else float("nan")
        higher = better.get(name, "lower") == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(ref, new))
        lines.append(f"{name:36} {ref_median:12.4g} {iqr:10.3g} {new_median:12.4g} {ratio:7.3f}  "
                     f"{wins}/{len(ref)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git revision to compare against")
    parser.add_argument("--workload", default="figures")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        checkout = Path(scratch)
        archive = subprocess.run(["git", "archive", "--format=tar", args.ref],
                                 cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive, check=True)
        ref_runs, new_runs = [], []
        for pair in range(args.pairs):
            sides = [(checkout, ref_runs), (ROOT, new_runs)]
            for where, runs in sides[::-1] if pair % 2 else sides:
                runs.append(run_once(where, args))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print("\n".join(report(ref_runs, new_runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
