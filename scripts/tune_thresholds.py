#!/usr/bin/env python
"""Calibrate the per-heuristic batch-solve crossover depths.

For every registered heuristic with a lock-step batch kernel, times the
per-instance loop against ``solve_batch`` over a ladder of block depths
``R`` and finds the smallest depth where the batch path wins (and keeps
winning at every deeper rung — a single noisy win does not move the
threshold).  Both paths produce bit-for-bit identical mappings, so the
crossover is purely a performance knob: below it, array-op overhead
makes lock-step slower than the plain loop.

Usage::

    PYTHONPATH=src python scripts/tune_thresholds.py           # print table
    PYTHONPATH=src python scripts/tune_thresholds.py --write   # + update
        src/repro/heuristics/thresholds.json

The JSON file ships with the package and is read by
:func:`repro.heuristics.base.batch_solve_min_repetitions`; heuristics
missing from it (third-party registrations, new kernels) fall back to
the conservative default
:data:`repro.heuristics.base.BATCH_SOLVE_MIN_REPETITIONS`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.generators.scenarios import ScenarioConfig, sample_instance  # noqa: E402
from repro.heuristics import (  # noqa: E402
    available_heuristics,
    get_heuristic,
    supports_batch,
)
from repro.heuristics.base import BATCH_SOLVE_MIN_REPETITIONS, solve_stack  # noqa: E402
from repro.simulation.rng import RandomStreamFactory  # noqa: E402

#: Depth ladder probed for the crossover, shallow to deep.
DEPTHS = (2, 3, 4, 6, 8, 12, 16, 24, 32)

#: Representative sweep point — mid-range paper dimensions; the crossover
#: shifts little with size because both paths scale the same way in n, m.
CALIBRATION_TASKS = 20
CALIBRATION_TYPES = 5
CALIBRATION_MACHINES = 10

THRESHOLDS_PATH = REPO_ROOT / "src" / "repro" / "heuristics" / "thresholds.json"


def _sample_instances(depth: int):
    scenario = ScenarioConfig(
        name="tune-thresholds",
        num_machines=CALIBRATION_MACHINES,
        num_types=CALIBRATION_TYPES,
        sweep="tasks",
        sweep_values=(CALIBRATION_TASKS,),
        repetitions=depth,
        heuristics=("H4w",),
    )
    streams = RandomStreamFactory(1234)
    return [
        sample_instance(scenario, CALIBRATION_TASKS, repetition, streams)
        for repetition in range(depth)
    ]


def _time_path(heuristic, instances, *, batch: bool, repeats: int) -> float:
    streams = RandomStreamFactory(99)

    def stream(repetition: int):
        return streams.stream("tune", repetition)

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        solve_stack(heuristic, instances, stream, batch=batch)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def calibrate(repeats: int) -> dict[str, int]:
    """Measured crossover depth per batch-capable heuristic."""
    instances_by_depth = {depth: _sample_instances(depth) for depth in DEPTHS}
    thresholds: dict[str, int] = {}
    for name in available_heuristics():
        heuristic = get_heuristic(name)
        if not supports_batch(heuristic):
            continue
        wins = {}
        print(f"{name}:")
        for depth in DEPTHS:
            instances = instances_by_depth[depth]
            loop = _time_path(heuristic, instances, batch=False, repeats=repeats)
            batch = _time_path(heuristic, instances, batch=True, repeats=repeats)
            wins[depth] = batch <= loop
            print(
                f"  R={depth:>3}  loop {loop * 1e3:8.3f} ms"
                f"  batch {batch * 1e3:8.3f} ms"
                f"  {'batch' if wins[depth] else 'loop'}"
            )
        # Smallest depth from which the batch path never loses again.
        chosen = None
        for i, depth in enumerate(DEPTHS):
            if all(wins[d] for d in DEPTHS[i:]):
                chosen = depth
                break
        if chosen is None:
            # Batch never clearly wins on this machine; keep the
            # conservative package default rather than disabling it.
            chosen = BATCH_SOLVE_MIN_REPETITIONS
        thresholds[name] = max(2, chosen)
        print(f"  -> threshold {thresholds[name]}")
    return thresholds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=9,
        help="timing repeats per (heuristic, depth, path); the median is used",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"write the calibrated table to {THRESHOLDS_PATH}",
    )
    args = parser.parse_args(argv)

    thresholds = calibrate(args.repeats)
    payload = {
        "comment": (
            "Per-heuristic batch-solve crossover depths, calibrated by "
            "scripts/tune_thresholds.py; regenerate with --write after "
            "kernel changes."
        ),
        "thresholds": thresholds,
    }
    print(json.dumps(payload, indent=2))
    if args.write:
        THRESHOLDS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {THRESHOLDS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
