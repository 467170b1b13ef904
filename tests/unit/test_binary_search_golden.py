"""H2/H3 results pinned across commits.

``tests/data/binary_search_golden.json`` records, for every case below,
the H2 and H3 assignment, period and bisection iteration count.  Any
change to the bisection driver or the greedy placement must reproduce it
bit for bit: unlike the batch-vs-loop equivalence tests, which compare
two paths of the same checkout, this fixture catches a drift that moves
both paths at once.

The cases span the three workload shapes: service requests, live
cold re-solves on shrinking sub-platforms (down to ``m == p``) and
figure sweep points.  Regenerate the fixture — only on purpose, from the
checkout whose results it should pin — with::

    PYTHONPATH=src python tests/unit/test_binary_search_golden.py --write
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.figures import FIGURES
from repro.generators.scenarios import sample_instance
from repro.heuristics import get_heuristic
from repro.live.replanner import sub_instance
from repro.service import normalize_request
from repro.simulation.rng import RandomStreamFactory

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "binary_search_golden.json"

HEURISTICS = ("H2", "H3")

#: Service request shapes: (n, p, m).
SERVICE_SHAPES = ((30, 3, 10), (50, 5, 20), (100, 5, 50), (60, 4, 20))

#: Live sub-platforms of an n=50, p=5, m=25 instance: machines kept up.
LIVE_UP_COUNTS = (25, 18, 9, 5)

#: Figure sweep points: (figure id, sweep value).
FIGURE_POINTS = (("fig5", 100), ("fig6", 60), ("fig8", 40), ("fig9", 60))


def _service_instance(tasks: int, types: int, machines: int, seed: int):
    return normalize_request(
        {
            "heuristic": "H2",
            "application": {"tasks": tasks, "types": types},
            "platform": {"machines": machines},
            "options": {"seed": seed},
        }
    ).sample()


def _live_instance(up_count: int, seed: int):
    full = _service_instance(50, 5, 25, seed)
    up = np.zeros(25, dtype=bool)
    up[np.random.default_rng(seed).permutation(25)[:up_count]] = True
    return sub_instance(full, up)[0]


def _figure_instance(figure_id: str, value: int, repetition: int):
    scenario = FIGURES[figure_id].scenario
    return sample_instance(scenario, value, repetition, RandomStreamFactory(5))


def _cases():
    """``{case id: zero-argument instance builder}``, 24 cases."""
    cases = {}
    for n, p, m in SERVICE_SHAPES:
        for seed in (1, 2):
            cases[f"service-{n}-{p}-{m}-s{seed}"] = partial(_service_instance, n, p, m, seed)
    for seed in (3, 4):
        for up_count in LIVE_UP_COUNTS:
            cases[f"live-up{up_count}-s{seed}"] = partial(_live_instance, up_count, seed)
    for figure_id, value in FIGURE_POINTS:
        for repetition in (0, 1):
            cases[f"{figure_id}-{value}-r{repetition}"] = partial(
                _figure_instance, figure_id, value, repetition
            )
    return cases


def _pinned(instance, name: str) -> dict:
    result = get_heuristic(name).solve(instance)
    return {
        "assignment": result.mapping.as_array.tolist(),
        "period": result.period,
        "iterations": result.iterations,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def instances() -> dict:
    return {case_id: build() for case_id, build in _cases().items()}


def test_fixture_covers_every_case(golden):
    expected = {f"{case_id}/{name}" for case_id in _cases() for name in HEURISTICS}
    assert set(golden) == expected
    assert len(expected) == 48


@pytest.mark.parametrize("name", HEURISTICS)
@pytest.mark.parametrize("case_id", list(_cases()))
def test_results_match_the_pinned_fixture(golden, instances, case_id, name):
    assert _pinned(instances[case_id], name) == golden[f"{case_id}/{name}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    results = {
        f"{case_id}/{name}": _pinned(build(), name)
        for case_id, build in _cases().items()
        for name in HEURISTICS
    }
    lines = (f"{json.dumps(key)}: {json.dumps(results[key])}" for key in sorted(results))
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
