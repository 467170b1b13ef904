"""H4ls descents pinned across commits.

``tests/data/local_search_golden.json`` records, for every case below,
the best-single-move descent from the H4w seed (`refine_specialized`:
refined assignment, move count and the scalar period's hex) and the H4ls
result (assignment, period hex, iteration count).  Any change to the
candidate probe, the specialized-move mask or the descent loop must
reproduce it bit for bit: unlike the batch-vs-loop equivalence tests,
which compare two paths of the same checkout, this fixture catches a
drift that moves every path at once.

The cases span the shapes the descent runs on: service H4ls requests
(40/4/10), every fig6 sweep point (m=10, n=10..100), the live replanner
(50/5/25 and its shrinking sub-platforms) and m=50, on chains and on
in-trees.  Regenerate the fixture — only on purpose, from the checkout
whose results it should pin — with::

    PYTHONPATH=src:. python tests/unit/test_local_search_golden.py --write
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import FailureModel, Platform, ProblemInstance
from repro.core.period import evaluate
from repro.experiments.figures import FIGURES
from repro.generators import (
    random_failure_rates,
    random_in_tree_application,
    random_processing_times,
)
from repro.generators.scenarios import sample_instance
from repro.heuristics import get_heuristic
from repro.heuristics.local_search import refine_specialized
from repro.service.requests import normalize_request
from repro.simulation.rng import RandomStreamFactory

from tests.helpers import sub_instance

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "local_search_golden.json"

#: Live sub-platforms of an n=50, p=5, m=25 instance: machines kept up.
LIVE_UP_COUNTS = (25, 18, 9, 5)

#: In-tree shapes: (branches, (low, high) branch length, p, m).
IN_TREE_SHAPES = ((4, (8, 12), 4, 10), (6, (6, 10), 5, 25), (8, (10, 14), 5, 50))


def _service_instance(tasks: int, types: int, machines: int, seed: int):
    return normalize_request(
        {
            "heuristic": "H4ls",
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
    return sample_instance(scenario, value, repetition, RandomStreamFactory(7))


def _in_tree_instance(
    branches: int, lengths: tuple[int, int], types: int, machines: int, seed: int
):
    rng = np.random.default_rng(seed)
    app = random_in_tree_application(branches, lengths, types, rng, shared_tail_length=3)
    w = random_processing_times(app.types, machines, rng)
    f = random_failure_rates(app.num_tasks, machines, rng)
    return ProblemInstance(app, Platform(w, types=app.types), FailureModel(f))


def _cases():
    """``{case id: zero-argument instance builder}``, 29 cases."""
    cases = {}
    for seed in (1, 2, 3):
        cases[f"service-40-4-10-s{seed}"] = partial(_service_instance, 40, 4, 10, seed)
    for value in FIGURES["fig6"].scenario.sweep_values:
        cases[f"fig6-{value}-r0"] = partial(_figure_instance, "fig6", value, 0)
    for seed in (3, 4):
        for up_count in LIVE_UP_COUNTS:
            cases[f"live-up{up_count}-s{seed}"] = partial(_live_instance, up_count, seed)
    for value in (50, 100):
        cases[f"fig5-{value}-r0"] = partial(_figure_instance, "fig5", value, 0)
    for branches, lengths, types, machines in IN_TREE_SHAPES:
        for seed in (1, 2):
            cases[f"in-tree-{branches}x{lengths[0]}-{types}-{machines}-s{seed}"] = partial(
                _in_tree_instance, branches, lengths, types, machines, seed
            )
    return cases


def _pinned(instance) -> dict:
    seed = get_heuristic("H4w").solve(instance).mapping
    refined, moves = refine_specialized(instance, seed)
    result = get_heuristic("H4ls").solve(instance)
    return {
        "refined": refined.as_array.tolist(),
        "moves": moves,
        "refined_period": evaluate(instance, refined).period.hex(),
        "h4ls": result.mapping.as_array.tolist(),
        "h4ls_period": result.period.hex(),
        "h4ls_iterations": result.iterations,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert set(golden) == set(_cases())
    assert len(golden) == 29
    # The fixture must pin real descents, not a wall of no-op seeds.
    assert sum(entry["moves"] > 0 for entry in golden.values()) >= 20


@pytest.mark.parametrize("case_id", list(_cases()))
def test_results_match_the_pinned_fixture(golden, case_id):
    assert _pinned(_cases()[case_id]()) == golden[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    results = {case_id: _pinned(build()) for case_id, build in _cases().items()}
    lines = (f"{json.dumps(key)}: {json.dumps(results[key])}" for key in sorted(results))
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
