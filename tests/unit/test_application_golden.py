"""Application structure pinned across commits.

``tests/data/application_golden.json`` records, for every case below,
the topological order, successor and predecessor tables, sinks,
sources, chain flag, edge count and the exact ``to_dict()`` JSON bytes.
The heuristics walk tasks in ``reverse_topological_order()``, so any
change to how an :class:`Application` stores or orders its graph must
reproduce this fixture bit for bit.

The cases span chains, ``in_tree`` shapes, ``random_in_tree_application``
draws and hand-built forests whose joins are out of index order, with
several components, duplicated edges and shuffled edge insertion.
Regenerate the fixture — only on purpose, from the checkout whose
results it should pin — with::

    PYTHONPATH=src python tests/unit/test_application_golden.py --write
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.application import Application, in_tree, linear_chain
from repro.generators.applications import random_in_tree_application

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "application_golden.json"

#: Hand-built forests: (types, edges).  Joins out of index order, several
#: components, isolated tasks and duplicated edges.
HAND_FORESTS = {
    "joins-out-of-order": ([0, 1, 0, 1, 0], [(3, 0), (2, 0), (1, 3)]),
    "two-trees-and-isolated": (
        [0, 1, 2, 0, 1, 2, 0, 1, 2],
        [(8, 2), (5, 2), (7, 5), (2, 0), (6, 0), (1, 4), (3, 4)],
    ),
    "duplicated-edge": ([0, 0, 1, 1], [(3, 1), (2, 1), (3, 1), (1, 0)]),
    "reverse-chain": ([0, 1, 2, 3, 4, 5], [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]),
    "no-edges": ([0, 1, 0], []),
}


def _random_in_tree(seed: int) -> Application:
    return random_in_tree_application(
        1 + seed % 4,
        (1, 1 + seed % 5),
        3,
        np.random.default_rng(seed),
        shared_tail_length=1 + seed % 3,
    )


def _random_forest(seed: int) -> Application:
    """A random in-forest with shuffled edge insertion and a duplicate."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    rank = rng.permutation(n)  # a task's successor has a higher rank
    by_rank = np.argsort(rank)
    edges = []
    for task in range(n):
        if rank[task] < n - 1 and rng.random() < 0.85:
            edges.append((task, int(by_rank[rng.integers(rank[task] + 1, n)])))
    if edges:
        edges.append(edges[int(rng.integers(len(edges)))])
    order = rng.permutation(len(edges))
    types = rng.integers(0, 3, size=n).tolist()
    return Application(types, [edges[k] for k in order])


def _cases():
    """``{case id: zero-argument application builder}``."""
    cases = {
        "chain-1": partial(linear_chain, 1),
        "chain-2": partial(linear_chain, 2, num_types=1),
        "chain-7-p3": partial(linear_chain, 7, num_types=3),
        "chain-named": partial(
            Application.chain, [0, 1, 0], names=["grip", "glue", "weld"]
        ),
        "in-tree-1": partial(in_tree, [1], 1),
        "in-tree-2-3": partial(in_tree, [2, 3], 2),
        "in-tree-1-1-1-tail3": partial(in_tree, [1, 1, 1], 3, shared_tail_length=3),
        "in-tree-4-1-2-tail2": partial(in_tree, [4, 1, 2], 2, shared_tail_length=2),
    }
    for seed in range(12):
        cases[f"random-in-tree-s{seed}"] = partial(_random_in_tree, seed)
    for name, (types, edges) in HAND_FORESTS.items():
        cases[f"forest-{name}"] = partial(Application, types, edges)
    for seed in range(20):
        cases[f"random-forest-s{seed}"] = partial(_random_forest, seed)
    return cases


def _pinned(app: Application) -> dict:
    n = app.num_tasks
    return {
        "topological_order": list(app.topological_order()),
        "successor": [app.successor(task) for task in range(n)],
        "predecessors": [list(app.predecessors(task)) for task in range(n)],
        "sinks": list(app.sinks()),
        "sources": list(app.sources()),
        "is_chain": app.is_chain(),
        "num_edges": app.num_edges,
        "to_dict": json.dumps(app.to_dict()),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert set(golden) == set(_cases())
    assert len(golden) == 45


@pytest.mark.parametrize("case_id", list(_cases()))
def test_structure_matches_the_pinned_fixture(golden, case_id):
    assert _pinned(_cases()[case_id]()) == golden[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    results = {case_id: _pinned(build()) for case_id, build in _cases().items()}
    lines = (f"{json.dumps(key)}: {json.dumps(results[key])}" for key in sorted(results))
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
