"""Live timelines pinned across commits.

``tests/data/live_golden.json`` records, for every case below, the
state fields of every record of one in-process timeline run (the
initial solve, each fail/recover replan and each request): tier,
mapping, period, up count and availability.  ``replan_ms`` is a
measurement and is left out.  The warm tier's descent, the cold tier's
sub-platform solves and the plan cache must reproduce it bit for bit:
the warm-vs-cold comparison of ``compare_reports`` checks two paths of
the same checkout, while this fixture catches a drift that moves both.

The cases cover H2, H3 and H4ls at the live benchmark's scale (n=50,
p=5, m=25, mtbf 600, mttr 60, horizon 300), on a denser failure
process at n=30, m=12, and on a platform small enough to go
infeasible.  Regenerate the fixture — only on purpose, from the checkout
whose results it should pin — with::

    PYTHONPATH=src python tests/unit/test_live_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.live import LiveConfig, run_timeline
from repro.live.runner import _STATE_FIELDS

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "live_golden.json"

HEURISTICS = ("H2", "H3", "H4ls")

#: Timeline shapes: (name, LiveConfig fields other than heuristic and seed, seeds).
SHAPES = (
    (
        "live",
        dict(tasks=50, types=5, machines=25, duration=300.0, mtbf=600.0, mttr=60.0,
             arrival_rate=0.0),
        (1, 2),
    ),
    (
        "dense",
        dict(tasks=30, types=4, machines=12, duration=200.0, mtbf=80.0, mttr=20.0,
             arrival_rate=0.05),
        (5,),
    ),
    (
        "tight",
        dict(tasks=12, types=3, machines=5, duration=200.0, mtbf=40.0, mttr=20.0,
             arrival_rate=0.05),
        (3,),
    ),
)


def _cases() -> dict[str, LiveConfig]:
    """``{case id: LiveConfig}``, 12 cases."""
    return {
        f"{name}-{heuristic}-s{seed}": LiveConfig(heuristic=heuristic, seed=seed, **fields)
        for name, fields, seeds in SHAPES
        for heuristic in HEURISTICS
        for seed in seeds
    }


def _pinned(config: LiveConfig) -> dict:
    report = run_timeline(config)
    return {
        "records": [
            {fld: record[fld] for fld in _STATE_FIELDS} for record in report.records
        ],
        "availability": report.availability,
        "replans": report.counters,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert set(golden) == set(_cases())
    assert len(golden) == 12
    tiers = {via for entry in golden.values() for via in
             (record["via"] for record in entry["records"])}
    assert {"cache", "warm", "cold", "infeasible", "serve", "miss"} <= tiers
    # The warm tier must pin real descents, not only replays of a local optimum.
    moved = sum(
        record["via"] == "warm" and record["mapping"] != previous["mapping"]
        for entry in golden.values()
        for previous, record in zip(entry["records"], entry["records"][1:])
    )
    assert moved >= 20


@pytest.mark.parametrize("case_id", list(_cases()))
def test_timeline_matches_the_pinned_fixture(golden, case_id):
    assert _pinned(_cases()[case_id]) == golden[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    results = {case_id: _pinned(config) for case_id, config in _cases().items()}
    lines = (f"{json.dumps(key)}: {json.dumps(results[key])}" for key in sorted(results))
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
