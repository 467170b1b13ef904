"""Per-unit solve-cost model driving shard balancing and stealing order.

A campaign's solve units are wildly uneven: a MIP block at its time
limit costs ~100x a heuristic block of the same shape, local search
~20x, OtO somewhere between.  Round-robin sharding ignores this and
routinely parks every MIP block on one shard; the scheduler instead
prices each unit with calibrated per-provider estimates and balances
shards by total estimated cost (LPT greedy), with work stealing mopping
up whatever the estimates still get wrong.

The estimates are persisted in ``costs.json`` next to this module —
the :mod:`repro.heuristics` ``thresholds.json`` pattern — as *relative*
costs in units of one heuristic repetition; a missing or unreadable
file degrades to built-in defaults so source checkouts keep working.
Costs scale linearly with repetitions and sublinearly (calibrated
exponent) with the instance size at the unit's sweep point.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..experiments.providers import LOCAL_SEARCH_SUFFIX, MIP_LABEL, OTO_LABEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..campaign.manifest import CampaignManifest, WorkUnit

__all__ = ["classify_curve", "provider_cost", "unit_cost", "plan_costs"]

#: Fallback relative costs when ``costs.json`` is missing or unreadable.
_DEFAULT_COSTS = {
    "heuristic": 1.0,
    "local_search": 20.0,
    "oto": 8.0,
    "mip": 100.0,
}
_DEFAULT_SIZE_EXPONENT = 0.5


def _load_costs() -> tuple[dict[str, float], float]:
    path = Path(__file__).with_name("costs.json")
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return dict(_DEFAULT_COSTS), _DEFAULT_SIZE_EXPONENT
    costs = dict(_DEFAULT_COSTS)
    for name, value in data.get("costs", {}).items():
        try:
            costs[str(name)] = float(value)
        except (TypeError, ValueError):
            continue
    try:
        exponent = float(data.get("size_exponent", _DEFAULT_SIZE_EXPONENT))
    except (TypeError, ValueError):
        exponent = _DEFAULT_SIZE_EXPONENT
    return costs, exponent


PROVIDER_COSTS, SIZE_EXPONENT = _load_costs()


def classify_curve(curve: str) -> str:
    """The cost class of a curve label (mip/oto/local_search/heuristic)."""
    if curve == MIP_LABEL:
        return "mip"
    if curve == OTO_LABEL:
        return "oto"
    if curve.endswith(LOCAL_SEARCH_SUFFIX):
        return "local_search"
    return "heuristic"


def provider_cost(curve: str) -> float:
    """Relative per-repetition cost of one curve's provider."""
    return PROVIDER_COSTS.get(classify_curve(curve), _DEFAULT_COSTS["heuristic"])


def unit_cost(manifest: "CampaignManifest", unit: "WorkUnit") -> float:
    """Estimated cost of one work unit, in heuristic-repetition units.

    ``provider_cost x repetitions x (n*m)^size_exponent`` — repetitions
    scale linearly (each is an independent solve), instance size
    sublinearly (the batch kernels amortize rows; the calibrated
    exponent captures the net effect well enough for balancing, and the
    stealing pass absorbs the residual error).
    """
    scenario = manifest.scenario_for(unit.figure_id)
    n, _, m = scenario.dimensions_at(unit.sweep_value)
    size = max(1.0, float(n) * float(m))
    return provider_cost(unit.curve) * scenario.repetitions * size**SIZE_EXPONENT


def plan_costs(manifest: "CampaignManifest", units) -> list[float]:
    """Per-unit estimated costs of ``units`` under ``manifest``."""
    return [unit_cost(manifest, unit) for unit in units]
