"""Per-block solve-cost model driving shard balancing and stealing order.

Blocks are wildly uneven: a MIP block at its time limit costs ~100x a
heuristic block of the same shape, local search ~7.5x, OtO ~2x.  A
block count says nothing about this, so the shard planner
(:func:`repro.campaign.plan.plan`) prices each campaign work unit (one
block) by its provider label with calibrated estimates and balances
shards by total estimated cost (LPT greedy), and the block executor's
work stealing (:func:`repro.experiments.runner.execute_blocks`) mops up
whatever the estimates still get wrong.  A block is priced from its ``(scenario,
curve, sweep value)`` alone, so an in-memory run is priced the same way
as a campaign.

The estimates are *relative* costs in units of one heuristic
repetition, plain constants below (H2/H3/H4-family = 1.0; MIP reflects
the worst case of a block solved at its time limit).  Costs scale
linearly with repetitions and sublinearly (calibrated exponent) with
the instance size at the block's sweep point.
"""

from __future__ import annotations

from ..exceptions import ReproError
from ..generators.scenarios import ScenarioConfig
from ..heuristics import LocalSearchHeuristic, get_heuristic
from .providers import LOCAL_SEARCH_SUFFIX, MIP_LABEL, OTO_LABEL

__all__ = ["classify_curve", "provider_cost", "block_cost"]

#: Relative per-repetition solve cost of each provider class.  Measured
#: as provider time over the plain heuristics' mean time, at R=30:
#: ``local_search`` on fig6 n=10/40/70/100 (7.0-7.9).  OtO reads 0.5 of
#: that mean on fig9, where the H2/H3 bisections dominate it, so it is
#: priced against the H4 family instead (1.7-1.9), keeping it above a
#: heuristic block.
PROVIDER_COSTS = {
    "heuristic": 1.0,
    "local_search": 7.5,
    "oto": 1.8,
    "mip": 100.0,
}
#: Exponent of the instance size ``n*m`` in :func:`block_cost`.
SIZE_EXPONENT = 0.5


def classify_curve(curve: str) -> str:
    """The cost class of a curve label (mip/oto/local_search/heuristic)."""
    if curve == MIP_LABEL:
        return "mip"
    if curve == OTO_LABEL:
        return "oto"
    if curve.endswith(LOCAL_SEARCH_SUFFIX) or _is_local_search(curve):
        return "local_search"
    return "heuristic"


def _is_local_search(curve: str) -> bool:
    """Whether ``curve`` names a registered local-search heuristic (H4ls)."""
    try:
        return isinstance(get_heuristic(curve), LocalSearchHeuristic)
    except ReproError:
        return False


def provider_cost(curve: str) -> float:
    """Relative per-repetition cost of one curve's provider."""
    return PROVIDER_COSTS[classify_curve(curve)]


def block_cost(scenario: ScenarioConfig, curve: str, sweep_value: int) -> float:
    """Estimated cost of one block, in heuristic-repetition units.

    ``provider_cost x repetitions x (n*m)^size_exponent`` — repetitions
    scale linearly (each is an independent solve), instance size
    sublinearly (the batch kernels amortize rows; the calibrated
    exponent captures the net effect well enough for balancing, and the
    stealing pass absorbs the residual error).
    """
    n, _, m = scenario.dimensions_at(sweep_value)
    size = max(1.0, float(n) * float(m))
    return provider_cost(curve) * scenario.repetitions * size**SIZE_EXPONENT
