"""Per-block solve-cost model driving shard balancing and stealing order.

Blocks are wildly uneven: a MIP block at its time limit costs ~300x an
H4-family block of the same shape, local search ~15x, an H2/H3
bisection ~5.5x, H1 ~5x, OtO ~3x.  A block count says nothing about
this, so the shard planner (:func:`repro.campaign.plan.plan`) prices each
campaign work unit (one block) by its provider label with calibrated
estimates and balances shards by total estimated cost (LPT greedy),
and the block executor's work stealing
(:func:`repro.experiments.runner.execute_blocks`, whose parallel jobs
are one sweep point each, priced as the sum of their blocks) mops up
whatever the estimates still get wrong.  A block is priced from its ``(scenario,
curve, sweep value)`` alone, so an in-memory run is priced the same way
as a campaign.

The estimates are *relative* costs in units of one H4-family
repetition, plain constants below (MIP reflects the worst case of a
block solved at its time limit).  Costs scale linearly with
repetitions and sublinearly (calibrated exponent) with the instance
size at the block's sweep point.
"""

from __future__ import annotations

from ..generators.scenarios import ScenarioConfig
from ..heuristics import (
    BinarySearchHeuristic,
    LocalSearchHeuristic,
    RandomHeuristic,
    get_heuristic,
)
from .providers import MIP_LABEL, OTO_LABEL, _parse_curve

__all__ = ["classify_curve", "provider_cost", "block_cost"]

#: Relative per-repetition solve cost of each provider class.  Measured
#: as provider time over the mean time of H4 and H4w at R=30, the median
#: of 3 alternated runs per point, on fig6 n=10/40/70/100 and three fig9
#: points: ``bisection`` (H2, H3) 3.2-5.7 on fig6 and 7.8-11.8 on fig9;
#: ``local_search`` on fig6 9.3-28.1; ``oto`` on fig9 1.8-3.2;
#: ``random`` (H1, a per-instance walk drawing from a generator) 3.6-4.2
#: on fig5 n=50/100/150, 4.8-5.8 on fig8 n=10/50/100 and 4.4-5.0 on
#: fig10 n=2/10/16, priced at the median of those nine points.  The
#: other plain heuristics are the unit (H4f 0.8-1.0).  ``mip`` is the
#: earlier worst-case estimate of 100 plain-heuristic means, rebased by
#: that mean's 2.1-6.4 H4 units.
PROVIDER_COSTS = {
    "heuristic": 1.0,
    "random": 4.8,
    "bisection": 5.5,
    "local_search": 15.0,
    "oto": 2.8,
    "mip": 330.0,
}
#: Exponent of the instance size ``n*m`` in :func:`block_cost`.
SIZE_EXPONENT = 0.5


def classify_curve(curve: str) -> str:
    """The cost class of a curve label
    (mip/oto/local_search/bisection/random/heuristic), parsed by the
    providers' own label grammar (case-insensitive)."""
    label, base = _parse_curve(curve)
    if base is not None:
        return "local_search"
    if label == MIP_LABEL:
        return "mip"
    if label == OTO_LABEL:
        return "oto"
    heuristic = get_heuristic(label)
    if isinstance(heuristic, LocalSearchHeuristic):
        return "local_search"
    if isinstance(heuristic, BinarySearchHeuristic):
        return "bisection"
    if isinstance(heuristic, RandomHeuristic):
        return "random"
    return "heuristic"


def provider_cost(curve: str) -> float:
    """Relative per-repetition cost of one curve's provider."""
    return PROVIDER_COSTS[classify_curve(curve)]


def block_cost(scenario: ScenarioConfig, curve: str, sweep_value: int) -> float:
    """Estimated cost of one block, in H4-family-repetition units.

    ``provider_cost x repetitions x (n*m)^size_exponent`` — repetitions
    scale linearly (each is an independent solve), instance size
    sublinearly (the batch kernels amortize rows; the calibrated
    exponent captures the net effect well enough for balancing, and the
    stealing pass absorbs the residual error).
    """
    n, _, m = scenario.dimensions_at(sweep_value)
    size = max(1.0, float(n) * float(m))
    return provider_cost(curve) * scenario.repetitions * size**SIZE_EXPONENT
