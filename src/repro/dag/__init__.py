"""Campaign execution: stored cells as the cache, cost-aware stealing.

A campaign manifest expands into work units — one per ``(figure, seed,
curve, sweep value)`` block, each stored as one
:class:`~repro.experiments.store.CellRecord` of the campaign's
:class:`~repro.experiments.store.ResultStore`.  Those cells are the
campaign's only record; everything else is derived from them on read:

* :mod:`repro.dag.cost` — calibrated per-provider cost estimates
  (MIP ~100x a heuristic block), priced per ``(scenario, curve, sweep
  value)``, for shard balancing and stealing order;
* :mod:`repro.dag.scheduler` — the work-stealing dispatch loop of every
  parallel block run, and the store's side of a campaign: skip what the
  store holds (a unit whose cell holds the run's repetitions is a hit),
  hand the rest to the block executor
  (:func:`repro.experiments.runner.execute_blocks`), write one cell per
  computed block, then render the exports from the stored cells.

Re-running an identical campaign performs zero block solves, writes
nothing and reproduces its exports bit-for-bit.  ``microrepro dag
plan/run/status`` is the CLI surface; ``shard run`` executes one shard
of a distributed campaign through the same
:func:`~repro.dag.scheduler.execute_solves`.
"""

from .cost import block_cost, classify_curve, provider_cost
from .scheduler import (
    DispatchReport,
    PipelineReport,
    PipelineRun,
    execute_solves,
    run_pipeline,
    steal_dispatch,
)

__all__ = [
    "classify_curve",
    "provider_cost",
    "block_cost",
    "DispatchReport",
    "PipelineReport",
    "PipelineRun",
    "steal_dispatch",
    "execute_solves",
    "run_pipeline",
]
