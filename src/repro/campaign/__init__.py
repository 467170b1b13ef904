"""Campaigns: plan, execute, check and merge stored figure sweeps.

The paper's figures are R-repetition Monte-Carlo sweeps.  A campaign
regenerates them into a :class:`~repro.experiments.store.ResultStore`:
a manifest expands into work units — one per ``(figure, seed, curve,
sweep value)`` block, each stored as one
:class:`~repro.experiments.store.CellRecord` — and the stored cells are
the campaign's only record:

1. :func:`~repro.campaign.plan.plan` expands a
   :class:`~repro.campaign.plan.CampaignManifest` (figures x seeds x
   curves x sweep points, each figure resolved as ``run_figure`` does)
   into per-shard work-unit lists, balanced by
   estimated cost (:mod:`repro.experiments.cost`), and
   :func:`~repro.campaign.plan.write_plans` writes one
   ``shard_<k>.json`` per shard (``microrepro shard plan``);
2. :func:`~repro.campaign.execute.execute_solves` brings a list of
   units into a store, skipping every unit whose cell the store already
   holds at full depth (:func:`~repro.campaign.status.cell_done`) and
   computing the rest through the same block executor as an in-memory
   run (:func:`~repro.experiments.runner.execute_blocks`) — one shard
   (``microrepro shard run``) or, through
   :func:`~repro.campaign.execute.run_pipeline`, a whole campaign with
   its exports derived from the stored cells (``microrepro dag run``);
3. :func:`~repro.campaign.status.shard_status` counts each shard's
   stored units (``microrepro shard status``, ``dag status``);
4. :func:`~repro.campaign.merge.merge_stores` unions the shard stores —
   append-only, key-addressed cell records with conflict detection —
   into the store a single host would have produced, bit for bit
   (``microrepro store merge``).

Results are pure functions of ``(scenario, seed, curve, sweep value)``
through CRC-hashed random stream labels, which is what makes the merged
store independent of how the work was partitioned, and an identical
re-run perform zero block solves.  Imports flow one way: this package
builds on :mod:`repro.experiments`, which never imports it.
"""

from .execute import PipelineReport, PipelineRun, execute_solves, run_pipeline
from .merge import merge_stores
from .plan import (
    CAMPAIGN_FILE,
    PLAN_AXES,
    CampaignManifest,
    ShardPlan,
    WorkUnit,
    expand_units,
    group_by_run,
    load_plan,
    parse_seed_spec,
    plan,
    write_plans,
)
from .status import (
    ShardStatus,
    load_shard_plans,
    shard_status,
    status_payload,
    status_rows,
)

__all__ = [
    "CAMPAIGN_FILE",
    "PLAN_AXES",
    "CampaignManifest",
    "ShardPlan",
    "WorkUnit",
    "expand_units",
    "group_by_run",
    "load_plan",
    "parse_seed_spec",
    "plan",
    "write_plans",
    "PipelineReport",
    "PipelineRun",
    "execute_solves",
    "run_pipeline",
    "ShardStatus",
    "load_shard_plans",
    "shard_status",
    "status_payload",
    "status_rows",
    "merge_stores",
]
