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
   into per-shard work-unit lists, balanced by estimated cost
   (:mod:`repro.experiments.cost`).  A shard is a pure function of
   ``(manifest, K, by)`` and the cost model, so a host computes its own
   (``microrepro dag run FIGS --shard k/K``) and nothing is shipped;
2. :func:`~repro.campaign.execute.execute_solves` brings a list of
   units into a store, skipping every unit whose cell the store already
   holds at full depth (:func:`~repro.campaign.status.cell_done`) and
   computing the rest through the same block executor as an in-memory
   run (:func:`~repro.experiments.runner.execute_blocks`);
   :func:`~repro.campaign.execute.run_pipeline` runs a whole campaign,
   or one shard, and derives the exports from the stored cells
   (``microrepro dag run``);
3. :class:`~repro.campaign.record.CampaignRecord` is the store's
   ``campaign.json``: the campaign ``dag run`` resumes and, for a shard
   store, the shard and the cost model it was planned under;
4. :func:`~repro.campaign.status.campaign_status` counts each shard's
   stored units against the recorded campaign (``microrepro dag
   status``);
5. :func:`~repro.campaign.merge.merge_stores` unions the shard stores —
   append-only, key-addressed cell records with conflict detection —
   into the store a single host would have produced, bit for bit, and
   records the whole campaign there (``microrepro store merge``).

Results are pure functions of ``(scenario, seed, curve, sweep value)``
through CRC-hashed random stream labels, which is what makes the merged
store independent of how the work was partitioned, and an identical
re-run perform zero block solves.  Imports flow one way: this package
builds on :mod:`repro.experiments`, which never imports it.
"""

from .execute import PipelineReport, PipelineRun, execute_solves, run_pipeline
from .merge import merge_stores
from .plan import (
    PLAN_AXES,
    CampaignManifest,
    ShardPlan,
    WorkUnit,
    expand_units,
    group_by_run,
    parse_seed_spec,
    plan,
)
from .record import (
    CAMPAIGN_FILE,
    CampaignRecord,
    ShardSpec,
    cost_model,
    kept_record,
    read_record,
    write_record,
)
from .status import ShardStatus, campaign_status, shard_status, status_payload

__all__ = [
    "CAMPAIGN_FILE",
    "PLAN_AXES",
    "CampaignManifest",
    "CampaignRecord",
    "ShardPlan",
    "ShardSpec",
    "WorkUnit",
    "cost_model",
    "expand_units",
    "group_by_run",
    "kept_record",
    "parse_seed_spec",
    "plan",
    "read_record",
    "write_record",
    "PipelineReport",
    "PipelineRun",
    "execute_solves",
    "run_pipeline",
    "ShardStatus",
    "campaign_status",
    "shard_status",
    "status_payload",
    "merge_stores",
]
