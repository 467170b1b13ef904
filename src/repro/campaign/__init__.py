"""Distributed campaign orchestration: plan, execute, merge.

The paper's figures are R-repetition Monte-Carlo sweeps; this package
scales them past one host by splitting a campaign into deterministic,
disjoint **shards** executed anywhere and merged back without
coordination:

1. :func:`~repro.campaign.plan.plan` expands a
   :class:`~repro.campaign.plan.CampaignManifest` (figures x seeds x
   curves x sweep points) into per-shard work-unit lists, balanced by
   estimated cost (``microrepro shard plan``);
2. :func:`~repro.dag.scheduler.execute_solves` — the store's side of
   every store-backed run, ``microrepro dag run`` included — brings
   exactly one shard's units into a local
   :class:`~repro.experiments.store.ResultStore`
   (``microrepro shard run``), computing the missing blocks through the
   same executor as an in-memory run
   (:func:`~repro.experiments.runner.execute_blocks`);
3. :func:`~repro.campaign.merge.merge_stores` unions the shard stores —
   append-only, key-addressed cell records with conflict detection —
   into the store a single host would have produced, bit for bit
   (``microrepro store merge``).

Results are pure functions of ``(scenario, seed, curve, sweep value)``
through CRC-hashed random stream labels, which is what makes the merged
store independent of how the work was partitioned.
"""

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
    "ShardStatus",
    "load_shard_plans",
    "shard_status",
    "status_payload",
    "status_rows",
    "merge_stores",
]
