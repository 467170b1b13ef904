"""Shard worker: execute exactly one shard's work units into a store.

A worker host receives a :class:`~repro.campaign.plan.ShardPlan` (a
``shard_k.json`` file, or the campaign manifest plus ``k/N``) and a
local result-store directory, and computes *exactly* the plan's units
through the same block engine a single-host campaign uses — the same
providers, the same :class:`~repro.simulation.rng.RandomStreamFactory`
streams re-derived from each unit's root seed.  Because a unit's result
is a pure function of ``(scenario, seed, curve, sweep value)``, the
union of all shard stores carries bit-for-bit the cell records a single
host would have stored — only run-header wall-clocks and on-disk record
order can differ (see :meth:`repro.experiments.store.ResultStore.merge`).

Each completed block is appended to the shard store the moment it
finishes, so a killed worker resumes with ``run_shard(...,
resume=True)`` (the default) and recomputes at most the block in
flight.  Per ``(figure, seed)`` run the worker also records a
:class:`~repro.experiments.store.RunMeta` header carrying the *full*
curve list of the run — not just this shard's — so the merged store can
rebuild :class:`~repro.experiments.runner.ExperimentResult` objects as
soon as every shard landed.

The shard's units run through :func:`repro.dag.scheduler.execute_solves`,
the one resume path of every campaign command: a unit whose cell the
store already holds at full depth is skipped, parallel runs get
cost-aware work stealing, and the store layout, resume semantics and
progress lines above are the same as a single-host campaign's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..experiments.store import ResultStore
from ..obs.trace import span
from .plan import ShardPlan, group_by_run

__all__ = ["ShardReport", "run_shard"]


@dataclass(slots=True)
class ShardReport:
    """What one :func:`run_shard` call did.

    Attributes
    ----------
    shard, shards:
        The executed shard's coordinates.
    computed, skipped:
        Blocks computed this call / blocks already stored (resume).
    runs:
        The ``(figure_id, seed)`` runs the shard contributed to.
    elapsed_seconds:
        Wall-clock duration of the call.
    """

    shard: int
    shards: int
    computed: int = 0
    skipped: int = 0
    runs: list[tuple[str, int]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def summary(self) -> str:
        """One-line report for the CLI."""
        return (
            f"shard {self.shard}/{self.shards}: {self.computed} block(s) computed, "
            f"{self.skipped} already stored, {len(self.runs)} run(s), "
            f"{self.elapsed_seconds:.1f}s"
        )


def run_shard(
    shard: ShardPlan,
    store: ResultStore,
    *,
    workers: int | None = None,
    resume: bool = True,
    log=None,
) -> ShardReport:
    """Execute every unit of ``shard`` against ``store``.

    Parameters
    ----------
    shard:
        The plan to execute (see :func:`repro.campaign.plan.load_plan`).
    store:
        Destination store — typically a per-shard directory that is later
        merged; running several shards into one *local* store is also
        fine (the records are key-addressed).
    workers:
        Process-pool size for this host's blocks (overrides the
        manifest's ``workers`` knob when given).
    resume:
        Skip units whose cells the store already holds with at least the
        required repetitions (a re-run after a kill recomputes only the
        remainder).
    log:
        Optional callable for per-run progress lines.
    """
    # Imported lazily: repro.dag.scheduler itself imports campaign.plan,
    # so a module-level import here would make `import repro.dag` (which
    # triggers this package's __init__) a circular-import error.
    from ..dag.scheduler import execute_solves

    manifest = shard.manifest
    report = ShardReport(shard=shard.index, shards=shard.shards)
    start = time.perf_counter()
    with span(
        "campaign.shard",
        shard=shard.index,
        shards=shard.shards,
        units=len(shard.units),
    ) as shard_span:
        solves = execute_solves(
            manifest,
            shard.units,
            store,
            workers=workers,
            resume=resume,
            log=log,
        )
        shard_span.set(
            computed=solves.computed, hits=solves.hits, stolen=solves.stolen
        )
    report.computed = solves.computed
    report.skipped = solves.hits
    report.runs = list(group_by_run(shard.units))
    store.flush()
    report.elapsed_seconds = time.perf_counter() - start
    return report
