"""Benchmarks for the campaign DAG: stealing speedup and cache overhead.

Two claims are protected here:

* **Cost-balanced scheduling + work stealing beats naive round-robin**
  on a mixed MIP+heuristic plan.  The dispatch layer is benchmarked in
  isolation with sleeps proportional to the cost model's estimates (so
  the comparison measures *scheduling*, not solver noise) and the
  speedup is asserted — this runs in the blocking ``-m bench`` CI job.
  Sleep-based timings are machine-independent, so this test must NOT
  join the normalized baseline gate.

* **The cached re-run stays cheap**: re-running a fully stored
  campaign does zero solves, and ``test_bench_dag_pipeline``
  (pytest-benchmark, real compute) pins the cost of that re-run — cell
  lookups plus the exports derived from the stored cells — in the
  normalized regression gate (``benchmarks/baseline.json``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.campaign import CampaignManifest, expand_units, plan, run_pipeline
from repro.experiments import ResultStore
from repro.experiments.cost import block_cost
from repro.experiments.runner import steal_dispatch

#: Executor slots for the dispatch comparison (one per simulated host).
SLOTS = 3
#: Total simulated solve seconds across the whole plan (split over SLOTS).
SIMULATED_TOTAL_SECONDS = 2.4


def _unit_cost(manifest: CampaignManifest, unit) -> float:
    """The :func:`block_cost` of one campaign work unit."""
    return block_cost(manifest.resolve(unit.figure_id).scenario, unit.curve, unit.sweep_value)


def _mixed_manifest() -> CampaignManifest:
    """A mixed MIP+heuristic plan: fig10 carries the exact MIP curve."""
    return CampaignManifest(
        figures=("fig10",), seeds=(0, 1), repetitions=2, max_points=2, no_milp=False
    )


def _dispatch_seconds(queues: list[list[float]], *, steal: bool) -> tuple[float, int]:
    """Wall-clock of draining sleep-priced queues through ``SLOTS`` workers."""
    with ThreadPoolExecutor(max_workers=SLOTS) as pool:
        start = time.perf_counter()
        report = steal_dispatch(
            partial(pool.submit, time.sleep),
            queues,
            [list(queue) for queue in queues],
            slots=SLOTS,
            steal=steal,
        )
        elapsed = time.perf_counter() - start
    total = sum(len(queue) for queue in queues)
    assert report.executed == total
    return elapsed, report.stolen


def test_cost_balance_and_stealing_beat_naive_round_robin():
    """The DAG scheduler's makespan vs count-based round-robin, no stealing.

    Each work unit sleeps for a duration proportional to its cost-model
    estimate (MIP blocks ~100x heuristic blocks), so queue shape is the
    only variable.  The naive baseline assigns blocks round-robin and
    never steals — its makespan is the unluckiest queue; the DAG way
    (LPT over cost estimates + tail stealing) must beat it.
    """
    manifest = _mixed_manifest()
    units = expand_units(manifest)
    scale = SIMULATED_TOTAL_SECONDS / sum(_unit_cost(manifest, u) for u in units)

    def sleep_queues(shard_units):
        return [
            [_unit_cost(manifest, unit) * scale for unit in queue]
            for queue in shard_units
        ]

    # Round-robin over blocks: unit i goes to queue i % SLOTS.
    naive_queues = sleep_queues(units[k::SLOTS] for k in range(SLOTS))
    balanced_queues = sleep_queues(
        shard.units for shard in plan(manifest, shards=SLOTS, by="block")
    )
    naive_seconds, _ = _dispatch_seconds(naive_queues, steal=False)
    balanced_seconds, stolen = _dispatch_seconds(balanced_queues, steal=True)

    speedup = naive_seconds / balanced_seconds
    ideal = SIMULATED_TOTAL_SECONDS / SLOTS
    print(
        f"\nnaive round-robin {naive_seconds:.2f} s, cost-LPT + stealing "
        f"{balanced_seconds:.2f} s ({stolen} stolen), speedup {speedup:.2f}x "
        f"(ideal makespan {ideal:.2f} s)"
    )
    assert speedup >= 1.2
    # Stealing + LPT must land near the perfect-balance makespan.
    assert balanced_seconds <= ideal * 1.35


def test_stealing_rescues_a_straggler_queue():
    """An all-in-one-queue worst case: stealing must spread it out."""
    sleeps = [0.02] * 30
    alone, _ = _dispatch_seconds([list(sleeps), [], []], steal=False)
    spread, stolen = _dispatch_seconds([list(sleeps), [], []], steal=True)
    print(
        f"\nstraggler queue serial {alone:.2f} s, stolen across {SLOTS} slots "
        f"{spread:.2f} s ({stolen} stolen), speedup {alone / spread:.2f}x"
    )
    assert stolen > 0
    assert alone / spread >= 1.8  # three slots, modest thread overhead


def test_bench_dag_pipeline(benchmark, tmp_path):
    """Cached re-run of a campaign: pure subsystem overhead.

    The first run computes and stores every cell; the benchmarked
    function replays the identical campaign, which must do *zero*
    solves — the measured time is the per-unit cell lookups plus the
    per-seed and pooled CSVs derived from the stored cells.  This is the
    re-run's overhead floor, gated against ``baseline.json``.
    """
    manifest = CampaignManifest(
        figures=("fig5",), seeds=(0, 1), repetitions=2, max_points=3
    )
    store = ResultStore(tmp_path / "store")
    first = run_pipeline(manifest, store)
    assert first.report.computed > 0

    def cached_rerun():
        run = run_pipeline(manifest, store)
        assert run.report.computed == 0
        assert run.report.hit_rate() == 1.0
        return run

    run = benchmark(cached_rerun)
    assert run.renders == first.renders
