"""Benchmarks of the block-scheduled experiment engine.

Two acceptance numbers guard the engine refactors:

* **scoring** (PR 2): one vectorized :class:`~repro.batch.InstanceStack`
  pass over a curve's ``R`` mappings must be at least **3x faster** than
  ``R`` scalar :func:`repro.core.evaluate` calls at ``R >= 50``;
* **solving** (PR 3): the lock-step ``solve_batch`` kernels must make
  the greedy H-family block solve — the three batch-capable greedy
  paper heuristics end-to-end — at least **3x faster** than the
  per-instance solve loop at ``R = 50``, bit for bit (H2/H3 have no
  lock-step kernel: their per-instance greedy walk is faster);
* **refining** (PR 4): the batched ``H4ls`` descent with active-row
  subsetting must beat the per-instance refinement loop by at least
  **1.5x** on the hard m=50 shape (it measured ~1.3x before converged
  rows were dropped from the stack, ~2.2x after).

Run with ``python -m pytest -m bench benchmarks/test_engine_block_scheduler.py -s``.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Mapping, evaluate
from repro.experiments import CellBlock, HeuristicProvider
from repro.generators import ScenarioConfig
from repro.simulation.rng import RandomStreamFactory

#: The batch-capable greedy paper heuristics (H1 is randomized; H2/H3
#: walk per instance).
BATCHABLE_HEURISTICS = ("H4", "H4w", "H4f")

#: The acceptance repetition count ("repetitions >= 50").
R = 50


@pytest.fixture(scope="module")
def scenario() -> ScenarioConfig:
    """A Figure 5-shaped sweep point at R=50 repetitions."""
    return ScenarioConfig(
        name="bench-engine",
        num_machines=50,
        num_types=5,
        sweep="tasks",
        sweep_values=(100,),
        repetitions=R,
        heuristics=("H4w",),
    )


@pytest.fixture(scope="module")
def block(scenario) -> CellBlock:
    return CellBlock.sample(scenario, 100, RandomStreamFactory(17))


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_block_scoring_speedup_at_r50(scenario, block):
    """Acceptance: the stack scoring pass >= 3x over R scalar evaluations."""
    provider = HeuristicProvider("H4w")
    assignments = provider.solve_block(block)

    def scalar_scoring():
        return [
            evaluate(instance, Mapping(assignments[i], instance.num_machines)).period
            for i, instance in enumerate(block.instances)
        ]

    def block_scoring():
        return block.stack.periods(assignments)

    scalar_periods = scalar_scoring()
    block_periods = block_scoring()
    for i in (0, R // 2, R - 1):
        assert block_periods[i] == scalar_periods[i]  # bit-for-bit

    scalar_time = _time(scalar_scoring)
    block_time = _time(block_scoring)
    speedup = scalar_time / block_time
    print(
        f"\nscoring {R} mappings: scalar {scalar_time * 1e3:.1f} ms, "
        f"stack pass {block_time * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0


def test_batch_solve_speedup_at_r50(block):
    """Acceptance: the lock-step greedy H-family block solve >= 3x at R=50.

    Solves the three-heuristic curve set both ways (bit-for-bit
    identical) and compares total wall-clock — the "end-to-end" ratio the
    engine sees per sweep point for the curves with a batch kernel.
    """
    per_curve = {}
    total_batch = total_loop = 0.0
    for name in BATCHABLE_HEURISTICS:
        batch_provider = HeuristicProvider(name, batch=True)
        loop_provider = HeuristicProvider(name, batch=False)
        assert (
            batch_provider.solve_block(block) == loop_provider.solve_block(block)
        ).all(), name  # bit-for-bit
        batch_time = _time(lambda: batch_provider.solve_block(block))
        loop_time = _time(lambda: loop_provider.solve_block(block))
        per_curve[name] = (loop_time, batch_time)
        total_batch += batch_time
        total_loop += loop_time
    print(f"\nbatch solve at R={R} (loop -> batch):")
    for name, (loop_time, batch_time) in per_curve.items():
        print(
            f"  {name:4s} {loop_time * 1e3:7.1f} ms -> {batch_time * 1e3:7.1f} ms "
            f"({loop_time / batch_time:.1f}x)"
        )
    speedup = total_loop / total_batch
    print(
        f"  all  {total_loop * 1e3:7.1f} ms -> {total_batch * 1e3:7.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 3.0


def test_batch_refine_speedup_at_r50(block):
    """Acceptance: the batched H4ls descent >= 1.5x at R=50 on m=50.

    The m=50 fig5 shape is the refinement's hardest case (deep descents,
    rows converging at very different depths); active-row subsetting must
    keep late rounds from paying full-stack probes.  Both paths are
    bit-for-bit identical, move counts included.
    """
    from repro.heuristics.local_search import (
        refine_specialized,
        refine_specialized_batch,
    )

    seeds = HeuristicProvider("H4w", batch=True).solve_block(block)

    def loop_refine():
        return [
            refine_specialized(instance, seeds[i])
            for i, instance in enumerate(block.instances)
        ]

    def batch_refine():
        return refine_specialized_batch(block.instances, seeds)

    loop_result = loop_refine()
    refined, moves = batch_refine()
    for i in (0, R // 2, R - 1):
        mapping, count = loop_result[i]
        assert (refined[i] == mapping.as_array).all()  # bit-for-bit
        assert count == moves[i]

    loop_time = _time(loop_refine)
    batch_time = _time(batch_refine)
    speedup = loop_time / batch_time
    print(
        f"\nH4ls refine at R={R}, m=50: loop {loop_time * 1e3:.0f} ms, "
        f"batch {batch_time * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 1.5


def test_bench_block_scoring(benchmark, block):
    provider = HeuristicProvider("H4w")
    assignments = provider.solve_block(block)
    periods = benchmark(block.stack.periods, assignments)
    assert periods.shape == (R,)


def test_bench_block_pipeline(benchmark, scenario):
    """Sampling + solving + scoring one whole block."""

    def pipeline():
        fresh = CellBlock.sample(scenario, 100, RandomStreamFactory(17))
        return HeuristicProvider("H4w").evaluate_block(fresh)

    result = benchmark(pipeline)
    assert result.periods.shape == (R,)


def test_bench_batch_solve_greedy(benchmark, block):
    """Lock-step H4w solve of one R=50 block (greedy family kernel)."""
    provider = HeuristicProvider("H4w", batch=True)
    assignments = benchmark(provider.solve_block, block)
    assert assignments.shape == (R, block.stack.num_tasks)


def test_bench_batch_solve_binary_search(benchmark, block):
    """H2 solve of one R=50 block through the forced batch route.

    H2 has no lock-step kernel, so ``solve_stack`` runs the per-instance
    greedy walk on every row: this pins the binary-search family's
    block cost.
    """
    provider = HeuristicProvider("H2", batch=True)
    assignments = benchmark(provider.solve_block, block)
    assert assignments.shape == (R, block.stack.num_tasks)


def test_bench_batch_refine(benchmark, block):
    """Lock-step H4ls descent of one R=50 block (active-row subsetting)."""
    from repro.heuristics.local_search import refine_specialized_batch

    seeds = HeuristicProvider("H4w", batch=True).solve_block(block)
    refined, moves = benchmark(refine_specialized_batch, block.instances, seeds)
    assert refined.shape == (R, block.stack.num_tasks)
    assert int(moves.sum()) > 0


# -- cross-point stacking (PR 7) ---------------------------------------------------

#: A types sweep shares the task chain across sweep points, so all eight
#: blocks stack into one kernel pass (480 rows at n=50, m=40).
CROSS_POINT_SCENARIO = ScenarioConfig(
    name="bench-cross-point",
    num_machines=40,
    num_types=None,
    num_tasks=50,
    sweep="types",
    sweep_values=tuple(range(4, 36, 4)),
    repetitions=6,
    heuristics=("H2",),
)


@pytest.fixture(scope="module")
def cross_point_blocks() -> list[CellBlock]:
    streams = RandomStreamFactory(17)
    return [
        CellBlock.sample(CROSS_POINT_SCENARIO, value, streams)
        for value in CROSS_POINT_SCENARIO.sweep_values
    ]


def test_cross_point_stacking_speedup(cross_point_blocks):
    """Acceptance: stacking aligned sweep points >= 1.3x over per-block.

    A types sweep keeps (n, m) fixed, so every point of the figure shares
    the block structure; ``evaluate_blocks`` solves all points x R rows in
    one solve_stack entry instead of one per point.  Results stay
    bit-for-bit identical.  Measured on H4ls, whose batched descent gains
    most from the deeper stack (~2x); the greedy kernels are already
    cheap at R=6, and H2/H3 have no lock-step kernel.
    """
    provider = HeuristicProvider("H4ls")

    def per_block():
        return [provider.evaluate_block(block) for block in cross_point_blocks]

    def stacked():
        return provider.evaluate_blocks(cross_point_blocks)

    for loop_result, stacked_result in zip(per_block(), stacked()):
        assert (loop_result.periods == stacked_result.periods).all()  # bit-for-bit

    loop_time = _time(per_block)
    stacked_time = _time(stacked)
    speedup = loop_time / stacked_time
    rows = sum(block.repetitions for block in cross_point_blocks)
    print(
        f"\ncross-point H4ls, {len(cross_point_blocks)} points x R="
        f"{CROSS_POINT_SCENARIO.repetitions} ({rows} rows): per-block "
        f"{loop_time * 1e3:.0f} ms, stacked {stacked_time * 1e3:.0f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 1.3


def test_bench_block_pipeline_cross_point(benchmark, cross_point_blocks):
    """One stacked solve+score pass over a whole aligned types sweep."""
    provider = HeuristicProvider("H2")
    results = benchmark(provider.evaluate_blocks, cross_point_blocks)
    assert len(results) == len(cross_point_blocks)
    assert all(
        result.periods.shape == (CROSS_POINT_SCENARIO.repetitions,)
        for result in results
    )
