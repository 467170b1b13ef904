"""H4ls — local-search refinement of H4w (best single-task moves).

``H4ls`` starts from the mapping produced by H4w (the paper's overall
winner) and repeatedly applies the *best* single-task move — the
reassignment of one task to one machine that lowers the period the most
— until no improving move exists.  Each step is one
:meth:`repro.batch.MappingEvaluator.best_move` call, which scores every
allowed (task, destination) cell incrementally in one kernel call
instead of re-evaluating ``n * m`` mappings, so a refinement pass costs
a small multiple of one greedy run.  :func:`descend` is the one descent
loop: H4ls refines through it, and so does the live replanner's warm
tier (restricted to the surviving machines).

Moves are restricted to destinations that keep the mapping *specialized*
(a machine only ever hosts tasks of a single type), so the refined
mapping satisfies the same rule as its seed and remains comparable with
the other specialized heuristics.  Because the search starts from H4w's
mapping and only applies strictly improving moves — and the final
mapping is re-checked against the seed under the exact scalar evaluation
— ``H4ls`` is never worse than H4w on any instance.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..batch.evaluation import InstanceStack
from ..batch.incremental import MappingEvaluator
from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..core.period import evaluate
from .base import Heuristic, register_heuristic
from .greedy import FastestMachineHeuristic

__all__ = [
    "LocalSearchHeuristic",
    "descend",
    "refine_specialized",
    "refine_specialized_batch",
    "specialized_move_mask",
]


def specialized_move_mask(instance: ProblemInstance, assignment: np.ndarray) -> np.ndarray:
    """Boolean ``(n, m)`` mask of moves that keep ``assignment`` specialized.

    Entry ``[i, u]`` is true when machine ``u`` currently hosts no task of
    a type other than ``t(i)`` — i.e. moving task ``i`` there leaves every
    machine dedicated to at most one type.
    """
    types = instance.application.types.as_array
    counts = np.zeros((instance.num_machines, instance.num_types), dtype=np.int64)
    np.add.at(counts, (np.asarray(assignment, dtype=np.int64), types), 1)
    hosted = counts > 0
    distinct = hosted.sum(axis=1)
    # Machine u accepts type t when it is empty or dedicated to t already.
    accepts = (distinct == 0)[:, np.newaxis] | ((distinct == 1)[:, np.newaxis] & hosted)
    return accepts.T[types]


def descend(
    evaluator: MappingEvaluator,
    *,
    up: np.ndarray | None = None,
    max_moves: int | None = None,
    rel_tol: float = 1e-12,
) -> int:
    """Best-single-move descent of ``evaluator``, in place, within the specialized rule.

    Repeatedly applies the globally best improving single-task move (one
    :meth:`~repro.batch.MappingEvaluator.best_move` call, then
    :meth:`~repro.batch.MappingEvaluator.move`) until the mapping is a
    local optimum, and returns the number of moves.  ``up`` is an
    optional boolean ``(m,)`` mask of the machines a move may target (the
    live replanner's surviving machines).

    The allowed cells are :func:`specialized_move_mask` of the current
    assignment, restricted to ``up``.  The mask is built once: a move of
    task ``i`` from machine ``a`` to ``v`` changes which types only
    ``a`` and ``v`` host, so after each move only those two columns are
    rewritten, from per-machine counts of hosted types.  A column is
    all-true (an empty up machine), the tasks of its one hosted type, or
    all-false (a down machine, or one hosting several types), so every
    step sees exactly the mask a rebuild would give.

    ``max_moves`` is a hard cap on the number of moves (defaults to
    ``100 * n``, a safety net far above what the descent ever uses in
    practice — each move must lower the period by a relative
    ``rel_tol``).
    """
    instance = evaluator.instance
    cap = max_moves if max_moves is not None else 100 * instance.num_tasks
    types = instance.application.types.as_array
    assignment = evaluator.assignment
    allowed = specialized_move_mask(instance, assignment)
    if up is not None:
        up = np.asarray(up, dtype=bool)
        allowed &= up
    assignment = assignment.tolist()
    type_of = types.tolist()
    down = [False] * instance.num_machines if up is None else (~up).tolist()
    counts = [[0] * instance.num_types for _ in range(instance.num_machines)]
    for task, machine in enumerate(assignment):
        counts[machine][type_of[task]] += 1
    every = np.ones(instance.num_tasks, dtype=bool)
    of_type = [types == t for t in range(instance.num_types)]
    none = ~every

    def column(machine: int) -> np.ndarray:
        hosted = [t for t, count in enumerate(counts[machine]) if count]
        if down[machine] or len(hosted) > 1:
            return none
        return of_type[hosted[0]] if hosted else every

    moves = 0
    while moves < cap:
        best = evaluator.best_move(allowed=allowed, rel_tol=rel_tol)
        if best is None:
            break
        task, machine, _ = best
        evaluator.move(task, machine)
        moves += 1
        source = assignment[task]
        assignment[task] = machine
        counts[source][type_of[task]] -= 1
        counts[machine][type_of[task]] += 1
        allowed[:, source] = column(source)
        allowed[:, machine] = column(machine)
    return moves


def refine_specialized_batch(
    instances: Sequence[ProblemInstance],
    seeds: np.ndarray,
    *,
    max_moves: int | None = None,
    rel_tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise :func:`refine_specialized` over a whole repetition block.

    Row ``r`` is the descent of ``instances[r]`` from ``seeds[r]``.  Each
    descent step already scores all ``n`` tasks in one probe, so rows run
    one after another: a lock-step descent across the block measured no
    faster, even at its best shape.

    Returns ``(refined assignments, per-row move counts)``.
    """
    result = np.array(seeds, dtype=np.int64)
    moves = np.zeros(len(instances), dtype=np.int64)
    for row, instance in enumerate(instances):
        mapping, moves[row] = refine_specialized(
            instance, result[row], max_moves=max_moves, rel_tol=rel_tol
        )
        result[row] = mapping.as_array
    return result, moves


def refine_specialized(
    instance: ProblemInstance,
    mapping: Mapping | np.ndarray,
    *,
    up: np.ndarray | None = None,
    max_moves: int | None = None,
    rel_tol: float = 1e-12,
) -> tuple[Mapping, int]:
    """:func:`descend` from ``mapping`` on a fresh evaluator, moving
    tasks only to the machines ``up`` marks (every machine when ``None``).

    Returns ``(refined mapping, number of moves)``.
    """
    evaluator = MappingEvaluator(instance, mapping)
    moves = descend(evaluator, up=up, max_moves=max_moves, rel_tol=rel_tol)
    return evaluator.mapping, moves


@register_heuristic
class LocalSearchHeuristic(Heuristic):
    """H4ls: H4w followed by a best-single-task-move descent.

    The incremental probes can drift a few ulps from the exact scalar
    evaluation over a long chain of moves, so the refined mapping is
    compared against the H4w seed under the *scalar* evaluation and the
    seed is returned whenever refinement did not strictly improve it —
    making "never worse than H4w" an exact, bit-level guarantee.
    """

    name = "H4ls"
    #: The heuristic whose mapping is refined.
    base = "H4w"

    def __init__(self) -> None:
        # One seed solver, so its walk inputs are kept across solves.
        self._seeder = FastestMachineHeuristic()

    def release_walk_inputs(self) -> None:
        self._seeder.release_walk_inputs()

    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        seed_mapping, _, _ = self._seeder.solve_mapping(instance, rng, up=up)
        refined, moves = refine_specialized(instance, seed_mapping, up=up)
        seed_period = evaluate(instance, seed_mapping).period
        refined_period = evaluate(instance, refined).period
        if refined_period < seed_period:
            return (
                refined,
                1 + moves,
                {"base": self.base, "moves": moves, "seed_period": seed_period},
            )
        return seed_mapping, 1, {"base": self.base, "moves": 0, "seed_period": seed_period}

    def solve_batch(self, instances: Sequence[ProblemInstance]) -> np.ndarray:
        """Batched H4ls: one H4w batch solve, then each row's refinement.

        The seed/refined comparison runs through the stack's vectorized
        evaluation, which is bit-for-bit the scalar evaluation — so each
        row returns exactly what :meth:`solve_mapping` would.
        """
        seeds = self._seeder.solve_batch(instances)
        refined, _ = refine_specialized_batch(instances, seeds)
        stack = InstanceStack.from_instances(instances)
        improved = stack.periods(refined) < stack.periods(seeds)
        return np.where(improved[:, np.newaxis], refined, seeds)
