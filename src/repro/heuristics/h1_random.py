"""H1 — random heuristic (Algorithm 1 of the paper).

Tasks are walked sinks first and grouped by type at random; a *group*
is a machine dedicated to one type.  The first task of a type opens a
new group on a free machine drawn uniformly.  A later task of the type
flips a fair coin when the free-machine guard (``nbFreeMachines >
nbTypesToGo``) allows a new group: heads opens one on a uniformly drawn
free machine, tails joins one of the type's existing groups, drawn
uniformly.  Without a spare free machine it always joins an existing
group.  A machine is drawn from an ascending list of candidates as
``candidates[rng.integers(len(candidates))]``, the coin is
``rng.random() < 0.5``.  ``rng.choice(candidates)`` draws the same
index from the same stream (``tests.helpers.reference_h1`` uses it), but
converts the list to an array on every draw, which cost H1 most of its
time.

H1 is the *baseline* of the experimental section — it produces valid
specialized mappings but ignores both processing times and failure rates.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..exceptions import ReproError
from .base import Heuristic, backward_task_order, register_heuristic

__all__ = ["RandomHeuristic"]


@register_heuristic
class RandomHeuristic(Heuristic):
    """Paper heuristic H1: random type grouping, random machine choice."""

    name = "H1"
    randomized = True

    def solve_mapping(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator | None = None,
        *,
        up: np.ndarray | None = None,
    ) -> tuple[Mapping, int, dict]:
        if rng is None:  # pragma: no cover - Heuristic.solve always passes one
            rng = np.random.default_rng()
        types = instance.application.types.as_array.tolist()
        # The free machines, ascending: down machines never enter it.
        free = (
            list(range(instance.num_machines)) if up is None else np.flatnonzero(up).tolist()
        )
        # groups[t]: the machines dedicated to type t, ascending.
        groups: list[list[int]] = [[] for _ in range(max(types) + 1)]
        pending = len(set(types))
        assignment = [-1] * len(types)
        groups_opened = 0
        for task in backward_task_order(instance):
            existing = groups[types[task]]
            free_ok = len(free) > (pending if existing else pending - 1)
            if not existing and not free_ok:
                raise ReproError(
                    f"no machine may receive task {task} under the specialized rule"
                )
            # The paper opens a new group when spare machines remain;
            # "choose a new group" and "choose an existing group" are the
            # two branches of Algorithm 1's coin.
            if not existing or (free_ok and rng.random() < 0.5):
                machine = free.pop(rng.integers(len(free)))
                if not existing:
                    pending -= 1
                insort(existing, machine)
                groups_opened += 1
            else:
                machine = existing[rng.integers(len(existing))]
            assignment[task] = machine
        mapping = Mapping(np.asarray(assignment, dtype=np.int64), instance.num_machines)
        return mapping, 1, {"groups_opened": groups_opened}
