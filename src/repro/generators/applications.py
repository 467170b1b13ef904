"""Random application generators.

The paper's experiments use linear-chain applications whose tasks are
typed with ``p`` distinct types; this module also provides random in-tree
generators used by the additional tests and examples (joins are part of
the applicative framework even though the evaluation sticks to chains).
"""

from __future__ import annotations

import numpy as np

from ..core.application import Application, in_tree
from ..core.types import random_type_assignment
from ..exceptions import InvalidApplicationError

__all__ = ["random_chain_application", "random_in_tree_application"]


def random_chain_application(
    num_tasks: int,
    num_types: int,
    rng: np.random.Generator,
    *,
    ensure_all_types: bool = True,
) -> Application:
    """A linear chain of ``num_tasks`` tasks with random types.

    Parameters
    ----------
    ensure_all_types:
        Force every one of the ``num_types`` types to appear at least once
        (the paper varies ``p`` as an experimental parameter, so all types
        must actually be present).
    """
    types = random_type_assignment(
        num_tasks, num_types, rng, ensure_all_types=ensure_all_types
    )
    return Application.chain(types)


def random_in_tree_application(
    num_branches: int,
    tasks_per_branch: tuple[int, int],
    num_types: int,
    rng: np.random.Generator,
    *,
    shared_tail_length: int = 1,
) -> Application:
    """A random in-tree: ``num_branches`` chains joining into a common tail.

    Parameters
    ----------
    num_branches:
        Number of independent branches (>= 1).
    tasks_per_branch:
        Inclusive ``(low, high)`` range for each branch length.
    num_types:
        Number of task types (assigned randomly over all tasks, every type
        used at least once when possible).
    shared_tail_length:
        Number of tasks after the join.
    """
    if num_branches < 1:
        raise InvalidApplicationError("num_branches must be >= 1")
    low, high = tasks_per_branch
    if low < 1 or high < low:
        raise InvalidApplicationError("tasks_per_branch must satisfy 1 <= low <= high")
    lengths = [int(rng.integers(low, high + 1)) for _ in range(num_branches)]
    skeleton = in_tree(lengths, num_types=1, shared_tail_length=shared_tail_length)
    # Re-type the skeleton's tasks randomly.
    num_tasks = skeleton.num_tasks
    types = random_type_assignment(
        num_tasks, min(num_types, num_tasks), rng, ensure_all_types=True
    )
    edges = [(i, j) for i, j in enumerate(skeleton.successors) if j is not None]
    return Application(types, edges)
