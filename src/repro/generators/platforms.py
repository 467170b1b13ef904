"""Random platform and failure-model generators (paper parameters).

Section 7 of the paper draws, for every repetition:

* processing times ``w[i, u]`` uniformly in ``[100, 1000]`` ms — with the
  constraint that tasks of the same type share the same time on a given
  machine, so the draw is actually per (type, machine);
* failure rates ``f[i, u]`` uniformly in ``[0.5%, 2%]`` (``[0, 10%]`` for
  the high-failure experiment of Figure 8), either per (task, machine) or
  per task only (``f[i, u] = f[i]``, Figure 9).

The generators below reproduce those distributions; all of them take an
explicit ``numpy.random.Generator`` so that experiments are reproducible.
"""

from __future__ import annotations

import numpy as np

from ..core.types import TypeAssignment
from ..exceptions import InvalidPlatformError

__all__ = [
    "PAPER_W_RANGE",
    "PAPER_F_RANGE",
    "HIGH_FAILURE_F_RANGE",
    "random_processing_times",
    "random_failure_rates",
]

#: Processing-time range (ms) used throughout the paper's experiments.
PAPER_W_RANGE: tuple[float, float] = (100.0, 1000.0)
#: Default failure-rate range (0.5% .. 2%).
PAPER_F_RANGE: tuple[float, float] = (0.005, 0.02)
#: High-failure range used by Figure 8 (0 .. 10%).
HIGH_FAILURE_F_RANGE: tuple[float, float] = (0.0, 0.10)


def random_processing_times(
    types: TypeAssignment,
    num_machines: int,
    rng: np.random.Generator,
    *,
    low: float = PAPER_W_RANGE[0],
    high: float = PAPER_W_RANGE[1],
) -> np.ndarray:
    """Draw a type-consistent ``n x m`` processing-time matrix.

    Times are drawn uniformly in ``[low, high]`` per (type, machine) and
    expanded to tasks, which guarantees the paper's consistency rule.
    """
    if num_machines <= 0:
        raise InvalidPlatformError("num_machines must be positive")
    if not (0 < low <= high):
        raise InvalidPlatformError("need 0 < low <= high for processing times")
    per_type = rng.uniform(low, high, size=(types.num_types, num_machines))
    return per_type[types.as_array, :]


def random_failure_rates(
    num_tasks: int,
    num_machines: int,
    rng: np.random.Generator,
    *,
    low: float = PAPER_F_RANGE[0],
    high: float = PAPER_F_RANGE[1],
    task_dependent: bool = False,
) -> np.ndarray:
    """Draw an ``n x m`` failure-rate matrix.

    Parameters
    ----------
    task_dependent:
        When true, draw one rate per task and replicate it across machines
        (``f[i, u] = f[i]``, the Figure 9 setting).
    """
    if num_tasks <= 0 or num_machines <= 0:
        raise InvalidPlatformError("dimensions must be positive")
    if not (0.0 <= low <= high < 1.0):
        raise InvalidPlatformError("failure range must satisfy 0 <= low <= high < 1")
    if task_dependent:
        per_task = rng.uniform(low, high, size=num_tasks)
        return np.repeat(per_task[:, None], num_machines, axis=1)
    return rng.uniform(low, high, size=(num_tasks, num_machines))

