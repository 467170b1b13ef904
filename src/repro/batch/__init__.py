"""Batched, vectorized evaluation of mappings.

The paper's evaluation (Figures 5-12) reruns every heuristic and the
exact solvers over hundreds of randomly drawn instances; scoring one
``(instance, mapping)`` pair at a time in Python loops makes the
experiment runner and the heuristic inner loops dominate wall-clock.
This subsystem provides the NumPy-vectorized counterparts:

* :mod:`repro.batch.evaluation` — score an ``(R, n)`` array of mappings
  against one instance in a handful of NumPy operations
  (:func:`~repro.batch.evaluation.evaluate_batch`), or one/many mappings
  against a stack of structurally identical instances
  (:class:`~repro.batch.evaluation.InstanceStack`), exactly matching the
  scalar :mod:`repro.core.period` path;
* :mod:`repro.batch.incremental` — a :class:`~repro.batch.incremental.MappingEvaluator`
  that keeps the full evaluation of one mapping up to date under
  single-task reassignments, touching only the tasks/machines whose
  contribution actually changes.
"""

from .evaluation import (
    BatchEvaluation,
    InstanceStack,
    evaluate_batch,
)
from .incremental import MappingEvaluator

__all__ = [
    "BatchEvaluation",
    "InstanceStack",
    "evaluate_batch",
    "MappingEvaluator",
]
