"""Polynomial-time mapping heuristics (Section 6.2 of the paper).

The paper's six heuristics solve the (NP-hard) specialized-mapping problem
on linear-chain applications:

========  ===============================================================
Name      Strategy
========  ===============================================================
``H1``    random type grouping (Algorithm 1)
``H2``    binary search on the period, per-machine rank priority (Alg. 2)
``H3``    binary search on the period, heterogeneity priority (Alg. 3)
``H4``    greedy best expected performance ``w * F`` (Alg. 4)
``H4w``   greedy fastest machine ``w`` only (Alg. 5)
``H4f``   greedy most reliable machine ``F`` only (Alg. 6)
========  ===============================================================

Beyond the paper's six, ``H4ls`` refines H4w's mapping with a
best-single-task-move local search over the incremental evaluator
(:mod:`repro.heuristics.local_search`) — never worse than H4w.  Extra
baselines (``RandomUniform``, ``RoundRobin``, ``H4-forward``) are
provided for sanity checks and ablation studies.

Use :func:`get_heuristic` to obtain an instance by name, or instantiate the
classes directly.
"""

from .base import (
    BatchAssignmentState,
    BatchHeuristic,
    Heuristic,
    HeuristicResult,
    available_heuristics,
    backward_task_order,
    get_heuristic,
    register_heuristic,
    supports_batch,
)
from .baselines import (
    GreedyLoadBalanceHeuristic,
    RoundRobinHeuristic,
    UniformRandomSpecialized,
)
from .binary_search import (
    BinarySearchHeuristic,
    HeterogeneityBinarySearchHeuristic,
    RankBinarySearchHeuristic,
    worst_case_period_bound,
)
from .greedy import (
    BestPerformanceHeuristic,
    FastestMachineHeuristic,
    GreedyCompletionHeuristic,
    ReliableMachineHeuristic,
)
from .h1_random import RandomHeuristic
from .local_search import (
    LocalSearchHeuristic,
    refine_specialized,
    refine_specialized_batch,
    specialized_move_mask,
)

#: The six heuristics evaluated in the paper, in presentation order.
PAPER_HEURISTICS = ("H1", "H2", "H3", "H4", "H4w", "H4f")

__all__ = [
    "BatchAssignmentState",
    "BatchHeuristic",
    "Heuristic",
    "HeuristicResult",
    "available_heuristics",
    "backward_task_order",
    "get_heuristic",
    "register_heuristic",
    "supports_batch",
    "GreedyLoadBalanceHeuristic",
    "RoundRobinHeuristic",
    "UniformRandomSpecialized",
    "BinarySearchHeuristic",
    "HeterogeneityBinarySearchHeuristic",
    "RankBinarySearchHeuristic",
    "worst_case_period_bound",
    "BestPerformanceHeuristic",
    "FastestMachineHeuristic",
    "GreedyCompletionHeuristic",
    "ReliableMachineHeuristic",
    "RandomHeuristic",
    "LocalSearchHeuristic",
    "refine_specialized",
    "refine_specialized_batch",
    "specialized_move_mask",
    "PAPER_HEURISTICS",
]
