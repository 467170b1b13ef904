"""Core problem model: applications, platforms, failures, mappings, period.

This sub-package implements the formal framework of Sections 3 and 4 of the
paper: the typed in-tree application graph, the machine platform with its
processing-time matrix, the per-(task, machine) transient failure model,
the three mapping rules, and the period / throughput objective.
"""

from .application import Application, Task, in_tree, linear_chain
from .failure import FailureModel
from .instance import ProblemInstance
from .mapping import Mapping, MappingRule
from .period import (
    MappingEvaluation,
    critical_machines,
    evaluate,
    expected_products,
    machine_periods,
    period,
    required_inputs,
    throughput,
)
from .platform import Machine, Platform
from .types import (
    TaskType,
    TypeAssignment,
    cyclic_type_assignment,
    random_type_assignment,
)

__all__ = [
    "Application",
    "Task",
    "in_tree",
    "linear_chain",
    "FailureModel",
    "ProblemInstance",
    "Mapping",
    "MappingRule",
    "MappingEvaluation",
    "critical_machines",
    "evaluate",
    "expected_products",
    "machine_periods",
    "period",
    "required_inputs",
    "throughput",
    "Machine",
    "Platform",
    "TaskType",
    "TypeAssignment",
    "cyclic_type_assignment",
    "random_type_assignment",
]
