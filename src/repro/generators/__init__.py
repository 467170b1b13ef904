"""Random instance generators matching the paper's experimental setup."""

from .applications import random_chain_application, random_in_tree_application
from .platforms import (
    HIGH_FAILURE_F_RANGE,
    PAPER_F_RANGE,
    PAPER_W_RANGE,
    random_failure_rates,
    random_processing_times,
)
from .scenarios import ScenarioConfig, sample_instance

__all__ = [
    "random_chain_application",
    "random_in_tree_application",
    "HIGH_FAILURE_F_RANGE",
    "PAPER_F_RANGE",
    "PAPER_W_RANGE",
    "random_failure_rates",
    "random_processing_times",
    "ScenarioConfig",
    "sample_instance",
]
