"""Stochastic micro-factory simulation substrate.

The paper evaluates its heuristics with a C++ simulator; this package is
the Python equivalent (see DESIGN.md, substitution table).  It provides a
small deterministic discrete-event engine (:mod:`repro.simulation.events`),
a production-line model with transient per-(task, machine) failures
(:mod:`repro.simulation.factory`), reproducible random streams
(:mod:`repro.simulation.rng`), and metric / trace collection.
"""

from .events import Event, EventKind, EventQueue
from .factory import MicroFactorySimulation, simulate_mapping
from .metrics import SimulationMetrics
from .rng import RandomStreamFactory
from .trace import SimulationTrace, TraceEventType, TraceRecord

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "MicroFactorySimulation",
    "simulate_mapping",
    "SimulationMetrics",
    "RandomStreamFactory",
    "SimulationTrace",
    "TraceEventType",
    "TraceRecord",
]
