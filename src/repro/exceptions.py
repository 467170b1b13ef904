"""Exception hierarchy for :mod:`repro`.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every failure raised by the package with a single ``except``
clause while still being able to discriminate finer categories.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidApplicationError",
    "InvalidPlatformError",
    "InvalidFailureModelError",
    "InvalidInstanceError",
    "InvalidMappingError",
    "MappingRuleViolation",
    "InfeasibleProblemError",
    "SolverError",
    "SimulationError",
    "ExperimentError",
    "ServiceOverloadedError",
]


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` package."""


class InvalidApplicationError(ReproError):
    """The task graph violates the applicative framework of the paper.

    Raised for cyclic graphs, forks (a task with more than one successor),
    inconsistent task types, duplicate task identifiers, or empty
    applications.
    """


class InvalidPlatformError(ReproError):
    """The platform description is malformed.

    Raised for non-positive processing times, shape mismatches between the
    ``w`` matrix and the declared numbers of tasks and machines, or empty
    platforms.
    """


class InvalidFailureModelError(ReproError):
    """The failure specification is malformed.

    Failure rates must satisfy ``0 <= f[i, u] < 1`` for every (task,
    machine) couple; a rate of ``1`` would mean the task can never succeed
    on that machine, which makes the expected product count diverge.
    """


class InvalidInstanceError(ReproError):
    """Application, platform and failure model are mutually inconsistent."""


class InvalidMappingError(ReproError):
    """A mapping object is structurally invalid.

    Examples: a task mapped to a machine index outside the platform, a task
    left unmapped, or an unknown task identifier.
    """


class MappingRuleViolation(InvalidMappingError):
    """A structurally valid mapping violates the requested mapping rule.

    The rule is one of *one-to-one*, *specialized* or *general* as defined
    in Section 4.2 of the paper.
    """


class InfeasibleProblemError(ReproError):
    """No mapping satisfying the requested rule exists for the instance.

    Typical causes: fewer machines than tasks for a one-to-one mapping, or
    fewer machines than task types for a specialized mapping.
    """


class SolverError(ReproError):
    """An exact solver failed to produce a solution."""


class SimulationError(ReproError):
    """The stochastic micro-factory simulation reached an invalid state."""


class ExperimentError(ReproError):
    """An experiment definition or run is invalid (unknown id, bad config)."""


class ServiceOverloadedError(ReproError):
    """The solve service shed a request under load; retry later.

    Raised server-side by the micro-batcher when its pending-request
    queue is full (the request was never admitted, nothing was solved)
    and client-side on an HTTP 429 response.  ``retry_after_seconds``
    carries the server's ``Retry-After`` hint when one was given.
    """

    def __init__(self, message: str, *, retry_after_seconds: float | None = None):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds
