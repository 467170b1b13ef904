"""Experimental scenario descriptions and instance sampling.

A :class:`ScenarioConfig` captures one experimental setting of Section 7:
the platform size ``m``, the number of types ``p``, the sweep variable
(number of tasks ``n`` or number of types ``p``), the failure-rate range,
whether failures are attached to tasks only, and how many repetitions are
averaged per point.  :func:`sample_instance` draws one random instance of
a scenario point, reproducibly; it keeps nothing, so each call draws
afresh.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

import numpy as np

from ..core.failure import FailureModel
from ..core.instance import ProblemInstance
from ..core.platform import Platform
from ..exceptions import ExperimentError
from ..simulation.rng import RandomStreamFactory
from .applications import random_chain_application
from .platforms import (
    PAPER_F_RANGE,
    PAPER_W_RANGE,
    random_failure_rates,
    random_processing_times,
)

__all__ = ["ScenarioConfig", "sample_instance"]


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One experimental scenario (one figure of the paper).

    Attributes
    ----------
    name:
        Scenario identifier ("fig5", "fig9", ...).
    num_machines:
        Platform size ``m``.
    num_types:
        Number of task types ``p`` (ignored when the sweep variable is
        ``p``).
    sweep:
        Name of the sweep variable: ``"tasks"`` or ``"types"``.
    sweep_values:
        The values of the sweep variable (x-axis of the figure).
    num_tasks:
        Number of tasks ``n`` when the sweep variable is ``p``.
    repetitions:
        Number of random instances averaged per sweep point (30 in the
        paper, 100 for Figure 9).
    w_range, f_range:
        Uniform ranges for processing times and failure rates.
    task_dependent_failures:
        Draw ``f[i, u] = f[i]`` (Figure 9) instead of per-couple rates.
    heuristics:
        Names of the heuristics compared in the figure.
    include_milp, include_one_to_one:
        Whether the exact MIP / optimal one-to-one baselines are part of
        the figure.
    description:
        Human-readable summary used by reports.
    """

    name: str
    num_machines: int
    num_types: int
    sweep: str
    sweep_values: tuple[int, ...]
    repetitions: int = 30
    num_tasks: int | None = None
    w_range: tuple[float, float] = PAPER_W_RANGE
    f_range: tuple[float, float] = PAPER_F_RANGE
    task_dependent_failures: bool = False
    heuristics: tuple[str, ...] = ("H1", "H2", "H3", "H4", "H4w", "H4f")
    include_milp: bool = False
    include_one_to_one: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.sweep not in ("tasks", "types"):
            raise ExperimentError(f"unknown sweep variable {self.sweep!r}")
        if not self.sweep_values:
            raise ExperimentError("sweep_values must not be empty")
        if self.sweep == "types" and self.num_tasks is None:
            raise ExperimentError("a 'types' sweep requires num_tasks to be set")
        if self.repetitions < 1:
            raise ExperimentError("repetitions must be >= 1")

    def dimensions_at(self, sweep_value: int) -> tuple[int, int, int]:
        """The ``(n, p, m)`` triple for one sweep point."""
        if self.sweep == "tasks":
            return int(sweep_value), self.num_types, self.num_machines
        assert self.num_tasks is not None
        return self.num_tasks, int(sweep_value), self.num_machines

    def scaled(self, *, repetitions: int | None = None, max_points: int | None = None) -> "ScenarioConfig":
        """A cheaper copy of the scenario (fewer repetitions / sweep points).

        Used by the benchmark harness and the test suite, where running the
        paper's full 30x sweep would be needlessly slow.
        """
        values = self.sweep_values
        if max_points is not None and len(values) > max_points:
            idx = np.linspace(0, len(values) - 1, max_points).round().astype(int)
            values = tuple(values[i] for i in idx)
        return replace(
            self,
            repetitions=repetitions if repetitions is not None else self.repetitions,
            sweep_values=values,
        )

    # -- serialisation ----------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready plain-dict representation (tuples become lists)."""
        data = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ExperimentError(
                f"unknown scenario fields {sorted(unknown)}; expected {sorted(known)}"
            )
        kwargs = dict(data)
        for name in ("sweep_values", "heuristics", "w_range", "f_range"):
            if name in kwargs and kwargs[name] is not None:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    #: Fields that determine the random instance drawn for a (sweep value,
    #: repetition) cell.  ``sweep_values``, ``repetitions``, ``heuristics``
    #: and the baseline flags deliberately stay out: cells are keyed per
    #: sweep value and curve, and records carry their repetition count, so
    #: a scaled-down rerun shares the store entries of the full sweep.
    _HASH_FIELDS = (
        "name",
        "num_machines",
        "num_types",
        "sweep",
        "num_tasks",
        "w_range",
        "f_range",
        "task_dependent_failures",
    )

    def stable_hash(self) -> str:
        """Short content hash of the scenario's instance-generating fields.

        Stable across processes and interpreter restarts (canonical JSON
        + SHA-256, no salted hashing).  Two configs share a hash iff they
        draw identical random instances for every ``(sweep value,
        repetition)`` cell under the same seed — the property the result
        store needs to reuse completed cells across scaled runs.
        """
        data = self.to_dict()
        payload = {name: data[name] for name in self._HASH_FIELDS}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def sample_instance(
    config: ScenarioConfig,
    sweep_value: int,
    repetition: int,
    streams: RandomStreamFactory,
) -> ProblemInstance:
    """Draw the random instance of one (sweep point, repetition) pair.

    The random stream only depends on ``(config.name, sweep_value,
    repetition)`` through the stream factory, so re-running an experiment
    with the same seed regenerates identical instances.
    """
    n, p, m = config.dimensions_at(sweep_value)
    if p > n:
        raise ExperimentError(
            f"scenario {config.name}: cannot have more types ({p}) than tasks ({n})"
        )
    if p > m:
        raise ExperimentError(
            f"scenario {config.name}: cannot have more types ({p}) than machines ({m})"
        )
    rng = streams.stream(f"{config.name}/n{sweep_value}", repetition)
    application = random_chain_application(n, p, rng)
    w = random_processing_times(
        application.types, m, rng, low=config.w_range[0], high=config.w_range[1]
    )
    f = random_failure_rates(
        n,
        m,
        rng,
        low=config.f_range[0],
        high=config.f_range[1],
        task_dependent=config.task_dependent_failures,
    )
    return ProblemInstance(
        application,
        Platform(w, types=application.types),
        FailureModel(f),
        name=f"{config.name}[{config.sweep}={sweep_value},rep={repetition}]",
    )
