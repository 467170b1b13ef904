"""Solve-request normalisation, hashing and the direct reference path.

A solve request names a random problem instance and a heuristic to run
on it::

    {
      "heuristic": "H4w",
      "application": {"tasks": 10, "types": 3},
      "platform": {"machines": 5},
      "options": {"seed": 0, "repetition": 0}
    }

``platform`` optionally carries ``w_range`` / ``f_range`` /
``task_dependent_failures`` overrides (defaulting to the paper's
ranges); ``options`` the root seed and repetition index of the draw.
:func:`normalize_request` validates the payload into a
:class:`SolveRequest` whose instance is *exactly* the one the
experiment layer would sample: the request's fields assemble a
:class:`~repro.generators.scenarios.ScenarioConfig` and the instance is
drawn through :func:`~repro.generators.scenarios.sample_instance` with
the same stream labels — which is also what makes requests **content
addressable**.  :attr:`SolveRequest.key` digests the scenario's
:meth:`~repro.generators.scenarios.ScenarioConfig.stable_hash` together
with the sweep value, heuristic, seed and repetition, so two requests
share a key iff they are guaranteed the same response; the solve cache
and the micro-batcher's coalescing both key on it.

:func:`direct_response` is the reference path: one request, solved and
scored per instance with no batching and no cache.  The micro-batched
service solves each flushed group with :func:`solve_group`, and is
required (and tested) to be bit-for-bit identical to the reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..batch import InstanceStack
from ..core.instance import ProblemInstance
from ..core.period import evaluate
from ..core.mapping import Mapping
from ..exceptions import ExperimentError, ReproError
from ..generators.platforms import PAPER_F_RANGE, PAPER_W_RANGE
from ..generators.scenarios import ScenarioConfig, sample_instance
from ..heuristics import get_heuristic
from ..heuristics.base import Heuristic, solve_one, solve_stack, solves_in_batch
from ..obs.trace import span
from ..simulation.rng import RandomStreamFactory

__all__ = [
    "SERVICE_SCENARIO_NAME",
    "SessionRequest",
    "SolveRequest",
    "normalize_event",
    "normalize_request",
    "normalize_session_request",
    "build_response",
    "direct_response",
    "solve_group",
]

#: ``ScenarioConfig.name`` under which service instances are drawn; part
#: of the instance-generating hash, so service draws never collide with
#: figure draws in any shared cache.
SERVICE_SCENARIO_NAME = "service"


def _expect_mapping(payload: dict, field: str) -> dict:
    value = payload.get(field)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ExperimentError(f"request field {field!r} must be an object")
    return dict(value)


def _take_int(section: dict, owner: str, field: str, default=None) -> int:
    value = section.pop(field, default)
    if value is default and default is None:
        raise ExperimentError(f"request is missing {owner}.{field}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExperimentError(f"{owner}.{field} must be an integer, got {value!r}")
    return int(value)


def _take_range(section: dict, owner: str, field: str, default) -> tuple[float, float]:
    value = section.pop(field, None)
    if value is None:
        return default
    try:
        low, high = (float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"{owner}.{field} must be a [low, high] pair") from exc
    return (low, high)


def _reject_unknown(section: dict, owner: str) -> None:
    if section:
        raise ExperimentError(
            f"unknown {owner} field(s): {sorted(section)}"
        )


@dataclass(frozen=True)
class SolveRequest:
    """One normalized solve request (hashable, batchable, cacheable).

    Attributes
    ----------
    heuristic:
        The registered heuristic's canonical name (``"h4w"`` normalizes
        to ``"H4w"`` — case differences must not split cache entries or
        RNG streams).
    scenario:
        The instance-generating scenario assembled from the request's
        ``application`` / ``platform`` sections.
    num_tasks:
        The sweep value the instance is drawn at.
    seed, repetition:
        Root seed and repetition index of the draw.
    deadline_ms:
        Optional per-request deadline (milliseconds from arrival).  A
        scheduling knob only — it never changes the response content, so
        it is deliberately **excluded from** :attr:`key` (a request
        answered late and re-asked with a longer deadline must hit the
        cache of the first solve).
    """

    heuristic: str
    scenario: ScenarioConfig
    num_tasks: int
    seed: int
    repetition: int
    deadline_ms: float | None = None

    @cached_property
    def key(self) -> str:
        """Content hash identifying the response this request must get.

        Extends the scenario's instance-generating
        :meth:`~repro.generators.scenarios.ScenarioConfig.stable_hash`
        (platform size, type count, draw ranges) with everything else
        the response depends on: the sweep value, the heuristic, the
        seed and the repetition.  Read several times per request on the
        serving hot path, so it is digested once (``cached_property`` —
        which is why this dataclass carries no ``__slots__``).
        """
        payload = "|".join(
            (
                self.scenario.stable_hash(),
                str(self.num_tasks),
                self.heuristic,
                str(self.seed),
                str(self.repetition),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def signature(self) -> tuple[str, int, int]:
        """Structural batching signature: ``(heuristic, n, m)``.

        Requests sharing a signature draw instances with the same
        precedence chain and platform size, so their solves stack into
        one :class:`~repro.batch.InstanceStack` and (for batchable
        heuristics) one lock-step ``solve_batch`` call.  Seeds, type
        vectors and draw ranges may differ within a group — the batch
        state carries them per row.
        """
        return (self.heuristic, self.num_tasks, self.scenario.num_machines)

    def resolve_heuristic(self) -> Heuristic:
        """Instantiate the request's heuristic."""
        return get_heuristic(self.heuristic)

    def sample(self) -> ProblemInstance:
        """Draw the request's instance (identical across processes)."""
        return sample_instance(
            self.scenario,
            self.num_tasks,
            self.repetition,
            RandomStreamFactory(self.seed),
        )

    def rng(self) -> np.random.Generator:
        """The solve stream of a randomized heuristic (H1).

        Same derivation as the experiment engine's per-cell runner:
        label ``heuristic/<name>/<sweep value>``, indexed by repetition.
        """
        return RandomStreamFactory(self.seed).stream(
            f"heuristic/{self.heuristic}/{self.num_tasks}", self.repetition
        )


def normalize_request(payload: dict) -> SolveRequest:
    """Validate a raw request payload into a :class:`SolveRequest`.

    Unknown fields are rejected (a typo'd option silently falling back
    to a default would be served — and cached — under the wrong key).
    """
    if not isinstance(payload, dict):
        raise ExperimentError("solve request must be a JSON object")
    payload = dict(payload)
    name = payload.pop("heuristic", None)
    if not isinstance(name, str) or not name:
        raise ExperimentError("request is missing the 'heuristic' name")
    try:
        heuristic = get_heuristic(name)
    except ReproError as exc:
        raise ExperimentError(str(exc)) from exc

    application = _expect_mapping(payload, "application")
    platform = _expect_mapping(payload, "platform")
    options = _expect_mapping(payload, "options")
    payload.pop("application", None)
    payload.pop("platform", None)
    payload.pop("options", None)
    _reject_unknown(payload, "request")

    num_tasks = _take_int(application, "application", "tasks")
    num_types = _take_int(application, "application", "types")
    _reject_unknown(application, "application")

    num_machines = _take_int(platform, "platform", "machines")
    w_range = _take_range(platform, "platform", "w_range", PAPER_W_RANGE)
    f_range = _take_range(platform, "platform", "f_range", PAPER_F_RANGE)
    task_dependent = bool(platform.pop("task_dependent_failures", False))
    _reject_unknown(platform, "platform")

    seed = _take_int(options, "options", "seed", 0)
    repetition = _take_int(options, "options", "repetition", 0)
    deadline_ms = options.pop("deadline_ms", None)
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not deadline_ms > 0
        ):
            raise ExperimentError(
                f"options.deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)
    _reject_unknown(options, "options")

    if num_tasks < 1 or num_types < 1 or num_machines < 1:
        raise ExperimentError("tasks, types and machines must all be >= 1")
    if num_types > num_tasks:
        raise ExperimentError(
            f"cannot have more types ({num_types}) than tasks ({num_tasks})"
        )
    if num_types > num_machines:
        raise ExperimentError(
            f"no specialized mapping exists with more types ({num_types}) than "
            f"machines ({num_machines})"
        )
    if seed < 0:
        # np.random.SeedSequence rejects negative entropy at solve time —
        # catching it here keeps a bad request from poisoning the batch
        # group it would have joined.
        raise ExperimentError(f"options.seed must be >= 0, got {seed}")
    if repetition < 0:
        raise ExperimentError(f"options.repetition must be >= 0, got {repetition}")

    scenario = ScenarioConfig(
        name=SERVICE_SCENARIO_NAME,
        num_machines=num_machines,
        num_types=num_types,
        sweep="tasks",
        sweep_values=(num_tasks,),
        repetitions=1,
        w_range=w_range,
        f_range=f_range,
        task_dependent_failures=task_dependent,
    )
    return SolveRequest(
        heuristic=heuristic.name,
        scenario=scenario,
        num_tasks=num_tasks,
        seed=seed,
        repetition=repetition,
        deadline_ms=deadline_ms,
    )


@dataclass(frozen=True)
class SessionRequest:
    """One normalized ``POST /v1/session`` payload.

    ``request`` is the underlying content-addressed solve request — the
    session replans exactly the instance ``POST /v1/solve`` would draw
    for the same fields.  ``ttl_seconds`` overrides the service's idle
    expiry for this session (``None`` = server default).
    """

    request: SolveRequest
    ttl_seconds: float | None = None


def normalize_session_request(payload: dict) -> SessionRequest:
    """Validate a session-creation payload.

    The schema is the solve-request schema with two session-specific
    twists: ``options.ttl_seconds`` (idle expiry override) is accepted,
    while ``options.deadline_ms`` (a per-solve scheduling knob) and
    randomized heuristics (H1 — a live session must be replayable) are
    rejected.  Unknown keys are rejected at every level, listing the
    offending names, exactly like :func:`normalize_request`.
    """
    if not isinstance(payload, dict):
        raise ExperimentError("session request must be a JSON object")
    payload = dict(payload)
    options = _expect_mapping(payload, "options")
    ttl_seconds = options.pop("ttl_seconds", None)
    if ttl_seconds is not None:
        if (
            isinstance(ttl_seconds, bool)
            or not isinstance(ttl_seconds, (int, float))
            or not ttl_seconds > 0
        ):
            raise ExperimentError(
                f"options.ttl_seconds must be a positive number, got {ttl_seconds!r}"
            )
        ttl_seconds = float(ttl_seconds)
    if "deadline_ms" in options:
        raise ExperimentError(
            "options.deadline_ms does not apply to sessions (deadlines are "
            "per solve request)"
        )
    payload["options"] = options
    request = normalize_request(payload)
    if request.resolve_heuristic().randomized:
        raise ExperimentError(
            f"live sessions require a deterministic heuristic; "
            f"{request.heuristic} is randomized"
        )
    return SessionRequest(request=request, ttl_seconds=ttl_seconds)


def normalize_event(payload: dict) -> tuple[str, int | None, float]:
    """Validate a session event payload into ``(kind, machine, time)``.

    ``fail`` / ``recover`` events need a ``machine`` index; ``request``
    events must not carry one.  ``time`` is the event's timeline
    timestamp (sessions require non-decreasing times — availability is
    integrated from these, never from the wall clock).  Unknown keys are
    rejected with a listing, like every other payload.
    """
    if not isinstance(payload, dict):
        raise ExperimentError("session event must be a JSON object")
    payload = dict(payload)
    kind = payload.pop("kind", None)
    if kind not in ("fail", "recover", "request"):
        raise ExperimentError(
            f"event.kind must be 'fail', 'recover' or 'request', got {kind!r}"
        )
    event_time = payload.pop("time", None)
    if (
        isinstance(event_time, bool)
        or not isinstance(event_time, (int, float))
        or not event_time >= 0
    ):
        raise ExperimentError(
            f"event.time must be a number >= 0, got {event_time!r}"
        )
    machine = payload.pop("machine", None)
    if kind == "request":
        if machine is not None:
            raise ExperimentError("'request' events take no machine index")
    else:
        if isinstance(machine, bool) or not isinstance(machine, int) or machine < 0:
            raise ExperimentError(
                f"event.machine must be an integer >= 0, got {machine!r}"
            )
    _reject_unknown(payload, "event")
    return kind, machine, float(event_time)


def build_response(
    request: SolveRequest,
    assignment: np.ndarray,
    period: float,
    *,
    batched: bool,
) -> dict:
    """Assemble the JSON-ready response body of one solved request."""
    return {
        "key": request.key,
        "heuristic": request.heuristic,
        "tasks": request.num_tasks,
        "machines": request.scenario.num_machines,
        "seed": request.seed,
        "repetition": request.repetition,
        "assignment": [int(machine) for machine in assignment],
        "period": float(period),
        "throughput": 1.0 / float(period),
        "batched": bool(batched),
    }


def direct_response(request: SolveRequest) -> dict:
    """Solve one request per instance — the unbatched, uncached reference.

    The micro-batched service path must produce bit-for-bit this
    response body (modulo the ``batched`` marker); the equivalence tests
    and the CI service smoke both compare against it.
    """
    with span("solve.direct", key=request.key, heuristic=request.heuristic):
        instance = request.sample()
        heuristic = request.resolve_heuristic()
        rng = request.rng() if heuristic.randomized else None
        assignment = solve_one(heuristic, instance, rng)
        evaluation = evaluate(instance, Mapping(assignment, instance.num_machines))
        return build_response(
            request, assignment, evaluation.period, batched=False
        )


def solve_group(requests: tuple[SolveRequest, ...]) -> tuple[list[dict], bool]:
    """Solve one flushed group of the micro-batcher; ``(responses, batched)``.

    Pure — touches no batcher or service state — so it runs alike on the
    in-process thread executor and inside worker processes.  Group
    members share a batching signature, so their instances stack;
    :func:`~repro.heuristics.base.solve_stack` picks the lock-step
    kernel or the per-instance loop, and ``batched`` reports its choice.
    Each response equals :func:`direct_response` of its request, bit for
    bit, but for the ``batched`` marker.
    """
    heuristic = requests[0].resolve_heuristic()
    instances = [request.sample() for request in requests]
    batched = solves_in_batch(heuristic, len(instances))
    assignments = solve_stack(
        heuristic,
        instances,
        lambda row: requests[row].rng() if heuristic.randomized else None,
    )
    stack = InstanceStack.from_instances(instances)
    periods = stack.periods(assignments)
    responses = [
        build_response(request, assignments[row], periods[row], batched=batched)
        for row, request in enumerate(requests)
    ]
    return responses, batched
