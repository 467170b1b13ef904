"""Curve providers for the block-scheduled experiment engine.

A figure's curve set — heuristics, the exact MIP, the optimal
one-to-one mapping, refinements — is not hardcoded in the runner: a
figure (or a CLI flag) names its curves, :func:`resolve_provider`
turns each name into a *curve provider*, and each provider scores one
whole :class:`BlockChunk` at a time.  A chunk holds the sampled
:class:`CellBlock` of one or more consecutive sweep points — each the
``R`` structurally identical repetitions of its point — stacked into
one :class:`~repro.batch.InstanceStack` that every curve of the chunk
shares; :func:`repro.experiments.runner.execute_blocks` decides which
points form a chunk (one point per chunk in a parallel run's worker
job).  Each chunk is sampled once, for all its curves.

Built-in providers
------------------
* :class:`HeuristicProvider` — any registered heuristic; solves the
  chunk's rows in one lock-step ``solve_batch`` call when the
  heuristic implements :class:`~repro.heuristics.BatchHeuristic`
  (falling back to the per-instance loop otherwise) and scores them in
  a single vectorized stack pass (bit-for-bit identical to sequential
  solve + scalar evaluation calls);
* :class:`LocalSearchProvider` — best-single-move refinement of any base
  heuristic's mapping (curve label ``"<base>+ls"``);
* :class:`MilpProvider` — the exact specialized MIP (label ``"MIP"``);
* :class:`OneToOneProvider` — the optimal one-to-one mapping (``"OtO"``).

Randomness contract: every provider derives its per-repetition streams
from the block's :class:`~repro.simulation.rng.RandomStreamFactory` with
the same labels a per-instance solve loop uses — each row keeps its own
sweep point's label, however the points are chunked — so the block
engine reproduces that loop's series bit for bit and stays
process-independent.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..batch import InstanceStack
from ..core.instance import ProblemInstance
from ..exact.milp import solve_specialized_milp
from ..exact.one_to_one import optimal_one_to_one
from ..exceptions import ExperimentError, ReproError, SolverError
from ..generators.scenarios import ScenarioConfig, sample_instance
from ..heuristics import get_heuristic
from ..heuristics.base import solve_stack
from ..heuristics.local_search import refine_specialized_batch
from ..simulation.rng import RandomStreamFactory

__all__ = [
    "MIP_LABEL",
    "OTO_LABEL",
    "LOCAL_SEARCH_SUFFIX",
    "CellBlock",
    "BlockChunk",
    "BlockResult",
    "CurveProvider",
    "HeuristicProvider",
    "LocalSearchProvider",
    "MilpProvider",
    "OneToOneProvider",
    "resolve_provider",
    "resolve_curves",
]

#: Label used for the exact MIP curve.
MIP_LABEL = "MIP"
#: Label used for the optimal one-to-one curve.
OTO_LABEL = "OtO"
#: Curve-label suffix resolved to a :class:`LocalSearchProvider`.
LOCAL_SEARCH_SUFFIX = "+ls"


@dataclass(frozen=True, slots=True)
class CellBlock:
    """The ``R`` sampled repetitions of one sweep point.

    Attributes
    ----------
    scenario:
        The scenario being run.
    sweep_value:
        The sweep point (``n`` or ``p``).
    instances:
        The ``R`` sampled instances, in repetition order.
    streams:
        The experiment's stream factory; providers derive their
        per-repetition RNGs from it.
    """

    scenario: ScenarioConfig
    sweep_value: int
    instances: tuple[ProblemInstance, ...]
    streams: RandomStreamFactory

    @classmethod
    def sample(
        cls,
        scenario: ScenarioConfig,
        sweep_value: int,
        streams: RandomStreamFactory,
    ) -> "CellBlock":
        """Draw the block's instances (identical to the per-cell runner's)."""
        instances = tuple(
            sample_instance(scenario, sweep_value, repetition, streams)
            for repetition in range(scenario.repetitions)
        )
        return cls(
            scenario=scenario,
            sweep_value=sweep_value,
            instances=instances,
            streams=streams,
        )

    @property
    def repetitions(self) -> int:
        """Block depth ``R``."""
        return len(self.instances)


@dataclass(frozen=True, slots=True)
class BlockResult:
    """One curve's scores over a block.

    Attributes
    ----------
    label:
        Curve label (series key).
    periods:
        ``(R,)`` array of periods, NaN where the backend produced none.
    failures:
        Number of repetitions where an exact backend failed to prove
        optimality (feeds ``ExperimentResult.milp_failures``).
    """

    label: str
    periods: np.ndarray
    failures: int = 0

    def values(self) -> list[float]:
        """The periods as plain floats (JSON-ready, repetition order)."""
        return [float(v) for v in self.periods]


@dataclass(frozen=True, slots=True)
class BlockChunk:
    """Consecutive sweep points' blocks, stacked once for every curve.

    The unit a :class:`CurveProvider` scores: one solve and one scoring
    pass per curve cover all the chunk's rows, and :meth:`results` cuts
    the periods back per block.  The blocks must share one precedence
    graph and platform size — ``InstanceStack.from_instances`` raises
    otherwise; every scenario samples chains, so equal ``(n, m)`` is
    enough.

    Attributes
    ----------
    blocks:
        The sampled blocks, in sweep order.
    instances:
        Every block's instances, block after block (the chunk's rows).
    stack:
        The same rows as one :class:`~repro.batch.InstanceStack` (rows
        share the chain graph, not the type vectors).
    """

    blocks: tuple[CellBlock, ...]
    instances: tuple[ProblemInstance, ...]
    stack: InstanceStack

    @classmethod
    def sample(
        cls,
        scenario: ScenarioConfig,
        sweep_values: Sequence[int],
        streams: RandomStreamFactory,
    ) -> "BlockChunk":
        """Sample each point's block and stack all their rows once."""
        blocks = tuple(
            CellBlock.sample(scenario, sweep_value, streams) for sweep_value in sweep_values
        )
        instances = tuple(instance for block in blocks for instance in block.instances)
        stack = InstanceStack.from_instances(instances)
        return cls(blocks=blocks, instances=instances, stack=stack)

    def rng_for(self, prefix: str) -> Callable[[int], np.random.Generator]:
        """Row ``r``'s generator: stream ``"<prefix>/<sweep value>"`` of its block.

        Each row draws from its own point's stream at its repetition
        index, exactly as a per-point run would.
        """
        sources = [
            (block, repetition)
            for block in self.blocks
            for repetition in range(block.repetitions)
        ]

        def rng(row: int) -> np.random.Generator:
            block, repetition = sources[row]
            return block.streams.stream(f"{prefix}/{block.sweep_value}", repetition)

        return rng

    def results(
        self, label: str, periods: np.ndarray, failed: np.ndarray | None = None
    ) -> list[BlockResult]:
        """Cut ``(rows,)`` periods (and a failure mask) back into per-block results."""
        out: list[BlockResult] = []
        offset = 0
        for block in self.blocks:
            rows = slice(offset, offset + block.repetitions)
            failures = int(failed[rows].sum()) if failed is not None else 0
            out.append(BlockResult(label=label, periods=periods[rows], failures=failures))
            offset += block.repetitions
        return out


class CurveProvider(abc.ABC):
    """One curve of a figure: scores whole block chunks.

    Subclasses set :attr:`label` (the series key) and implement
    :meth:`evaluate`.  Providers must be resolvable by label in a fresh
    process (see :func:`resolve_provider`) so the engine can fan blocks
    out over a process pool.
    """

    #: Curve label; unique within one experiment run.
    label: str = ""

    @abc.abstractmethod
    def evaluate(self, chunk: BlockChunk) -> list[BlockResult]:
        """Score every row of ``chunk``; one result per block, in chunk order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(label={self.label!r})"


class HeuristicProvider(CurveProvider):
    """Curve provider wrapping one registered heuristic.

    When the heuristic implements the
    :class:`~repro.heuristics.BatchHeuristic` protocol (the greedy H4
    family, H4ls) and the chunk is deep enough for
    :func:`~repro.heuristics.base.solve_stack`, all the chunk's rows are
    solved in one lock-step ``solve_batch`` call.  Otherwise (shallow
    chunks, randomized heuristics such as H1, the binary-search H2/H3
    whose per-instance greedy walk beats any lock-step pass, or
    third-party heuristics without a batch kernel) the mappings are
    produced per instance.  Either way the periods come from one
    vectorized stack pass, and both paths are bit-for-bit identical to
    sequential solve + evaluate calls.

    Parameters
    ----------
    name:
        Registered heuristic name (also the curve label).
    """

    def __init__(self, name: str):
        self._heuristic = get_heuristic(name)
        # Keep the *requested* spelling: it is both the series key and the
        # RNG stream label, which the per-cell runner derived from the
        # scenario's declared name.
        self.label = name

    def solve(self, chunk: BlockChunk) -> np.ndarray:
        """The ``(rows, n)`` assignment array of the heuristic over the chunk.

        One :func:`repro.heuristics.base.solve_stack` entry — the same
        one the solve service's micro-batcher uses — makes the
        batch/loop choice on the chunk's *total* depth, so shallow sweep
        points that would each fall below it still ride the lock-step
        kernels together.
        """
        return solve_stack(
            self._heuristic, chunk.instances, chunk.rng_for(f"heuristic/{self.label}")
        )

    def evaluate(self, chunk: BlockChunk) -> list[BlockResult]:
        return chunk.results(self.label, chunk.stack.periods(self.solve(chunk)))


class LocalSearchProvider(CurveProvider):
    """Best-single-move refinement of a base heuristic's mapping.

    The curve labelled ``"<base>+ls"`` runs the base heuristic per
    repetition, descends with
    :func:`repro.heuristics.local_search.refine_specialized`, and keeps
    the better of seed and refined mapping per instance (so the curve is
    never above the base's).
    """

    def __init__(self, base: str = "H4w", label: str | None = None):
        self._base = HeuristicProvider(base)
        self.label = label if label is not None else f"{base}{LOCAL_SEARCH_SUFFIX}"

    def evaluate(self, chunk: BlockChunk) -> list[BlockResult]:
        seeds = self._base.solve(chunk)
        refined, _ = refine_specialized_batch(chunk.instances, seeds)
        periods = np.minimum(chunk.stack.periods(refined), chunk.stack.periods(seeds))
        return chunk.results(self.label, periods)


class MilpProvider(CurveProvider):
    """Exact specialized MIP baseline (label ``"MIP"``).

    The backend solves under a wall-clock time limit, so this provider
    stays per-instance; a repetition that does not prove optimality
    contributes NaN and counts as a failure.
    """

    label = MIP_LABEL

    def __init__(self, time_limit: float = 30.0):
        self.time_limit = time_limit

    def evaluate(self, chunk: BlockChunk) -> list[BlockResult]:
        periods = np.full(len(chunk.instances), np.nan, dtype=np.float64)
        for row, instance in enumerate(chunk.instances):
            result = solve_specialized_milp(instance, time_limit=self.time_limit)
            if result.is_optimal:
                periods[row] = result.period
        return chunk.results(self.label, periods, failed=np.isnan(periods))


class OneToOneProvider(CurveProvider):
    """Optimal one-to-one mapping baseline (label ``"OtO"``)."""

    label = OTO_LABEL

    def evaluate(self, chunk: BlockChunk) -> list[BlockResult]:
        periods = np.full(len(chunk.instances), np.nan, dtype=np.float64)
        for row, instance in enumerate(chunk.instances):
            try:
                periods[row] = optimal_one_to_one(instance).period
            except SolverError:
                pass
        return chunk.results(self.label, periods)


def _is_heuristic(name: str) -> bool:
    try:
        get_heuristic(name)
    except ReproError:
        return False
    return True


def _parse_curve(label: str) -> tuple[str, str | None]:
    """``(series key, base heuristic of a "<base>+ls" curve or None)``.

    Resolution order (case-insensitive): ``"MIP"``, ``"OtO"`` (keyed by
    their canonical spelling), registered heuristics, then the
    ``"<base>+ls"`` local-search convention.
    """
    for canonical in (MIP_LABEL, OTO_LABEL):
        if label.lower() == canonical.lower():
            return canonical, None
    if _is_heuristic(label):
        return label, None
    base = label[: -len(LOCAL_SEARCH_SUFFIX)]
    if label.lower().endswith(LOCAL_SEARCH_SUFFIX):
        if _is_heuristic(base):
            return label, base
        raise ExperimentError(f"cannot resolve curve {label!r}: unknown base heuristic {base!r}")
    from ..heuristics import available_heuristics

    raise ExperimentError(
        f"unknown curve {label!r}; known curves: {[MIP_LABEL, OTO_LABEL]}, "
        f"heuristics: {available_heuristics()}, plus '<heuristic>{LOCAL_SEARCH_SUFFIX}'"
    )


def resolve_provider(label: str, *, milp_time_limit: float | None = None) -> CurveProvider:
    """Resolve a curve label to a configured provider."""
    label, base = _parse_curve(label)
    if base is not None:
        return LocalSearchProvider(base, label=label)
    if label == MIP_LABEL:
        return MilpProvider() if milp_time_limit is None else MilpProvider(milp_time_limit)
    if label == OTO_LABEL:
        return OneToOneProvider()
    return HeuristicProvider(label)


def resolve_curves(
    scenario: ScenarioConfig,
    *,
    include_milp: bool | None = None,
    extra_curves: Sequence[str] = (),
) -> list[str]:
    """The validated curve labels of one experiment run, in series order.

    The scenario's heuristics, any extra curves, then MIP
    (``include_milp`` overrides the scenario's flag) and OtO when
    enabled.  Duplicate labels are an error — every series key must be
    unique, and labels are compared case-insensitively because provider
    resolution is (``"h4w"`` and ``"H4w"`` would be the same curve under
    different RNG stream labels).
    """
    declared = {name.lower() for name in scenario.heuristics}
    labels = [
        _parse_curve(label)[0]
        for label in (
            *scenario.heuristics,
            *(label for label in extra_curves if label.lower() not in declared),
        )
    ]
    if scenario.include_milp if include_milp is None else include_milp:
        labels.append(MIP_LABEL)
    if scenario.include_one_to_one:
        labels.append(OTO_LABEL)
    seen: set[str] = set()
    for label in labels:
        if label.lower() in seen:
            raise ExperimentError(f"duplicate curve label {label!r} in this experiment")
        seen.add(label.lower())
    return labels
