"""Pluggable curve providers for the block-scheduled experiment engine.

A figure's curve set — heuristics, the exact MIP, the optimal
one-to-one mapping, refinements — is not hardcoded in the runner.  This
module splits it into *curve providers* discovered through a registry
mirroring :mod:`repro.heuristics.base`: a figure (or a CLI flag) names
its curves, the engine resolves each name to a provider, and each
provider scores one whole **block** — the ``R`` structurally identical
repetitions of one sweep point, stacked into a
:class:`~repro.batch.InstanceStack` — at a time.

Built-in providers
------------------
* :class:`HeuristicProvider` — any registered heuristic; solves the
  ``R`` mappings in one lock-step ``solve_batch`` call when the
  heuristic implements :class:`~repro.heuristics.BatchHeuristic`
  (falling back to the per-instance loop otherwise) and scores them in
  a single vectorized stack pass (bit-for-bit identical to ``R``
  sequential solve + scalar evaluation calls);
* :class:`LocalSearchProvider` — best-single-move refinement of any base
  heuristic's mapping (curve label ``"<base>+ls"``);
* :class:`MilpProvider` — the exact specialized MIP (label ``"MIP"``);
* :class:`OneToOneProvider` — the optimal one-to-one mapping (``"OtO"``).

Randomness contract: every provider derives its per-repetition streams
from the block's :class:`~repro.simulation.rng.RandomStreamFactory` with
the same labels a per-instance solve loop uses, so the block engine
reproduces that loop's series bit for bit and stays process-independent.
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
    "CROSS_POINT_MAX_ROWS",
    "CellBlock",
    "BlockResult",
    "block_signature",
    "CurveProvider",
    "HeuristicProvider",
    "LocalSearchProvider",
    "MilpProvider",
    "OneToOneProvider",
    "register_provider",
    "available_providers",
    "resolve_provider",
    "resolve_curves",
]

#: Label used for the exact MIP curve.
MIP_LABEL = "MIP"
#: Label used for the optimal one-to-one curve.
OTO_LABEL = "OtO"
#: Curve-label suffix resolved to a :class:`LocalSearchProvider`.
LOCAL_SEARCH_SUFFIX = "+ls"

#: Row cap for one cross-point stacked solve.  Signature-aligned blocks
#: are concatenated up to this many repetitions per kernel pass; beyond
#: it the intermediate (rows, n, m) probe tensors start to crowd cache
#: for no extra amortization.
CROSS_POINT_MAX_ROWS = 512


def block_signature(block: "CellBlock") -> tuple:
    """Structural identity of a block's instances.

    Two blocks with equal signatures (same precedence edges, task count
    and platform size) can be stacked into one
    :class:`~repro.batch.InstanceStack` — the same check
    ``InstanceStack.from_instances`` enforces, exposed here so the
    engine can group sweep points *across* blocks before solving.  Type
    vectors are deliberately excluded: period evaluation ignores them
    and the batch solvers carry them per row.
    """
    first = block.instances[0]
    return (first.application.successors, first.num_machines)


def _aligned_chunks(
    blocks: Sequence["CellBlock"], max_rows: int | None = None
) -> list[list["CellBlock"]]:
    """Group blocks by signature, then cap each chunk's total rows.

    Order-preserving within a signature; a single block deeper than the
    cap still forms its own (oversized) chunk.
    """
    cap = CROSS_POINT_MAX_ROWS if max_rows is None else max_rows
    groups: dict[tuple, list[CellBlock]] = {}
    for block in blocks:
        groups.setdefault(block_signature(block), []).append(block)
    chunks: list[list[CellBlock]] = []
    for group in groups.values():
        chunk: list[CellBlock] = []
        rows = 0
        for block in group:
            if chunk and rows + block.repetitions > cap:
                chunks.append(chunk)
                chunk, rows = [], 0
            chunk.append(block)
            rows += block.repetitions
        chunks.append(chunk)
    return chunks


def _split_periods(chunk, periods):
    """Slice a chunk's concatenated ``(rows,)`` periods back per block."""
    offset = 0
    for block in chunk:
        yield block, periods[offset : offset + block.repetitions]
        offset += block.repetitions


@dataclass(frozen=True, slots=True)
class CellBlock:
    """The ``R`` repetitions of one sweep point, sampled and stacked.

    Attributes
    ----------
    scenario:
        The scenario being run.
    sweep_value:
        The sweep point (``n`` or ``p``).
    instances:
        The ``R`` sampled instances, in repetition order.  Providers that
        need type information (heuristics, exact solvers) work on these.
    stack:
        The same instances as an :class:`~repro.batch.InstanceStack`
        (types relaxed — repetitions share the chain graph, not the type
        vectors), used to score ``R`` mappings in one vectorized pass.
    streams:
        The experiment's stream factory; providers derive their
        per-repetition RNGs from it.
    """

    scenario: ScenarioConfig
    sweep_value: int
    instances: tuple[ProblemInstance, ...]
    stack: InstanceStack
    streams: RandomStreamFactory

    @classmethod
    def sample(
        cls,
        scenario: ScenarioConfig,
        sweep_value: int,
        streams: RandomStreamFactory,
        *,
        memoize: bool = False,
    ) -> "CellBlock":
        """Draw the block's instances (identical to the per-cell runner's)."""
        instances = tuple(
            sample_instance(scenario, sweep_value, repetition, streams, memoize=memoize)
            for repetition in range(scenario.repetitions)
        )
        stack = InstanceStack.from_instances(instances, require_uniform_types=False)
        return cls(
            scenario=scenario,
            sweep_value=sweep_value,
            instances=instances,
            stack=stack,
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


class CurveProvider(abc.ABC):
    """One curve of a figure: scores whole repetition blocks.

    Subclasses set :attr:`label` (the series key) and implement
    :meth:`evaluate_block`.  Providers must be resolvable by label in a
    fresh process (see :func:`resolve_provider`) so the engine can fan
    blocks out over a process pool.
    """

    #: Curve label; unique within one experiment run.
    label: str = ""

    @abc.abstractmethod
    def evaluate_block(self, block: CellBlock) -> BlockResult:
        """Score every repetition of ``block`` for this curve."""

    def evaluate_blocks(self, blocks: Sequence[CellBlock]) -> list[BlockResult]:
        """Score several blocks; results in input order.

        The default is a plain per-block loop.  Providers whose kernels
        are row-independent (the heuristic family) override this to
        stack signature-aligned blocks into one solve + one evaluation
        pass — bit-for-bit identical, one kernel entry instead of one
        per sweep point.
        """
        return [self.evaluate_block(block) for block in blocks]

    def configure(self, *, milp_time_limit: float | None = None) -> "CurveProvider":
        """Apply engine-level options; the default ignores them all."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(label={self.label!r})"


class HeuristicProvider(CurveProvider):
    """Curve provider wrapping one registered heuristic.

    When the heuristic implements the
    :class:`~repro.heuristics.BatchHeuristic` protocol (the greedy H4
    family, H4ls) and the block is deep enough for
    :func:`~repro.heuristics.base.solve_stack`, the whole block is
    solved in one lock-step ``solve_batch`` call.  Otherwise (shallow
    blocks, randomized heuristics such as H1, the binary-search H2/H3
    whose per-instance greedy walk beats any lock-step pass, or
    third-party heuristics without a batch kernel) the mappings are
    produced per instance.  Either way the
    block's periods come from one vectorized stack pass, and both paths
    are bit-for-bit identical to ``R`` sequential solve + evaluate calls.

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

    def solve_block(self, block: CellBlock) -> np.ndarray:
        """The ``(R, n)`` assignment array of the heuristic over the block.

        The batch/loop choice lives in
        :func:`repro.heuristics.base.solve_stack`, the same entry the
        solve service's micro-batcher uses; per-repetition RNG streams
        keep the per-cell runner's labels.
        """
        return solve_stack(
            self._heuristic,
            block.instances,
            lambda repetition: block.streams.stream(
                f"heuristic/{self.label}/{block.sweep_value}", repetition
            ),
        )

    def solve_blocks(self, chunk: Sequence[CellBlock]) -> np.ndarray:
        """Concatenated assignments over signature-aligned blocks.

        One ``solve_stack`` entry for ``sum(R)`` rows; the batch/loop
        choice is made on the *total* depth, so shallow sweep points
        that would each fall below it still ride the lock-step kernels
        together.  Every row keeps its own block's RNG stream label, so
        results are bit-for-bit the per-block ones.
        """
        instances = [inst for block in chunk for inst in block.instances]
        sources = [
            (block, repetition)
            for block in chunk
            for repetition in range(block.repetitions)
        ]

        def stream(row: int):
            block, repetition = sources[row]
            return block.streams.stream(
                f"heuristic/{self.label}/{block.sweep_value}", repetition
            )

        return solve_stack(self._heuristic, instances, stream)

    def evaluate_block(self, block: CellBlock) -> BlockResult:
        periods = block.stack.periods(self.solve_block(block))
        return BlockResult(label=self.label, periods=periods)

    def evaluate_blocks(self, blocks: Sequence[CellBlock]) -> list[BlockResult]:
        out: dict[int, BlockResult] = {}
        for chunk in _aligned_chunks(blocks):
            if len(chunk) == 1:
                out[id(chunk[0])] = self.evaluate_block(chunk[0])
                continue
            instances = [inst for block in chunk for inst in block.instances]
            stack = InstanceStack.from_instances(
                instances, require_uniform_types=False
            )
            periods = stack.periods(self.solve_blocks(chunk))
            for block, block_periods in _split_periods(chunk, periods):
                out[id(block)] = BlockResult(
                    label=self.label, periods=block_periods
                )
        return [out[id(block)] for block in blocks]


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

    @property
    def base_label(self) -> str:
        """Label of the refined base heuristic."""
        return self._base.label

    def evaluate_block(self, block: CellBlock) -> BlockResult:
        seeds = self._base.solve_block(block)
        refined, _ = refine_specialized_batch(block.instances, seeds)
        periods = np.minimum(
            block.stack.periods(refined), block.stack.periods(seeds)
        )
        return BlockResult(label=self.label, periods=periods)

    def evaluate_blocks(self, blocks: Sequence[CellBlock]) -> list[BlockResult]:
        out: dict[int, BlockResult] = {}
        for chunk in _aligned_chunks(blocks):
            if len(chunk) == 1:
                out[id(chunk[0])] = self.evaluate_block(chunk[0])
                continue
            instances = [inst for block in chunk for inst in block.instances]
            seeds = self._base.solve_blocks(chunk)
            refined, _ = refine_specialized_batch(instances, seeds)
            stack = InstanceStack.from_instances(
                instances, require_uniform_types=False
            )
            periods = np.minimum(stack.periods(refined), stack.periods(seeds))
            for block, block_periods in _split_periods(chunk, periods):
                out[id(block)] = BlockResult(
                    label=self.label, periods=block_periods
                )
        return [out[id(block)] for block in blocks]


class MilpProvider(CurveProvider):
    """Exact specialized MIP baseline (label ``"MIP"``).

    The backend solves under a wall-clock time limit, so this provider
    stays per-instance; a repetition that does not prove optimality
    contributes NaN and counts as a failure.
    """

    label = MIP_LABEL

    def __init__(self, time_limit: float = 30.0):
        self.time_limit = time_limit

    def configure(self, *, milp_time_limit: float | None = None) -> "MilpProvider":
        if milp_time_limit is not None:
            self.time_limit = milp_time_limit
        return self

    def evaluate_block(self, block: CellBlock) -> BlockResult:
        periods = np.full(block.repetitions, np.nan, dtype=np.float64)
        failures = 0
        for repetition, instance in enumerate(block.instances):
            result = solve_specialized_milp(instance, time_limit=self.time_limit)
            if result.is_optimal:
                periods[repetition] = result.period
            else:
                failures += 1
        return BlockResult(label=self.label, periods=periods, failures=failures)


class OneToOneProvider(CurveProvider):
    """Optimal one-to-one mapping baseline (label ``"OtO"``)."""

    label = OTO_LABEL

    def evaluate_block(self, block: CellBlock) -> BlockResult:
        periods = np.full(block.repetitions, np.nan, dtype=np.float64)
        for repetition, instance in enumerate(block.instances):
            try:
                periods[repetition] = optimal_one_to_one(instance).period
            except SolverError:
                pass
        return BlockResult(label=self.label, periods=periods)


# -- registry -----------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], CurveProvider]] = {}


def register_provider(factory: Callable[[], CurveProvider]) -> Callable[[], CurveProvider]:
    """Register a no-argument provider factory under its instance label.

    Usable as a class decorator on :class:`CurveProvider` subclasses with
    a fixed label, mirroring
    :func:`repro.heuristics.base.register_heuristic`.
    """
    instance = factory()
    key = instance.label.lower()
    if not key:
        raise ReproError("curve provider must define a non-empty label")
    if key in _REGISTRY:
        raise ReproError(f"curve provider {instance.label!r} is already registered")
    _REGISTRY[key] = factory
    return factory


register_provider(MilpProvider)
register_provider(OneToOneProvider)


def available_providers() -> list[str]:
    """Labels of the explicitly registered providers, in registration order."""
    return [factory().label for factory in _REGISTRY.values()]


def resolve_provider(
    label: str, *, milp_time_limit: float | None = None
) -> CurveProvider:
    """Resolve a curve label to a configured provider.

    Resolution order: explicitly registered providers (``"MIP"``,
    ``"OtO"``, user registrations), then registered heuristics, then the
    ``"<base>+ls"`` local-search convention.
    """
    key = label.lower()
    if key in _REGISTRY:
        return _REGISTRY[key]().configure(milp_time_limit=milp_time_limit)
    try:
        get_heuristic(label)
    except ReproError:
        pass
    else:
        return HeuristicProvider(label)
    if key.endswith(LOCAL_SEARCH_SUFFIX):
        base = label[: -len(LOCAL_SEARCH_SUFFIX)]
        try:
            return LocalSearchProvider(base, label=label)
        except ReproError as exc:
            raise ExperimentError(
                f"cannot resolve curve {label!r}: unknown base heuristic {base!r}"
            ) from exc
    from ..heuristics import available_heuristics

    raise ExperimentError(
        f"unknown curve {label!r}; known providers: {available_providers()}, "
        f"heuristics: {available_heuristics()}, plus '<heuristic>{LOCAL_SEARCH_SUFFIX}'"
    )


def resolve_curves(
    scenario: ScenarioConfig,
    *,
    use_milp: bool,
    use_oto: bool,
    milp_time_limit: float = 30.0,
    extra_curves: Sequence[str] = (),
) -> list[CurveProvider]:
    """The ordered provider list of one experiment run.

    Order matches the per-cell runner's series layout: the scenario's
    heuristics, any extra curves, then MIP and OtO when enabled.
    Duplicate labels are an error — every series key must be unique, and
    labels are compared case-insensitively because provider resolution
    is (``"h4w"`` and ``"H4w"`` would be the same curve under different
    RNG stream labels).
    """
    declared = {name.lower() for name in scenario.heuristics}
    labels = list(scenario.heuristics) + [
        label for label in extra_curves if label.lower() not in declared
    ]
    providers = [
        resolve_provider(label, milp_time_limit=milp_time_limit) for label in labels
    ]
    if use_milp:
        providers.append(MilpProvider(time_limit=milp_time_limit))
    if use_oto:
        providers.append(OneToOneProvider())
    seen: set[str] = set()
    for provider in providers:
        key = provider.label.lower()
        if key in seen:
            raise ExperimentError(
                f"duplicate curve label {provider.label!r} in this experiment"
            )
        seen.add(key)
    return providers
