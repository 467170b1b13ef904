"""Per-layer self times, measured from outside the program.

The benchmark changes nothing under ``src/``.  :class:`LayerClock`
instead wraps the public entry points of each layer for the duration of
a traced phase, keeps every timer in memory, and puts the originals back
on exit.  The kernel backend is wrapped through the same
``repro.backend.activate_backend`` seam that
``repro.obs.instrument.timed_kernels`` uses.

Wrapped calls nest.  A call's elapsed time is charged to the enclosing
wrapped call as child time, so a layer's *self* time is its own duration
minus the nested layer calls: kernel time sits under the solve that
issued it, and scoring inside H4ls's batch solve counts as scoring.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, replace

#: The six kernels of ``repro.backend.KernelBackend``.
KERNELS = (
    "first_feasible",
    "propagate_x",
    "scatter_periods",
    "scatter_add_rows",
    "critical_mask",
    "probe_candidates",
)

#: Per-layer metric (without its ``_s``/count suffix) -> the end-to-end
#: metric it should move and the workloads where it should not move.
LAYER_MAP = {
    "generators.sample": ("figures.ops_per_s", ()),
    "heuristics.batch_solve": ("figures.ops_per_s", ("service", "live")),
    "heuristics.refine_batch": ("figures.ops_per_s", ("service", "live")),
    "heuristics.loop_solve": (
        "service.latency_p50_ms, live.latency_p50_ms (cold tier)",
        ("figures",),
    ),
    "batch.score": ("figures.ops_per_s", ()),
    "batch.stack": ("figures.ops_per_s (cross-point stacking)", ()),
    "exact.oto": ("figures.ops_per_s", ("service", "live")),
    **{
        f"backend.{kernel}": ("figures.ops_per_s, live.latency_p50_ms", ())
        for kernel in KERNELS
    },
    "batch.best_move": (
        "live.latency_p90_ms (warm tier), service.latency_p90_ms (H4ls)",
        ("figures",),
    ),
    "batch.move": (
        "live.latency_p90_ms (warm tier), service.latency_p90_ms (H4ls)",
        ("figures",),
    ),
    "batch.reassign": ("live.latency_p90_ms", ("figures", "service")),
    "live.replans": ("live.ops_per_s", ("figures", "service")),
    "service.span": ("service.latency_p50_ms", ("figures", "live")),
    "service.overhead": ("service.latency_p50_ms", ("figures", "live")),
    "figures.unattributed": ("figures.ops_per_s", ()),
}


def _rows_of_instances(args, result) -> int:
    return len(args[1])


def _rows_of_stack(args, result) -> int:
    return args[0].num_instances


def _instances_sampled(args, result) -> int:
    return len(result.instances)


def _one(args, result) -> int:
    return 1


@dataclass(slots=True)
class LayerTimes:
    """Accumulated timings of one layer."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    rows: int = 0


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0


class LayerClock:
    """Context manager installing in-memory timers around every layer.

    Use it around a traced phase only; the untraced phases run the
    unmodified functions.  ``times`` maps layer names to
    :class:`LayerTimes`.
    """

    def __init__(self) -> None:
        self.times: dict[str, LayerTimes] = {}
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._activation = None

    # -- wrapping ---------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as ``layer``; ``count(args, result)`` adds rows.

        Rows are counted at the outermost call of a layer only, so H4ls's
        nested H4w batch solve does not count its rows twice.
        """
        times = self.times.setdefault(layer, LayerTimes())
        stack_of = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = stack_of()
            nested = any(frame.layer == layer for frame in stack)
            frame = _Frame(layer)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                times.calls += 1
                times.total += elapsed
                times.self_time += elapsed - frame.child
                if stack:
                    stack[-1].child += elapsed
            if count is not None and not nested:
                times.rows += count(args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def _patch_class(self, owner: type, attr: str, layer: str, count=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__, count))
        else:
            new = self.wrap(layer, raw, count)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, layer: str, count=None) -> None:
        """Replace a module function everywhere ``from ... import`` bound it."""
        original = getattr(module, attr)
        timed = self.wrap(layer, original, count)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(loaded, attr, None) is original:
                self._restore.append((loaded, attr, original))
                setattr(loaded, attr, timed)

    def __enter__(self) -> "LayerClock":
        try:
            self._install()
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def _install(self) -> None:
        from repro.backend import activate_backend, get_backend
        from repro.batch.evaluation import InstanceStack
        from repro.batch.incremental import MappingEvaluator
        from repro.exact import one_to_one
        from repro.experiments.providers import CellBlock
        from repro.heuristics import available_heuristics, base, get_heuristic, local_search

        self._patch_class(CellBlock, "sample", "generators.sample", _instances_sampled)
        solvers = []
        for name in available_heuristics():
            for cls in type(get_heuristic(name)).__mro__:
                if "solve_batch" in cls.__dict__ and cls not in solvers:
                    solvers.append(cls)
        for cls in solvers:
            if cls is not base.BatchHeuristic:
                self._patch_class(
                    cls, "solve_batch", "heuristics.batch_solve", _rows_of_instances
                )
        self._patch_function(
            local_search, "refine_specialized_batch", "heuristics.refine_batch"
        )
        self._patch_function(base, "solve_one", "heuristics.loop_solve", _one)
        self._patch_class(InstanceStack, "periods", "batch.score", _rows_of_stack)
        self._patch_class(InstanceStack, "evaluate", "batch.score", _rows_of_stack)
        self._patch_class(InstanceStack, "from_instances", "batch.stack")
        self._patch_function(one_to_one, "optimal_one_to_one", "exact.oto")
        self._patch_class(MappingEvaluator, "best_move", "batch.best_move")
        self._patch_class(MappingEvaluator, "move", "batch.move")
        self._patch_class(MappingEvaluator, "reassign", "batch.reassign")

        backend = get_backend()
        timed_backend = replace(
            backend,
            **{
                kernel: self.wrap(f"backend.{kernel}", getattr(backend, kernel))
                for kernel in KERNELS
            },
        )
        self._activation = activate_backend(timed_backend)
        self._activation.__enter__()

    def __exit__(self, *exc_info) -> None:
        if self._activation is not None:
            self._activation.__exit__(*exc_info)
            self._activation = None
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------------
    def layer(self, name: str) -> LayerTimes:
        return self.times.get(name, LayerTimes())

    def attributed_seconds(self) -> float:
        """Wall time spent under any wrapped layer (sum of self times)."""
        return sum(t.self_time for t in self.times.values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as ``{name: (value, unit)}``."""
        out: dict[str, tuple[float, str]] = {}

        def seconds(metric: str, layer: str) -> None:
            out[metric] = (self.layer(layer).self_time, "s")

        def count(metric: str, value: int) -> None:
            out[metric] = (float(value), "count")

        seconds("generators.sample_s", "generators.sample")
        count("generators.instances", self.layer("generators.sample").rows)
        seconds("heuristics.batch_solve_s", "heuristics.batch_solve")
        count("heuristics.batch_rows", self.layer("heuristics.batch_solve").rows)
        seconds("heuristics.refine_batch_s", "heuristics.refine_batch")
        seconds("heuristics.loop_solve_s", "heuristics.loop_solve")
        count("heuristics.loop_rows", self.layer("heuristics.loop_solve").rows)
        seconds("batch.score_s", "batch.score")
        count("batch.score_rows", self.layer("batch.score").rows)
        seconds("batch.stack_s", "batch.stack")
        seconds("exact.oto_s", "exact.oto")
        count("exact.oto_calls", self.layer("exact.oto").calls)
        for kernel in KERNELS:
            seconds(f"backend.{kernel}_s", f"backend.{kernel}")
            count(f"backend.{kernel}_calls", self.layer(f"backend.{kernel}").calls)
        seconds("batch.best_move_s", "batch.best_move")
        count("batch.best_move_calls", self.layer("batch.best_move").calls)
        count("batch.move_calls", self.layer("batch.move").calls)
        seconds("batch.reassign_s", "batch.reassign")
        return out
