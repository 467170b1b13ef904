"""Index tables of one precedence graph, built once and shared.

The batch kernels walk the in-tree through index arrays rather than
through :class:`~repro.core.application.Application` methods:

* ``paths`` — the path split the ``propagate_x`` kernel accumulates
  along (one path for a chain);
* ``upstream`` / ``pairs`` — the upstream sets of the incremental
  evaluator and the flat ``(task, upstream task)`` pairs its move probe
  scatters.

All of them depend on the precedence graph alone, and
:attr:`Application.successors` *is* that graph, so :func:`graph_tables`
keys one :class:`GraphTables` per successor table: two equal chains (the
shape of every figure, service and live instance) share one set.  Every
array is read-only, so sharing cannot leak a write from one evaluator
into another.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np

from ..core.application import Application

__all__ = ["GraphTables", "graph_tables", "split_paths"]

#: Bound on the cached graphs' total ``n**2``, which bounds their
#: upstream tables (a chain of ``n`` tasks has ``n * (n + 1) / 2``
#: upstream pairs): ~50 chains of 100 tasks.  Eviction is FIFO; an
#: evicted graph's tables are rebuilt on its next use (same values).
GRAPH_CACHE_BUDGET = 1 << 19

_CACHE: dict[tuple[int | None, ...], "GraphTables"] = {}
_CACHE_LOCK = threading.Lock()


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def split_paths(
    order: np.ndarray, succ: np.ndarray
) -> tuple[tuple[np.ndarray, int], ...]:
    """Split an in-tree into the paths ``propagate_x`` accumulates along.

    ``order`` is a reverse topological order and ``succ[t]`` the
    successor of ``t`` (-1 at a sink).  Each path is ``(tasks, seed)``:
    ``tasks`` runs from the task nearest the sink up to a source, each
    task the successor of the next, and ``seed`` is the successor of
    ``tasks[0]`` (-1 for a sink).  Walking ``order``,
    a task extends the path its successor ends, unless another
    predecessor of that successor already did; then it starts a new
    path.  A path's seed therefore lies on an earlier path, so the
    paths are in a valid evaluation order.  A chain is one path.
    """
    paths: list[tuple[int, list[int]]] = []
    ends: dict[int, int] = {}  # task -> the path it currently ends
    for task in order.tolist():
        s = int(succ[task])
        index = ends.pop(s, None) if s >= 0 else None
        if index is None:
            index = len(paths)
            paths.append((s, [task]))
        else:
            paths[index][1].append(task)
        ends[task] = index
    return tuple((_frozen(tasks), seed) for seed, tasks in paths)


class GraphTables:
    """Read-only index tables of one precedence graph.

    ``order`` is the reverse topological task order and ``succ[t]`` the
    successor of ``t`` (-1 at a sink); ``paths`` is their
    :func:`split_paths`.  The upstream tables are built on first use:
    the stacked evaluators never need them.
    """

    def __init__(self, application: Application):
        self.order = _frozen(application.reverse_topological_order())
        self.succ = _frozen([-1 if s is None else s for s in application.successors])
        self.paths = split_paths(self.order, self.succ)

    @cached_property
    def upstream(self) -> tuple[np.ndarray, ...]:
        """For each task, the tasks whose sink path passes through it.

        Entry ``i`` lists ``i`` first, then every transitive predecessor
        of ``i`` in ascending index order.
        """
        succ = self.succ.tolist()
        predecessors: list[list[int]] = [[] for _ in succ]
        for task, s in enumerate(succ):
            if s >= 0:
                predecessors[s].append(task)
        collected: dict[int, list[int]] = {}
        for task in reversed(self.order.tolist()):
            members: list[int] = []
            for pred in predecessors[task]:
                members.extend(collected[pred])
            members.sort()
            collected[task] = [task] + members
        return tuple(_frozen(collected[i]) for i in range(len(succ)))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Flat ``(task, upstream task)`` pairs, then the same without heads.

        Returns ``(tasks, ups, count)``.  The first ``count`` pairs list
        every upstream set, task-major and in each set's own order
        (``ups[k]`` is in the upstream set of ``tasks[k]``); the rest
        repeat them without each set's leading task (the ``ups[1:]``
        slices).  The move probe scatters both runs in one call.
        """
        lengths = np.asarray([ups.size for ups in self.upstream], dtype=np.int64)
        tasks = np.repeat(np.arange(lengths.size), lengths)
        ups = np.concatenate(self.upstream)
        rest = np.ones(tasks.size, dtype=bool)
        rest[np.cumsum(lengths) - lengths] = False
        return (
            _frozen(np.concatenate([tasks, tasks[rest]])),
            _frozen(np.concatenate([ups, ups[rest]])),
            int(tasks.size),
        )


def graph_tables(application: Application) -> GraphTables:
    """The shared :class:`GraphTables` of ``application``'s precedence graph."""
    key = application.successors
    tables = _CACHE.get(key)
    if tables is None:
        with _CACHE_LOCK:
            tables = _CACHE.get(key)
            if tables is None:
                weight = len(key) ** 2
                while _CACHE and sum(len(k) ** 2 for k in _CACHE) + weight > GRAPH_CACHE_BUDGET:
                    del _CACHE[next(iter(_CACHE))]
                tables = _CACHE[key] = GraphTables(application)
    return tables
