"""Reproduction of the paper's evaluation section (Figures 5-12).

The experiment layer is built around four pieces:

* :mod:`~repro.experiments.figures` — the paper's figures;
  :func:`resolve_figure` defines a figure's run for ``run_figure`` and
  campaigns alike;
* :mod:`~repro.experiments.providers` — *curve providers*
  (heuristics, exact baselines, local-search refinements) that score
  whole chunks of repetition blocks through one vectorized
  :class:`~repro.batch.InstanceStack` pass;
* :mod:`~repro.experiments.runner` — the block-scheduled engine
  (:func:`run_figure` / :func:`run_scenario` over the one block
  executor :func:`execute_blocks`, serial or process-parallel,
  bit-for-bit reproducible from the seed);
* :mod:`~repro.experiments.store` — the append-only
  :class:`~repro.experiments.store.ResultStore` that makes long
  campaigns persistent, interruptible and resumable.

Stored and in-memory runs share one result fold
(:meth:`ExperimentResult.from_cells`) and one run header
(:meth:`RunMeta.for_run`).
"""

from .figures import FIGURES, FigureSpec, ResolvedFigure, figure_ids, resolve_figure
from .providers import (
    BlockChunk,
    BlockResult,
    CellBlock,
    CurveProvider,
    HeuristicProvider,
    LocalSearchProvider,
    MilpProvider,
    OneToOneProvider,
    resolve_curves,
    resolve_provider,
)
from .reporting import (
    aggregate_report,
    aggregate_results,
    aggregate_seeds,
    figure_report,
)
from .runner import BlockRun, ExperimentResult, execute_blocks, run_figure, run_scenario
from .store import CellRecord, MergeReport, ResultStore, RunMeta

__all__ = [
    "FIGURES",
    "FigureSpec",
    "figure_ids",
    "ResolvedFigure",
    "resolve_figure",
    "figure_report",
    "aggregate_report",
    "aggregate_results",
    "aggregate_seeds",
    "ExperimentResult",
    "run_figure",
    "run_scenario",
    "execute_blocks",
    "BlockRun",
    "BlockChunk",
    "BlockResult",
    "CellBlock",
    "CurveProvider",
    "HeuristicProvider",
    "LocalSearchProvider",
    "MilpProvider",
    "OneToOneProvider",
    "resolve_curves",
    "resolve_provider",
    "CellRecord",
    "MergeReport",
    "ResultStore",
    "RunMeta",
]
