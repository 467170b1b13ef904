"""Merge shard stores back into one campaign store.

Thin path-level convenience over
:meth:`repro.experiments.store.ResultStore.merge` (where the union /
conflict-detection semantics live): open the destination, open every
source read-only, merge.  Sources must exist — a typo'd path
must fail loudly, not union an implicitly created empty store.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..exceptions import ExperimentError
from ..experiments.store import MergeReport, ResultStore

__all__ = ["merge_stores"]


def merge_stores(
    destination: str | os.PathLike, sources: "list[str | os.PathLike]"
) -> MergeReport:
    """Merge every source store into ``destination`` (created if missing).

    Returns the :class:`~repro.experiments.store.MergeReport`; raises
    :class:`~repro.exceptions.ExperimentError` on missing sources or
    conflicting records (in which case the destination is untouched).
    """
    if not sources:
        raise ExperimentError("store merge needs at least one source store")
    missing = [str(path) for path in sources if not Path(path).is_dir()]
    if missing:
        raise ExperimentError(f"source store(s) not found: {', '.join(missing)}")
    opened = [ResultStore(path) for path in sources]
    return ResultStore(destination).merge(*opened)
