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
from .record import CAMPAIGN_FILE, CampaignRecord, kept_record, read_record, write_record

__all__ = ["merge_stores"]


def merge_stores(
    destination: str | os.PathLike, sources: "list[str | os.PathLike]", *, log=None
) -> MergeReport:
    """Merge every source store into ``destination`` (created if missing).

    Returns the :class:`~repro.experiments.store.MergeReport`; raises
    :class:`~repro.exceptions.ExperimentError` on missing sources,
    sources holding shards of different campaigns, or conflicting
    records (in each case the destination is untouched).  The campaign
    each source records goes into the destination's ``campaign.json``
    unsharded (:func:`~repro.campaign.record.kept_record`, whose notes
    go to ``log``), so ``dag status``, ``dag run`` and ``export`` treat
    the merged store like a single host's.
    """
    if not sources:
        raise ExperimentError("store merge needs at least one source store")
    missing = [str(path) for path in sources if not Path(path).is_dir()]
    if missing:
        raise ExperimentError(f"source store(s) not found: {', '.join(missing)}")
    recorded = [
        (path, read_record(path)) for path in sources if (Path(path) / CAMPAIGN_FILE).exists()
    ]
    sharded = [(path, record) for path, record in recorded if record.shard is not None]
    for path, record in sharded[1:]:
        if not record.same_tiling(sharded[0][1]):
            raise ExperimentError(
                f"{sharded[0][0]} and {path} hold shards of different campaigns; "
                "merge the shards of one 'dag run --shard' campaign"
            )
    target = ResultStore(destination)
    report = target.merge(*(ResultStore(path) for path in sources))
    for _, record in recorded:
        kept, note = kept_record(CampaignRecord(record.manifest), target.path)
        if note is not None and log is not None:
            log(note)
        write_record(target.path, kept)
    return report
