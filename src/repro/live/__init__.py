"""Live replanning: a platform that fails and recovers, not a frozen one.

Everything below :mod:`repro.service` solves *static* instances; this
package opens the paper's actual operating regime — a micro-factory
whose machines fail and recover while production runs — as a
deterministic discrete-event workload:

* :mod:`~repro.live.timeline` — seeded fail/recover/request event
  timelines (:func:`generate_timeline`, :class:`LiveConfig`);
* :mod:`~repro.live.replanner` — the incremental replanner: plan cache →
  warm-start descent from the previous mapping (via
  :class:`~repro.batch.MappingEvaluator` and the local-search move
  kernels) → cold solve of the full platform under the up-mask →
  infeasible, with availability and per-event latency accounting;
* :mod:`~repro.live.runner` — end-to-end timeline execution, in process
  or through the service's ``/v1/session`` API, plus the bit-for-bit
  run comparison used by tests and the CI live smoke.

The contract mirrors the service's: *how* a mapping was obtained (warm
start, plan cache, remote session) never changes *what* it is — a warm
run, a ``warm=False`` cold re-solve run and a remote session replay of
the same timeline are required to agree bit for bit on every event.
"""

from .replanner import ReplanRecord, Replanner
from .runner import (
    LiveReport,
    build_replanner,
    compare_reports,
    run_timeline,
    run_timeline_remote,
)
from .timeline import EVENT_KINDS, LiveConfig, LiveEvent, generate_timeline

__all__ = [
    "EVENT_KINDS",
    "LiveConfig",
    "LiveEvent",
    "LiveReport",
    "ReplanRecord",
    "Replanner",
    "build_replanner",
    "compare_reports",
    "generate_timeline",
    "run_timeline",
    "run_timeline_remote",
]
