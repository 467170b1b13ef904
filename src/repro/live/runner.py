"""End-to-end execution of a live timeline, locally or against a service.

:func:`run_timeline` drives a :class:`~repro.live.replanner.Replanner`
through every event of a scenario's generated timeline in process;
:func:`run_timeline_remote` replays the *same* timeline through a
running solve service's session API (one ``POST /v1/session``, one
``POST .../event`` per event, one ``DELETE``).  Both return a
:class:`LiveReport` whose per-event records carry identical fields, so
:func:`compare_reports` can require a warm run, a cold re-solve run and
a remote session to agree **bit for bit** — the live subsystem's
equivalent of the service's batched-equals-direct contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ExperimentError
from ..obs.metrics import nearest_rank
from ..service.requests import normalize_session_request
from .replanner import Replanner
from .timeline import LiveConfig, generate_timeline

__all__ = ["LiveReport", "compare_reports", "run_timeline", "run_timeline_remote"]

#: Record fields that must agree bit for bit across warm / cold / remote
#: runs of the same scenario (``replan_ms`` is a measurement, not state).
_STATE_FIELDS = (
    "seq",
    "time",
    "kind",
    "machine",
    "via",
    "feasible",
    "mapping",
    "period",
    "up_count",
    "availability",
)


@dataclass(frozen=True, slots=True)
class LiveReport:
    """Outcome of one timeline run.

    ``records`` holds one dict per event (the initial solve is record 0)
    in the JSON shape of the session event responses; ``counters`` the
    tier counts; ``latency_ms`` per-tier replan latency summaries.
    """

    config: LiveConfig
    mode: str
    records: list[dict]
    availability: float
    counters: dict
    latency_ms: dict

    def to_dict(self) -> dict:
        """JSON-ready form (the ``microrepro live --json`` output)."""
        return {
            "config": self.config.to_dict(),
            "mode": self.mode,
            "events": len(self.records),
            "availability": self.availability,
            "replans": self.counters,
            "latency_ms": self.latency_ms,
            "records": self.records,
        }

    def summary_lines(self) -> list[str]:
        """Human-readable run summary (the default CLI output)."""
        lines = [
            f"live timeline: {self.config.heuristic} on n={self.config.tasks} "
            f"p={self.config.types} m={self.config.machines}, "
            f"duration {self.config.duration:g} (seed {self.config.seed}, {self.mode})",
            f"  events: {len(self.records)}  availability: {self.availability:.4f}",
            "  replans: "
            + "  ".join(f"{k}={v}" for k, v in self.counters.items()),
        ]
        for tier in ("warm", "cold"):
            stats = self.latency_ms.get(tier)
            if stats and stats["count"]:
                lines.append(
                    f"  {tier} replan latency: p50 {stats['p50']:.3f} ms  "
                    f"p95 {stats['p95']:.3f} ms  max {stats['max']:.3f} ms  "
                    f"({stats['count']} event(s))"
                )
        return lines


def _latency_summary(records: list[dict]) -> dict:
    summary: dict[str, dict] = {}
    for tier in ("warm", "cold", "cache"):
        samples = sorted(
            rec["replan_ms"] for rec in records if rec["via"] == tier
        )
        summary[tier] = {
            "count": len(samples),
            "p50": nearest_rank(samples, 0.50),
            "p95": nearest_rank(samples, 0.95),
            "max": samples[-1] if samples else 0.0,
        }
    return summary


def build_replanner(config: LiveConfig, *, warm: bool = True) -> Replanner:
    """The scenario's replanner over its content-addressed instance.

    The instance is drawn through the *service request* normalisation,
    so a local run and a session created from
    :meth:`LiveConfig.session_payload` replan the exact same draw.
    """
    spec = normalize_session_request(config.session_payload())
    return Replanner(spec.request.sample(), config.heuristic, warm=warm)


def run_timeline(config: LiveConfig, *, warm: bool = True) -> LiveReport:
    """Run the scenario's whole timeline in process."""
    replanner = build_replanner(config, warm=warm)
    records = [replanner.initial.to_dict()]
    for event in generate_timeline(config):
        records.append(replanner.apply(event.time, event.kind, event.machine).to_dict())
    availability = replanner.finish(config.duration)
    return LiveReport(
        config=config,
        mode="warm" if warm else "cold",
        records=records,
        availability=availability,
        counters=replanner.counters.as_dict(),
        latency_ms=_latency_summary(records),
    )


def run_timeline_remote(config: LiveConfig, client) -> LiveReport:
    """Replay the scenario's timeline through a service session.

    ``client`` is a :class:`~repro.service.client.ServiceClient` (or
    anything with a compatible ``session`` method).  The per-event
    records come back from the server, so comparing this report against
    a local one checks the whole session path — normalisation, executor
    hand-off, serialization — not just the replanner.  The tier counts
    are the server-side replanner's own, from the close response.
    """
    records: list[dict] = []
    with client.session(config.session_payload()) as session:
        records.append({k: session.created[k] for k in session.created if k != "session"})
        for event in generate_timeline(config):
            response = session.event(**event.to_payload())
            records.append({k: response[k] for k in response if k != "session"})
        closed = session.close()
    return LiveReport(
        config=config,
        mode="remote",
        records=records,
        availability=closed["availability"],
        counters=closed["replans"],
        latency_ms=_latency_summary(records),
    )


def compare_reports(reference: LiveReport, candidate: LiveReport) -> None:
    """Require two runs of one scenario to agree bit for bit.

    Compares every state field of every record plus the final
    availability; replan latencies are measurements and excluded.
    Raises :class:`~repro.exceptions.ExperimentError` on the first
    divergence — warm-start replanning diverging from the cold re-solve
    (or a remote session diverging from a local run) is a correctness
    bug, not noise.
    """
    if len(reference.records) != len(candidate.records):
        raise ExperimentError(
            f"{reference.mode} run produced {len(reference.records)} record(s) but "
            f"{candidate.mode} produced {len(candidate.records)}"
        )
    for ref, cand in zip(reference.records, candidate.records):
        for fld in _STATE_FIELDS:
            if ref.get(fld) != cand.get(fld):
                raise ExperimentError(
                    f"record {ref.get('seq')} differs between {reference.mode} and "
                    f"{candidate.mode} runs: {fld} = {ref.get(fld)!r} vs "
                    f"{cand.get(fld)!r}"
                )
    if reference.availability != candidate.availability:
        raise ExperimentError(
            f"availability differs: {reference.availability!r} ({reference.mode}) vs "
            f"{candidate.availability!r} ({candidate.mode})"
        )
