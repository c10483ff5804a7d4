"""The control-plane telemetry hub: one ring, one watch registry.

:class:`TelemetryHub` is the single point every live event flows
through on its way to SSE consumers:

- the job store (:class:`repro.service.store_sqlite.SQLiteJobStore`)
  publishes one lifecycle event (submitted/claimed/done/failed/...)
  per transition it commits — cascades and lease retirements included
  — for both the in-process pool and the remote fleet, because both
  paths go through that one store;
- the fleet-events route feeds forwarded agent events in
  (:meth:`ingest`), tagged with the originating site;
- the in-process worker pool asks :meth:`job_sink` for a live
  simulation-event sink around each job it runs — non-None only for
  *watched* jobs, so unwatched trials serialise no events;
- the adaptive campaign controller reports progress through
  :meth:`campaign_notify`.

The ring also wakes the job path: a claim with nothing to lease waits
on it for a transition that can make a job claimable
(:func:`wakes_claims`), and the campaign controller for a terminal
job.  That is the service's only notification mechanism.

Watches are refcounted per job id: each open SSE stream on ``GET
/v1/jobs/{id}/events`` registers one, and the claim response tells
remote agents which of their freshly leased jobs are watched.  A
watch must exist when a job *starts executing* for its simulation
events to stream (lifecycle events always stream).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from repro.obs.sinks import LiveEventSink

from repro.telemetry.ring import TelemetryEvent, TelemetryRing

#: Lifecycle kinds that end a job's event stream.
TERMINAL_KINDS = ("job.done", "job.failed", "job.cancelled")

#: Lifecycle kinds after which a waiting claim tries the store again: a
#: released job, or a terminal one (it may release blocked dependents).
#: A ``job.submitted`` wakes claims only when the job landed ``queued``.
CLAIM_WAKE_KINDS = ("job.released",) + TERMINAL_KINDS

#: Simulation event classes too chatty for a live feed (one
#: ``ActivitySpan`` per compute segment, one ``CheckpointTaken`` per
#: checkpoint interval — tens of thousands per trial between them);
#: both the hub's and the forwarder's job sinks drop them.  Rare,
#: decision-relevant events (``FailureInjected``, ``CheckpointFailed``,
#: restarts, recoveries) still stream; ``--trace-out`` keeps the
#: exhaustive record.
SKIP_SIM_EVENTS = ("ActivitySpan", "CheckpointTaken")


def wakes_claims(event: TelemetryEvent) -> bool:
    """Whether *event* is a transition that can make a job claimable."""
    if event.kind == "job.submitted":
        return event.data.get("state") == "queued"
    return event.kind in CLAIM_WAKE_KINDS


class TelemetryHub:
    """See module docstring."""

    def __init__(self, capacity: int = 2048) -> None:
        self.ring = TelemetryRing(capacity=capacity)
        self._watch_lock = threading.Lock()
        self._watches: Dict[str, int] = {}

    # -- publishing ----------------------------------------------------

    def publish(
        self,
        kind: str,
        job_id: Optional[str] = None,
        site: Optional[str] = None,
        campaign_id: Optional[str] = None,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one event to the ring (never blocks, never raises)."""
        self.ring.append(
            kind, job_id=job_id, site=site, campaign_id=campaign_id, data=data
        )

    def ingest(
        self, site: str, events: List[Dict[str, Any]]
    ) -> int:
        """Feed a batch of forwarded agent events in (already strictly
        parsed by :func:`repro.service.protocol.parse_site_events`);
        returns the number accepted."""
        for entry in events:
            self.publish(
                entry["kind"],
                job_id=entry.get("job_id"),
                site=site,
                data=entry.get("data"),
            )
        return len(events)

    def campaign_notify(
        self, kind: str, campaign_id: str, data: Dict[str, Any]
    ) -> None:
        """The adaptive controller's progress callback."""
        self.publish(kind, campaign_id=campaign_id, data=data)

    # -- watches -------------------------------------------------------

    def watch(self, job_id: str) -> None:
        """Register interest in *job_id*'s live simulation events."""
        with self._watch_lock:
            self._watches[job_id] = self._watches.get(job_id, 0) + 1

    def unwatch(self, job_id: str) -> None:
        """Drop one watch on *job_id* (refcounted)."""
        with self._watch_lock:
            count = self._watches.get(job_id, 0) - 1
            if count > 0:
                self._watches[job_id] = count
            else:
                self._watches.pop(job_id, None)

    def is_watched(self, job_id: str) -> bool:
        """Whether any stream currently watches *job_id*."""
        with self._watch_lock:
            return job_id in self._watches

    def watched(self) -> List[str]:
        """Every currently watched job id."""
        with self._watch_lock:
            return sorted(self._watches)

    # -- worker integration --------------------------------------------

    def job_sink(self, job_id: str) -> Optional[LiveEventSink]:
        """A live simulation-event sink for *job_id*, or None when the
        job is unwatched (so its trials build no events).  The
        in-process pool activates the sink thread-locally around
        :meth:`repro.service.jobs.JobSpec.execute`."""
        if not self.is_watched(job_id):
            return None

        def emit(kind: str, record: Dict[str, Any]) -> None:
            self.publish(kind, job_id=job_id, data=record)

        return LiveEventSink(emit, skip=SKIP_SIM_EVENTS)

    def flush(self) -> None:
        """No-op: local publishes land in the ring immediately (the
        agent engine calls this uniformly; the remote counterpart,
        :class:`repro.telemetry.forwarder.ForwardingTelemetry`, ships
        its buffered batch here)."""

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``telemetry`` block of ``GET /v1/metrics``."""
        ring = self.ring
        return {
            "ring": {
                "capacity": ring.capacity,
                "size": ring.occupancy(),
                "dropped": ring.dropped,
                "last_seq": ring.last_seq,
            },
            "watched_jobs": len(self.watched()),
        }

    def close(self) -> None:
        """Wake and wind down every stream (service shutdown)."""
        self.ring.close()


#: The signature campaign controllers call back on.
CampaignNotify = Callable[[str, str, Dict[str, Any]], None]
