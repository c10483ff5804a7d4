"""Agent-side event forwarding: remote jobs feed the same stream.

A remote ``repro agent`` runs watched jobs on another host, so its
live simulation events must travel back to the control plane before
SSE consumers can see them.  :class:`EventForwarder` is the agent half
of that path: a bounded in-memory buffer whose :meth:`offer` never
blocks the executing simulation (at capacity the oldest entry is
dropped and counted), flushed in batches over ``POST
/v1/sites/{name}/events`` at each claim return, before each result
push, on each heartbeat and at shutdown.  Flushes run one at a time,
so batches land in order and a flush that returns has shipped every
event offered before it — which is what puts a job's forwarded events
on the control plane's ring before its ``job.done``.

Delivery is best-effort by design: telemetry must never be able to
stall or fail a job.  An unreachable control plane drops the batch
(counted in :attr:`dropped`) and execution continues untouched.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional

#: Largest number of events one flush POST carries.
MAX_BATCH = 256


class EventForwarder:
    """See module docstring.

    *client* is a :class:`repro.service.client.ServiceClient`; *site*
    the agent's registered site name.
    """

    def __init__(
        self,
        client: Any,
        site: str,
        capacity: int = 2048,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.client = client
        self.site = site
        self.capacity = capacity
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._buffer: deque = deque()
        self._dropped = 0
        self._forwarded = 0

    # -- producer side (simulation threads) ----------------------------

    def offer(self, kind: str, data: Optional[Dict[str, Any]] = None,
              job_id: Optional[str] = None) -> None:
        """Buffer one event; never blocks, drops oldest at capacity."""
        entry: Dict[str, Any] = {"kind": kind}
        if job_id is not None:
            entry["job_id"] = job_id
        if data:
            entry["data"] = data
        with self._lock:
            self._buffer.append(entry)
            if len(self._buffer) > self.capacity:
                self._buffer.popleft()
                self._dropped += 1

    # -- consumer side (agent housekeeping threads) --------------------

    def flush(self) -> int:
        """Ship buffered events in batches; returns how many landed.

        A failed POST drops its batch (counted) rather than retrying:
        the feed is best-effort and the buffer must never grow without
        bound against a dead control plane.  Concurrent calls queue up
        behind the one in progress.
        """
        sent = 0
        with self._flush_lock:
            while True:
                with self._lock:
                    if not self._buffer:
                        return sent
                    batch: List[Dict[str, Any]] = [
                        self._buffer.popleft()
                        for _ in range(min(MAX_BATCH, len(self._buffer)))
                    ]
                try:
                    self.client.post_site_events(self.site, batch)
                except Exception:
                    with self._lock:
                        self._dropped += len(batch)
                    return sent
                sent += len(batch)
                self._forwarded += len(batch)

    def close(self) -> None:
        """Final flush (agent shutdown)."""
        self.flush()

    # -- introspection -------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events lost to overflow or failed flushes."""
        with self._lock:
            return self._dropped

    @property
    def forwarded(self) -> int:
        """Events successfully shipped so far."""
        return self._forwarded

    def pending(self) -> int:
        """Events currently buffered."""
        with self._lock:
            return len(self._buffer)


class ForwardingTelemetry:
    """The remote agent's telemetry surface (what ``repro agent``
    hands its :class:`repro.service.agent.WorkerAgent`).

    Mirrors the duck type of :class:`repro.telemetry.hub.TelemetryHub`
    as the agent engine sees it: :meth:`job_sink` returns a live
    simulation-event sink for watched jobs (watch status arrives with
    the claim response — see ``RemoteJobSource.is_watched``), and
    :meth:`flush` ships the buffered batch.
    """

    def __init__(self, forwarder: EventForwarder, is_watched) -> None:
        self.forwarder = forwarder
        self._is_watched = is_watched

    def job_sink(self, job_id: str):
        """A forwarding sink for *job_id*, or None when unwatched."""
        from repro.obs.sinks import LiveEventSink
        from repro.telemetry.hub import SKIP_SIM_EVENTS

        if not self._is_watched(job_id):
            return None

        def emit(kind: str, record: Dict[str, Any]) -> None:
            self.forwarder.offer(kind, record, job_id=job_id)

        return LiveEventSink(emit, skip=SKIP_SIM_EVENTS)

    def flush(self) -> None:
        """Ship whatever the simulations buffered since the last flush."""
        self.forwarder.flush()
