"""The bounded telemetry ring: the service's live event feed store.

One :class:`TelemetryRing` sits at the centre of the telemetry
subsystem.  Every live event — job lifecycle transitions, forwarded
agent events, in-flight simulation events of watched jobs, campaign
controller progress — is appended as a :class:`TelemetryEvent` with a
monotonically increasing sequence number.  The ring is bounded:
appends never block and never fail; once capacity is reached the
oldest event is evicted and counted as dropped, so a slow (or absent)
consumer can never back-pressure the workers that publish.

Consumers poll with :meth:`read_since` (resume from any sequence
number; an eviction gap is reported, never silently skipped) and
block efficiently with :meth:`wait_for` on the ring's condition
variable.  The SSE streaming layer is a thin loop over exactly those
two calls; :meth:`follow` is the same loop with a deadline, which the
job path's waits (claims, the campaign controller) run.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TelemetryEvent:
    """One entry of the live feed.

    ``seq`` is process-unique and strictly increasing; ``ts`` is wall
    time (telemetry describes the service, not the simulation, so wall
    time is correct here — simulated times live inside ``data``).
    """

    seq: int
    ts: float
    kind: str
    job_id: Optional[str] = None
    site: Optional[str] = None
    campaign_id: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict (None scopes omitted; what SSE ships)."""
        payload: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "data": self.data,
        }
        if self.job_id is not None:
            payload["job_id"] = self.job_id
        if self.site is not None:
            payload["site"] = self.site
        if self.campaign_id is not None:
            payload["campaign_id"] = self.campaign_id
        return payload


class TelemetryRing:
    """Bounded, thread-safe event ring with monotonic sequencing.

    - :meth:`append` is O(1), never blocks, never raises: at capacity
      the oldest event is evicted (counted in :attr:`dropped`).
    - :meth:`read_since` returns everything after a sequence number,
      plus how many requested events were already evicted — the
      streaming layer turns a non-zero count into a ``gap`` marker.
    - :meth:`wait_for` blocks on the ring's condition variable until
      something newer than a sequence number exists (or the ring is
      closed, or the timeout elapses) — SSE heartbeats hang on the
      timeout path.
    """

    def __init__(self, capacity: int = 2048, clock=time.time) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._events: Deque[TelemetryEvent] = deque()
        self._cond = threading.Condition()
        self._next_seq = 1
        self._dropped = 0
        self._closed = False

    # -- producers -----------------------------------------------------

    def append(
        self,
        kind: str,
        job_id: Optional[str] = None,
        site: Optional[str] = None,
        campaign_id: Optional[str] = None,
        data: Optional[Dict[str, Any]] = None,
    ) -> TelemetryEvent:
        """Append one event; evicts the oldest at capacity."""
        with self._cond:
            event = TelemetryEvent(
                seq=self._next_seq,
                ts=self._clock(),
                kind=kind,
                job_id=job_id,
                site=site,
                campaign_id=campaign_id,
                data=dict(data or {}),
            )
            self._next_seq += 1
            self._events.append(event)
            if len(self._events) > self.capacity:
                self._events.popleft()
                self._dropped += 1
            self._cond.notify_all()
            return event

    def close(self) -> None:
        """Mark the ring closed and wake every waiter (shutdown path);
        appends after close still work, but waiters stop blocking."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- consumers -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when none yet)."""
        with self._cond:
            return self._next_seq - 1

    @property
    def dropped(self) -> int:
        """Events evicted by overflow since the ring was created."""
        with self._cond:
            return self._dropped

    def occupancy(self) -> int:
        """Events currently held (<= capacity)."""
        with self._cond:
            return len(self._events)

    def read_since(
        self, last_seq: int, limit: Optional[int] = None
    ) -> Tuple[List[TelemetryEvent], int]:
        """Events with ``seq > last_seq`` plus the eviction gap.

        Returns ``(events, missed)`` where *missed* counts requested
        events that were already evicted: non-zero exactly when
        ``last_seq`` lies before the oldest retained event's
        predecessor.  *limit* bounds the batch (None = everything).
        """
        with self._cond:
            if not self._events:
                return [], 0
            oldest = self._events[0].seq
            missed = max(0, oldest - last_seq - 1)
            # Sequence numbers are contiguous, so the newer events are
            # exactly the newest ``newer`` entries: read them off the
            # tail instead of scanning the whole ring.
            newer = self._next_seq - 1 - max(last_seq, oldest - 1)
            events = list(itertools.islice(reversed(self._events), max(newer, 0)))
            events.reverse()
            if limit is not None:
                events = events[:limit]
            return events, missed

    def wait_for(self, last_seq: int, timeout: float) -> bool:
        """Block until an event newer than *last_seq* exists.

        Returns True when newer events are available, False on timeout
        or when the ring has been closed (callers re-check
        :attr:`closed` and wind their streams down).
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._closed and self._next_seq - 1 <= last_seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return not self._closed and self._next_seq - 1 > last_seq

    def follow(
        self, last_seq: int, timeout: float
    ) -> Iterator[Tuple[List[TelemetryEvent], int]]:
        """Yield each ``(events, missed)`` batch newer than *last_seq*
        as :meth:`read_since` returns it, until *timeout* elapses or
        the ring closes.

        A consumer waiting for a particular transition breaks out of
        the loop when a batch holds one (or when *missed* is non-zero:
        the evicted events may have held it); running off the end
        means the deadline passed or the ring closed first.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.wait_for(last_seq, remaining):
                return
            events, missed = self.read_since(last_seq)
            if events:
                last_seq = events[-1].seq
            yield events, missed
