"""The simulation kernel: clock + event loop.

:class:`Simulator` owns the simulated clock and the pending-event queue
and drives callbacks and :class:`repro.sim.process.Process` coroutines.
The kernel is deliberately small — everything domain-specific (failures,
checkpoints, mapping) lives in higher layers and interacts with the
kernel only through ``schedule`` / ``process`` / ``interrupt``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Optional

from repro.obs.bus import EventBus
from repro.sim.errors import SchedulingError
from repro.sim.events import DEFAULT_PRIORITY, Event
from repro.sim.process import Process, Timeout
from repro.sim.queue import EventQueue


class Simulator:
    """Event-driven simulation kernel.

    Parameters
    ----------
    bus:
        Optional :class:`repro.obs.bus.EventBus`; one is created when
        not given.  The kernel itself publishes nothing: higher layers
        publish their typed domain events through this bus, and sinks
        subscribe to it.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._seq = 0
        self._running = False
        self._event_count = 0
        self.bus = bus if bus is not None else EventBus()

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events executed so far."""
        return self._event_count

    @property
    def pending(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule *callback* to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[Event], None],
        *,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule *callback* at absolute simulated time *time*."""
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        self._seq += 1
        event = Event(time, callback, priority=priority, seq=self._seq)
        self._queue.push(event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if already cancelled).

        Safe to call on events that already executed or were never
        queued: only an event still sitting in the pending queue
        decrements the queue's live count.
        """
        if event.cancelled:
            return
        event.cancel()
        if event.in_queue:
            self._queue.notify_cancelled()

    # -- processes ----------------------------------------------------------

    def process(
        self, generator: Generator[Any, Any, Any], name: str = "process"
    ) -> Process:
        """Spawn a coroutine process; its first step runs at the current
        time (once control returns to the event loop)."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float) -> Timeout:
        """Create a :class:`Timeout` for ``yield`` inside a process."""
        return Timeout(delay)

    def timeout_at(self, time: float) -> Timeout:
        """A :class:`Timeout` completing at absolute simulated *time*.

        The wake event is scheduled exactly at *time* — no float
        round-trip through ``now + (time - now)`` — which is what lets
        the execution engine's fast path land bit-exactly on a stepped
        wake instant.  A *time* already in the past wakes immediately.
        """
        return Timeout(max(0.0, time - self._now), at=max(time, self._now))

    # -- event loop ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        self._now = event.time
        self._event_count += 1
        event.callback(event)
        return True

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` more events have executed.

        Returns the simulated time at which the loop stopped.  When
        ``until`` is given and events remain beyond it, the clock is
        advanced exactly to ``until``.
        """
        if self._running:
            raise SchedulingError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        try:
            # Inlined step() with a fused peek+pop (pop_due): one
            # tombstone scan per executed event instead of two.
            while True:
                if max_events is not None and executed >= max_events:
                    break
                event = queue.pop_due(until)
                if event is None:
                    if until is not None and queue:
                        # Live events remain beyond the horizon.
                        self._now = max(self._now, until)
                    break
                self._now = event.time
                self._event_count += 1
                event.callback(event)
                executed += 1
        finally:
            self._running = False
        return self._now

    def run_until_empty(self, max_events: Optional[int] = None) -> float:
        """Run with no time horizon (guarded by ``max_events`` if given)."""
        return self.run(until=None, max_events=max_events)
