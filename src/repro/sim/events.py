"""Event objects for the simulation kernel.

An :class:`Event` is a callback scheduled at a simulated time.  Kernel
events carry no domain meaning: the paper's Sec. III-A event taxonomy
(arrival, mapping, computation, failure, checkpoint, restart, recovery)
is published by the higher layers as typed domain events
(:mod:`repro.obs.events`).
"""

from __future__ import annotations

from typing import Callable, Optional


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, seq)``: earlier times first,
    then lower priority values, then insertion order.  Cancelling an
    event is O(1); the queue discards cancelled events lazily.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "cancelled",
        "in_queue",
    )

    def __init__(
        self,
        time: float,
        callback: Callable[["Event"], None],
        *,
        priority: int = 0,
        seq: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: Maintained by :class:`repro.sim.queue.EventQueue`: True while
        #: the event sits in the pending heap.  Lets the kernel tell a
        #: cancelled-while-pending event (which must decrement the live
        #: count) from one that already executed or was never queued.
        self.in_queue = False

    def cancel(self) -> None:
        """Mark the event so the kernel will skip it."""
        self.cancelled = True

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """Heap ordering key ``(time, priority, seq)``."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6g} prio={self.priority}{state}>"


#: Priority assigned to failure events so that a failure scheduled at the
#: same instant as a process wakeup is delivered first (the failure
#: happened *during* the preceding interval).
FAILURE_PRIORITY = -10

#: Default priority for ordinary events.
DEFAULT_PRIORITY = 0

Callback = Callable[[Event], None]
OptionalEvent = Optional[Event]
