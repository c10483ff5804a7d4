"""Shared-resource primitives for the simulation kernel.

Two pieces:

- :class:`Signal` — a one-shot waitable a process can ``yield``;
  another party resumes it with :meth:`Signal.fire`.  (The kernel's
  third suspension kind, next to timeouts and process joins.)
- :class:`SlotPool` — a counted resource with FIFO queuing built on
  signals.  Used to model contention: e.g. the parallel file system
  accepting only K concurrent checkpoint/restart streams.

Processes interact with a pool through :meth:`SlotPool.request`::

    ticket = pool.request()
    yield from ticket.wait()      # may Interrupt: call ticket.abandon()
    try:
        ...                        # hold the slot
    finally:
        ticket.release()

The ticket protocol is interrupt-safe: abandoning a queued ticket
removes it from the line; abandoning a granted-but-unconsumed ticket
returns the slot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.process import Process


class Signal:
    """A one-shot event processes can wait on.

    ``yield signal`` suspends until someone calls :meth:`fire`; the
    fired value is sent back into the generator.  Firing before any
    waiter arrives is fine — later waiters resume immediately.
    """

    __slots__ = ("_sim", "_waiters", "fired", "value")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._waiters: List["Process"] = []
        self.fired = False
        self.value: Any = None

    def fire(self, value: Any = None) -> None:
        """Fire the signal, resuming all current and future waiters."""
        if self.fired:
            raise RuntimeError("signal already fired")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            # Track the resume on the waiter so an interrupt landing
            # between fire and delivery cancels it (no double resume).
            waiter._waiting_signal = None
            waiter._pending_event = self._sim.schedule(
                0.0, lambda _ev, w=waiter: w._step(send=self.value)
            )

    # -- kernel side (called by Process) ---------------------------------

    def _add_waiter(self, process: "Process") -> bool:
        """Register *process*; False if already fired (resume now)."""
        if self.fired:
            return False
        self._waiters.append(process)
        return True

    def _remove_waiter(self, process: "Process") -> None:
        try:
            self._waiters.remove(process)
        except ValueError:  # pragma: no cover - defensive
            pass


class SlotTicket:
    """One request against a :class:`SlotPool` (see module docstring)."""

    def __init__(self, pool: "SlotPool") -> None:
        self._pool = pool
        self._signal: Optional[Signal] = None
        #: queued -> granted -> held -> released; or abandoned.
        self.state = "new"

    def wait(self) -> Generator:
        """Generator: suspends until the slot is granted.

        Raises whatever interrupt strikes while queued — callers must
        then call :meth:`abandon`.
        """
        if self.state == "held":
            return
        if self.state != "queued":
            raise RuntimeError(f"cannot wait on a {self.state} ticket")
        assert self._signal is not None
        yield self._signal
        # The pool granted us the slot just before firing.
        self.state = "held"

    def abandon(self) -> None:
        """Give up on the request (interrupt handling).

        Safe in any state: a queued ticket leaves the line; a granted
        ticket returns its slot; held tickets are released.
        """
        if self.state in ("queued", "granted", "held"):
            self._pool._abandon(self)
        self.state = "abandoned"

    def release(self) -> None:
        """Return the held slot to the pool."""
        if self.state != "held":
            raise RuntimeError(f"cannot release a {self.state} ticket")
        self.state = "released"
        self._pool._release_one()


class SlotPool:
    """A counted resource with FIFO queuing.

    Parameters
    ----------
    sim:
        The owning simulator.
    slots:
        Concurrent holders allowed.
    name:
        For diagnostics.
    """

    def __init__(self, sim: "Simulator", slots: int, name: str = "pool") -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self._sim = sim
        self.slots = slots
        self.name = name
        self._free = slots
        self._queue: List[SlotTicket] = []
        #: Cumulative count of requests that had to wait (observability).
        self.contended_requests = 0

    @property
    def free(self) -> int:
        """Slots currently available."""
        return self._free

    @property
    def queued(self) -> int:
        """Requests waiting in line."""
        return len(self._queue)

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self.slots - self._free

    def request(self) -> SlotTicket:
        """Create a ticket; grants immediately when a slot is free."""
        ticket = SlotTicket(self)
        if self._free > 0:
            self._free -= 1
            ticket.state = "held"
        else:
            ticket._signal = Signal(self._sim)
            ticket.state = "queued"
            self._queue.append(ticket)
            self.contended_requests += 1
        return ticket

    # -- internal ----------------------------------------------------------

    def _release_one(self) -> None:
        if self._queue:
            nxt = self._queue.pop(0)
            nxt.state = "granted"
            assert nxt._signal is not None
            nxt._signal.fire()
        else:
            self._free += 1
            assert self._free <= self.slots, "slot over-release"

    def _abandon(self, ticket: SlotTicket) -> None:
        if ticket.state == "queued":
            try:
                self._queue.remove(ticket)
            except ValueError:  # pragma: no cover - defensive
                pass
        elif ticket.state in ("granted", "held"):
            # The slot was already ours; give it back (possibly handing
            # it straight to the next in line).
            self._release_one()
