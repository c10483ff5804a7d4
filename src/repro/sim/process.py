"""Generator-based simulation processes with interrupts.

A process is a Python generator driven by the kernel.  It may yield:

- :class:`Timeout` — suspend for a simulated duration;
- a bare non-negative number — shorthand for ``Timeout(n)`` that
  reuses one Timeout object per process (the hot path of the
  execution engine, which suspends at every checkpoint boundary);
- another :class:`Process` — suspend until that process terminates
  (its return value is sent back in);

and it may be interrupted at any suspension point via
:meth:`Process.interrupt`, which raises
:class:`repro.sim.errors.Interrupt` inside the generator.  This is the
mechanism failures use to preempt application execution (Sec. III-A).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Generator, List, Optional

from repro.sim.errors import Interrupt, ProcessError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Timeout:
    """A pending delay, yielded by a process.

    After the process resumes (normally or via interrupt) the attribute
    :attr:`wake_at` tells when the timeout *would have* completed, which
    lets interrupt handlers compute how much of the delay elapsed.
    """

    __slots__ = ("delay", "at", "started_at", "wake_at")

    def __init__(self, delay: float, at: Optional[float] = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.delay = delay
        #: Absolute completion time; when set, the wake event is
        #: scheduled exactly at this instant (no ``now + delay`` float
        #: round-trip).  Created by :meth:`Simulator.timeout_at`.
        self.at = at
        self.started_at: Optional[float] = None
        self.wake_at: Optional[float] = None

    def elapsed(self, now: float) -> float:
        """Simulated time spent inside this timeout as of *now*."""
        if self.started_at is None:
            return 0.0
        return max(0.0, min(now, self.wake_at or now) - self.started_at)

    def remaining(self, now: float) -> float:
        """Delay remaining as of *now* (0 if complete or not started)."""
        if self.wake_at is None:
            return self.delay
        return max(0.0, self.wake_at - now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class ProcessState(enum.Enum):
    """Lifecycle state of a kernel process."""
    CREATED = "created"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


class Process:
    """A coroutine scheduled on a :class:`repro.sim.engine.Simulator`.

    Do not instantiate directly; use :meth:`Simulator.process`.
    """

    def __init__(
        self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str
    ) -> None:
        self._sim = sim
        self._gen = generator
        self.name = name
        self.state = ProcessState.CREATED
        #: Return value of the generator once FINISHED.
        self.value: Any = None
        #: Exception that escaped the generator once FAILED.
        self.error: Optional[BaseException] = None
        self._pending_event: Optional[Event] = None
        self._pending_timeout: Optional[Timeout] = None
        #: Reused for bare-number yields so boundary-dense processes do
        #: not allocate one Timeout object per suspension.
        self._scratch_timeout: Optional[Timeout] = None
        self._joined_on: Optional["Process"] = None
        self._waiting_signal = None  # Optional[Signal]
        self._watchers: List["Process"] = []
        # Kick off the first step "immediately" (same simulated time).
        self._pending_event = sim.schedule(0.0, self._on_wake)

    # -- public API ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the generator has not terminated."""
        return self.state in (ProcessState.CREATED, ProcessState.RUNNING)

    @property
    def pending_timeout(self) -> Optional[Timeout]:
        """The Timeout this process is currently suspended on, if any."""
        return self._pending_timeout

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current
        suspension point.  The interrupt is delivered immediately (at the
        current simulated time) via a high-priority wakeup."""
        if not self.alive:
            raise ProcessError(f"cannot interrupt terminated process {self.name!r}")
        self._unlink_wait()
        # Deliver on the event loop so interrupts issued from inside an
        # event callback do not reenter the generator recursively.
        self._pending_event = self._sim.schedule(
            0.0,
            lambda _ev, c=cause: self._step(throw=Interrupt(c)),
            priority=-1,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {self.state.value}>"

    # -- kernel side ----------------------------------------------------------

    def _unlink_wait(self) -> None:
        """Detach from whatever the process is currently waiting on."""
        if self._pending_event is not None:
            self._sim.cancel(self._pending_event)
            self._pending_event = None
        if self._joined_on is not None:
            try:
                self._joined_on._watchers.remove(self)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._joined_on = None
        if self._waiting_signal is not None:
            self._waiting_signal._remove_waiter(self)
            self._waiting_signal = None
        self._pending_timeout = None

    def _on_wake(self, _event: Event) -> None:
        self._step(send=None)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        """Advance the generator one suspension point."""
        self._pending_event = None
        self._pending_timeout = None
        self._waiting_signal = None
        self.state = ProcessState.RUNNING
        try:
            if throw is not None:
                yielded = self._gen.throw(throw)
            else:
                yielded = self._gen.send(send)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt as intr:
            # An unhandled Interrupt terminates the process cleanly with
            # the interrupt cause as its error.
            self.state = ProcessState.FAILED
            self.error = intr
            self._notify_watchers()
            return
        except BaseException as exc:
            self.state = ProcessState.FAILED
            self.error = exc
            self._notify_watchers()
            raise
        self._suspend_on(yielded)

    def _suspend_on(self, yielded: Any) -> None:
        from repro.sim.resources import Signal  # local: avoid cycle

        if isinstance(yielded, Signal):
            if yielded._add_waiter(self):
                self._waiting_signal = yielded
            else:
                # Already fired: resume immediately with its value.
                value = yielded.value
                self._pending_event = self._sim.schedule(
                    0.0, lambda _ev, v=value: self._step(send=v)
                )
        elif isinstance(yielded, Timeout):
            self._suspend_on_timeout(yielded)
        elif isinstance(yielded, (int, float)) and not isinstance(yielded, bool):
            # Hot path: a bare non-negative number means "sleep that
            # many seconds" (identical semantics to yielding
            # ``sim.timeout(n)``, without the per-yield allocation).
            if yielded < 0:
                self.state = ProcessState.FAILED
                self.error = ProcessError(
                    f"process yielded negative delay {yielded}"
                )
                self._notify_watchers()
                raise self.error
            timeout = self._scratch_timeout
            if timeout is None:
                timeout = self._scratch_timeout = Timeout(0.0)
            timeout.delay = float(yielded)
            timeout.at = None
            self._suspend_on_timeout(timeout)
        elif isinstance(yielded, Process):
            if yielded.alive:
                self._joined_on = yielded
                yielded._watchers.append(self)
            else:
                # Already finished: resume immediately with its value.
                value = yielded.value
                self._pending_event = self._sim.schedule(
                    0.0, lambda _ev, v=value: self._step(send=v)
                )
        else:
            bad = type(yielded).__name__
            self.state = ProcessState.FAILED
            self.error = ProcessError(f"process yielded unsupported {bad}")
            self._notify_watchers()
            raise self.error

    def _suspend_on_timeout(self, timeout: Timeout) -> None:
        sim = self._sim
        timeout.started_at = sim.now
        self._pending_timeout = timeout
        if timeout.at is not None:
            timeout.wake_at = timeout.at
            self._pending_event = sim.schedule_at(timeout.at, self._on_wake)
        else:
            timeout.wake_at = sim.now + timeout.delay
            self._pending_event = sim.schedule(timeout.delay, self._on_wake)

    def _finish(self, value: Any) -> None:
        self.state = ProcessState.FINISHED
        self.value = value
        self._notify_watchers()

    def _notify_watchers(self) -> None:
        watchers, self._watchers = self._watchers, []
        for watcher in watchers:
            watcher._joined_on = None
            if self.state is ProcessState.FINISHED:
                value = self.value
                watcher._pending_event = self._sim.schedule(
                    0.0, lambda _ev, w=watcher, v=value: w._step(send=v)
                )
            else:
                error = self.error
                watcher._pending_event = self._sim.schedule(
                    0.0,
                    lambda _ev, w=watcher, e=error: w._step(
                        throw=ProcessError(f"joined process failed: {e!r}")
                    ),
                )
