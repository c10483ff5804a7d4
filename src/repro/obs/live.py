"""Thread-local live-sink activation for in-flight simulations.

The telemetry subsystem (:mod:`repro.telemetry`) needs the domain
events of a *running* job — failure injections, checkpoints, restarts
— while the job is still in flight.  Those events exist only on each
simulation's own :class:`repro.obs.bus.EventBus`, and a handler on a
bus makes every domain event of that simulation pay for its
serialisation (a datacenter trial also buffers its events to publish
them in one order at the trial's end).  Blanket instrumentation would
therefore tax every simulation in the process.  It never changes the
execution path: watched and unwatched trials take the same fast path.

This module threads the needle: a worker activates live sinks *for the
current thread only* around one job's execution, and the simulation
entry points (:func:`repro.core.single_app.simulate_plan`,
:func:`repro.core.datacenter.run_datacenter`) attach whatever
:func:`current_sinks` returns to each new trial's bus.  When nothing
is activated — the overwhelmingly common case — the lookup is one
thread-local attribute read and the bus stays without subscribers, so
unwatched trials build no events at all.  A single-app trial streams
its events as they happen; a datacenter trial streams them when it
ends.

Activation is thread-local by design: the service's executor threads
run one job each, so activating around :meth:`repro.service.jobs
.JobSpec.execute` scopes the sinks to exactly that job's trials.
(Forked ``jobs>1`` worker processes do not inherit the activation;
live simulation events stream only for ``jobs=1`` runs, which is the
service default — lifecycle events are unaffected.)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Tuple

_TLS = threading.local()


def current_sinks() -> Tuple:
    """The sinks activated for the calling thread (usually empty)."""
    return getattr(_TLS, "sinks", ())


@contextmanager
def activated(*sinks) -> Iterator[None]:
    """Attach *sinks* to every simulation this thread starts while the
    context is open.  ``None`` entries are ignored; nesting stacks."""
    previous = current_sinks()
    _TLS.sinks = previous + tuple(s for s in sinks if s is not None)
    try:
        yield
    finally:
        _TLS.sinks = previous


def attach_current(bus) -> None:
    """Attach the calling thread's activated sinks (if any) to *bus*.

    Called by the simulation entry points on each fresh bus; a no-op
    (one thread-local read) when nothing is activated, so unwatched
    trials keep a bus with no subscribers.
    """
    sinks = current_sinks()
    if sinks:
        for sink in sinks:
            sink.attach(bus)
