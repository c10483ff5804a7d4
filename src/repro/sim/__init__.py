"""Discrete-event simulation kernel (built from scratch; SimPy-like).

Public surface::

    sim = Simulator()
    proc = sim.process(my_generator())
    sim.run(until=3600.0)
"""

from repro.sim.engine import Simulator
from repro.sim.errors import Interrupt, ProcessError, SchedulingError, SimulationError
from repro.sim.events import Event, FAILURE_PRIORITY
from repro.sim.process import Process, ProcessState, Timeout
from repro.sim.queue import EventQueue
from repro.sim.resources import Signal, SlotPool, SlotTicket

__all__ = [
    "Event",
    "EventQueue",
    "FAILURE_PRIORITY",
    "Interrupt",
    "Process",
    "ProcessError",
    "ProcessState",
    "SchedulingError",
    "Signal",
    "SimulationError",
    "SlotPool",
    "SlotTicket",
    "Simulator",
    "Timeout",
]
