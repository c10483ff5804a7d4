"""Typed domain events for the instrumentation bus.

Every observable decision in the simulator — a failure striking an
application, a checkpoint committing, the datacenter mapping loop
starting or dropping a job — is published as one of these frozen
dataclasses on an :class:`repro.obs.bus.EventBus`.  Sinks subscribe by
event *type* (optionally filtered by ``app_id``) and never feed back
into the simulation: instrumentation is passive, so any sink
configuration (including none) produces bit-identical results.

Conventions
-----------
- ``time`` is the simulated time of the event in seconds (never wall
  time, so exported event streams are deterministic).
- ``app_id`` identifies the application the event concerns; events
  without an application scope (none currently) would use ``None``.
- Events are immutable; publishing the same object to several buses is
  safe.

The taxonomy extends Sec. III-A of the paper (arrival, mapping,
computation, failure, checkpoint, restart, recovery) with the
datacenter job lifecycle and experiment-harness trial markers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple


#: Event class -> its dataclass field names, in declaration order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


@dataclass(frozen=True)
class DomainEvent:
    """Base class: every domain event has a simulated time."""

    time: float

    def to_record(self) -> Dict[str, Any]:
        """Plain-data form used by export sinks (JSON-serialisable)."""
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
        record: Dict[str, Any] = {"event": cls.__name__}
        for name in names:
            record[name] = getattr(self, name)
        return record


# ---------------------------------------------------------------------------
# Execution-engine events (one resilient application execution)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionStarted(DomainEvent):
    """An application began executing under a resilience plan."""

    app_id: int
    technique: str


@dataclass(frozen=True)
class ExecutionCompleted(DomainEvent):
    """An application committed all of its effective work."""

    app_id: int
    technique: str


@dataclass(frozen=True)
class FailureInjected(DomainEvent):
    """A failure was delivered to a live application process.

    Published by :class:`~repro.core.execution.ResilientExecution` at
    every point an interrupt can land (the main handler plus the two
    mid-restart catch sites), so the event count equals the failures
    the execution actually observed — including failures that strike
    mid-restart — regardless of which driver delivered them.
    """

    app_id: int
    node_id: int
    severity: int
    width: int = 1


@dataclass(frozen=True)
class ReplicaAbsorbed(DomainEvent):
    """Redundancy absorbed a failure without interrupting execution."""

    app_id: int
    technique: str
    #: Virtual nodes currently degraded to a single replica.
    degraded_virtual_nodes: int


@dataclass(frozen=True)
class RestartStarted(DomainEvent):
    """A restart attempt began.

    ``retry`` is False for the first attempt after a failure and True
    when a further failure interrupted an in-progress restart (the
    engine restarts the restart from the worst severity seen).
    """

    app_id: int
    technique: str
    severity: int
    level_index: int
    retry: bool = False


@dataclass(frozen=True)
class RecoveryCompleted(DomainEvent):
    """A restart finished: state restored, execution resumes."""

    app_id: int
    technique: str
    level_index: int
    #: Work position (effective-work seconds) restored from the level.
    position: float


@dataclass(frozen=True)
class CheckpointTaken(DomainEvent):
    """A checkpoint committed at one hierarchy level."""

    app_id: int
    technique: str
    level_index: int
    #: Work position (effective-work seconds) the checkpoint captured.
    position: float


@dataclass(frozen=True)
class CheckpointFailed(DomainEvent):
    """A checkpoint was abandoned (failure mid-checkpoint, or a
    semi-blocking commit voided before its cost elapsed)."""

    app_id: int
    technique: str
    level_index: int


@dataclass(frozen=True)
class ActivitySpan(DomainEvent):
    """A contiguous span of wall time spent in one engine activity.

    ``activity`` is one of ``work``, ``recovery``, ``checkpoint``,
    ``restart``, ``wait`` (the :mod:`repro.core.timeline` row set).
    ``time`` equals ``end``; spans are published as they close.
    """

    app_id: int
    technique: str
    activity: str
    start: float
    end: float

    @property
    def wall_s(self) -> float:
        """Seconds covered by the span."""
        return self.end - self.start


# ---------------------------------------------------------------------------
# Datacenter job-lifecycle events (Sec. VI/VII)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobArrived(DomainEvent):
    """An application entered the pending queue."""

    app_id: int
    nodes: int
    is_fill: bool = False


@dataclass(frozen=True)
class JobMapped(DomainEvent):
    """The resource manager started an application."""

    app_id: int
    nodes: int
    technique: str
    is_fill: bool = False


@dataclass(frozen=True)
class JobDropped(DomainEvent):
    """An application counted toward the dropped percentage.

    ``reason`` is ``"scheduler"`` (removed at a mapping event, by the
    system deadline rule or a dropping policy), ``"horizon"``
    (unresolved when the simulation horizon closed), or
    ``"deadline_miss"`` (completed, but after its deadline).  The
    per-run count of these events for non-fill jobs equals the
    numerator of the Figs. 4-5 dropped percentage.
    """

    app_id: int
    reason: str
    is_fill: bool = False


@dataclass(frozen=True)
class JobCompleted(DomainEvent):
    """An application ran to completion (deadline met or not)."""

    app_id: int
    met_deadline: bool
    is_fill: bool = False


# ---------------------------------------------------------------------------
# Experiment-harness events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialStarted(DomainEvent):
    """One simulation began (``scope``: ``single_app``/``datacenter``).

    Published on the simulation's own bus so export sinks see trial
    boundaries (the entry points count trials in
    :mod:`repro.obs.counters` separately).
    ``time`` is always 0.0: trials start at simulated time zero and
    wall times would break stream determinism.
    """

    scope: str
    app_id: Optional[int] = None
    technique: Optional[str] = None
    trial: Optional[int] = None


@dataclass(frozen=True)
class TrialFinished(DomainEvent):
    """One simulation ended; ``time`` is the final simulated time."""

    scope: str
    app_id: Optional[int] = None
    technique: Optional[str] = None
    trial: Optional[int] = None
    completed: bool = True


#: Every public event type, for sinks that subscribe to the full set.
ALL_EVENT_TYPES: Tuple[type, ...] = (
    ExecutionStarted,
    ExecutionCompleted,
    FailureInjected,
    ReplicaAbsorbed,
    RestartStarted,
    RecoveryCompleted,
    CheckpointTaken,
    CheckpointFailed,
    ActivitySpan,
    JobArrived,
    JobMapped,
    JobDropped,
    JobCompleted,
    TrialStarted,
    TrialFinished,
)
