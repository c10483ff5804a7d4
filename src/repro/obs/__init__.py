"""Unified instrumentation bus: typed domain events with pluggable
metric/trace/export sinks.

Every layer of the simulator publishes typed, frozen dataclass events
through one :class:`EventBus` — the kernel forwards executed events to
kernel taps, the resilient-execution engine emits its lifecycle
(failures, checkpoints, restarts, activity spans), and the datacenter
mapping loop emits job decisions.  Sinks subscribe at a single point
instead of each feature growing its own ad-hoc counters.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, the sink API,
and how to write a custom sink.
"""

from repro.obs.bus import EventBus
from repro.obs.counters import counter_value
from repro.obs.events import (
    ALL_EVENT_TYPES,
    ActivitySpan,
    CheckpointFailed,
    CheckpointTaken,
    DomainEvent,
    ExecutionCompleted,
    ExecutionStarted,
    FailureInjected,
    JobArrived,
    JobCompleted,
    JobDropped,
    JobMapped,
    RecoveryCompleted,
    ReplicaAbsorbed,
    RestartStarted,
    TrialFinished,
    TrialStarted,
)
from repro.obs.sinks import (
    JsonlExportSink,
    LiveEventSink,
    MetricsSink,
    RecordingSink,
    Sink,
    TimelineSink,
    TraceSink,
    event_record,
    event_to_jsonl,
)

__all__ = [
    "ALL_EVENT_TYPES",
    "ActivitySpan",
    "CheckpointFailed",
    "CheckpointTaken",
    "DomainEvent",
    "EventBus",
    "ExecutionCompleted",
    "ExecutionStarted",
    "FailureInjected",
    "JobArrived",
    "JobCompleted",
    "JobDropped",
    "JobMapped",
    "JsonlExportSink",
    "LiveEventSink",
    "MetricsSink",
    "RecordingSink",
    "RecoveryCompleted",
    "ReplicaAbsorbed",
    "RestartStarted",
    "Sink",
    "TimelineSink",
    "TraceSink",
    "TrialFinished",
    "TrialStarted",
    "counter_value",
    "event_record",
    "event_to_jsonl",
]
