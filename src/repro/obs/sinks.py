"""Pluggable sinks for the instrumentation bus.

A sink is anything with an ``attach(bus)`` method that registers its
handlers on an :class:`repro.obs.bus.EventBus`.  Sinks are passive:
they observe the event stream and never feed back into the simulation,
so attaching any combination of them (including none) produces
bit-identical simulation results and leaves the engine on the same
execution path.  A sink attached through a trial entry point
(:func:`repro.core.single_app.simulate_application`,
:func:`repro.core.datacenter.run_datacenter`) receives the same stream
on the fast and the stepped path.

Shipped sinks:

- :class:`RecordingSink` — keeps every event in order (testing aid).
- :class:`MetricsSink` — event counters plus time-in-activity totals
  per technique and per application.
- :class:`TimelineSink` — collects ``(start, end, activity)`` spans
  consumable by :func:`repro.core.timeline.render_timeline`.
- :class:`JsonlExportSink` — serialises every domain event to JSON
  Lines for machine-readable trace dumps (the CLI's ``--trace-out``).

A sink may be attached to many buses over its lifetime (e.g. one sink
accumulating across every trial of an experiment cell).

Writing a custom sink::

    class DropLogger(Sink):
        def __init__(self):
            self.drops = []
        def attach(self, bus):
            bus.subscribe(JobDropped, self.drops.append)
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, List, Optional, TextIO, Tuple

from repro.obs.bus import EventBus
from repro.obs.events import ActivitySpan, DomainEvent


class Sink:
    """Base class for bus sinks (duck-typed; subclassing is optional)."""

    def attach(self, bus: EventBus) -> None:
        """Register this sink's handlers on *bus*."""
        raise NotImplementedError


class RecordingSink(Sink):
    """Collects every domain event in publication order (testing aid)."""

    def __init__(self) -> None:
        self.events: List[DomainEvent] = []

    def attach(self, bus: EventBus) -> None:
        """Record every event published on *bus*, in order."""
        bus.subscribe_all(self.events.append)

    def of_type(self, *event_types: type) -> List[DomainEvent]:
        """The recorded events that are instances of *event_types*."""
        return [e for e in self.events if isinstance(e, event_types)]


class TimelineSink(Sink):
    """Collects engine activity spans for timeline rendering.

    ``spans`` grows in publication order as ``(start, end, activity)``
    tuples — exactly the input of
    :func:`repro.core.timeline.render_timeline`.  With ``app_id`` set,
    only that application's spans are kept (needed when many jobs
    share one datacenter bus).
    """

    def __init__(self, app_id: Optional[Hashable] = None) -> None:
        self.app_id = app_id
        self.spans: List[Tuple[float, float, str]] = []

    def attach(self, bus: EventBus) -> None:
        """Collect activity spans (all apps, or just ``app_id``)."""
        if self.app_id is None:
            bus.subscribe(ActivitySpan, self._on_span)
        else:
            bus.subscribe_key(ActivitySpan, self.app_id, self._on_span)

    def _on_span(self, event: ActivitySpan) -> None:
        self.spans.append((event.start, event.end, event.activity))


class MetricsSink(Sink):
    """Counters and time-in-activity histograms over the event stream.

    - ``counts`` — events seen, keyed by event class name;
    - ``counts_by_technique`` — the same, split per technique (for
      events that carry one);
    - ``activity_s_by_technique`` / ``activity_s_by_app`` — wall
      seconds per engine activity (work/recovery/checkpoint/restart/
      wait), keyed by technique or application id.

    One sink may accumulate across many runs (attach it to each bus).
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.counts_by_technique: Dict[str, Dict[str, int]] = {}
        self.activity_s_by_technique: Dict[str, Dict[str, float]] = {}
        self.activity_s_by_app: Dict[Hashable, Dict[str, float]] = {}

    def attach(self, bus: EventBus) -> None:
        """Count every event published on *bus*."""
        bus.subscribe_all(self._on_event)

    def _on_event(self, event: DomainEvent) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        technique = getattr(event, "technique", None)
        if technique is not None:
            per = self.counts_by_technique.setdefault(technique, {})
            per[name] = per.get(name, 0) + 1
        if isinstance(event, ActivitySpan):
            wall = event.end - event.start
            if technique is not None:
                hist = self.activity_s_by_technique.setdefault(technique, {})
                hist[event.activity] = hist.get(event.activity, 0.0) + wall
            hist = self.activity_s_by_app.setdefault(event.app_id, {})
            hist[event.activity] = hist.get(event.activity, 0.0) + wall

    def count(self, event_type: type) -> int:
        """Events of *event_type* seen so far."""
        return self.counts.get(event_type.__name__, 0)

    def activity_seconds(self, technique: str, activity: str) -> float:
        """Total seconds one technique spent in one activity."""
        return self.activity_s_by_technique.get(technique, {}).get(activity, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-data form (the CLI's ``--metrics-out``)."""

        def sorted_nested(d: Dict) -> Dict:
            return {
                str(k): dict(sorted(v.items())) for k, v in sorted(d.items())
            }

        return {
            "counts": dict(sorted(self.counts.items())),
            "counts_by_technique": sorted_nested(self.counts_by_technique),
            "activity_s_by_technique": sorted_nested(
                self.activity_s_by_technique
            ),
            "activity_s_by_app": sorted_nested(self.activity_s_by_app),
        }

    def merge(self, other: Dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` payload into this sink (the parallel
        executor merges per-cell metrics back in cell order)."""

        def merge_counts(mine: Dict, theirs: Dict) -> None:
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0 if isinstance(value, int) else 0.0) + value

        merge_counts(self.counts, other.get("counts", {}))
        for outer_name, mine in (
            ("counts_by_technique", self.counts_by_technique),
            ("activity_s_by_technique", self.activity_s_by_technique),
            ("activity_s_by_app", self.activity_s_by_app),
        ):
            for key, inner in other.get(outer_name, {}).items():
                merge_counts(mine.setdefault(key, {}), inner)


#: The one encoder behind every exported line (``json.dumps`` with
#: these arguments would build a new encoder per event).  ``str`` covers
#: the few non-JSON types events carry.
_ENCODER = json.JSONEncoder(sort_keys=True, default=str, separators=(",", ":"))


def event_to_jsonl(event: DomainEvent) -> str:
    """One deterministic JSON line for *event* (sorted keys; simulated
    times only, so identical runs export identical bytes)."""
    return _ENCODER.encode(event.to_record())


def event_record(event: DomainEvent) -> Dict[str, Any]:
    """A JSON-safe plain-data record of *event* (the :meth:`DomainEvent
    .to_record` form with the few non-JSON field types normalised) —
    what the telemetry feed ships over the wire."""
    record = event.to_record()
    return {
        key: (
            value
            if value is None or isinstance(value, (bool, int, float, str))
            else str(value)
        )
        for key, value in record.items()
    }


class LiveEventSink(Sink):
    """Feeds every domain event of a running simulation to a callable.

    The telemetry layer activates one of these around a watched job's
    execution (:mod:`repro.obs.live`): *emit* receives ``(kind,
    record)`` where ``kind`` is the event class name prefixed with
    ``sim.`` and ``record`` is the JSON-safe :func:`event_record` form.
    *emit* must never raise and never block — the hub's ring append
    and the agent-side forwarder's bounded ``offer`` both satisfy that
    — because it runs inline on the simulation thread.

    *skip* names event classes to drop before serialisation.  The
    telemetry layer uses it to keep per-segment ``ActivitySpan`` and
    per-interval ``CheckpointTaken`` chatter (tens of thousands of
    events per trial) out of the live feed while still shipping every
    lifecycle, failure, restart, and recovery event.
    """

    def __init__(self, emit: Any, skip: Tuple[str, ...] = ()) -> None:
        self.emit = emit
        self.skip = frozenset(skip)

    def attach(self, bus: EventBus) -> None:
        """Forward every event published on *bus* to ``emit``."""
        bus.subscribe_all(self._on_event)

    def _on_event(self, event: DomainEvent) -> None:
        name = type(event).__name__
        if name in self.skip:
            return
        self.emit(f"sim.{name}", event_record(event))


class JsonlExportSink(Sink):
    """Serialises every domain event as one JSON line.

    Lines accumulate in ``lines`` (publication order); call
    :meth:`write` to dump them to a stream, or read them back with any
    JSONL consumer.  Determinism: records contain only simulated times
    and event fields, so serial, parallel, and cached-then-replayed
    runs of the same study export byte-identical streams.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []

    def attach(self, bus: EventBus) -> None:
        """Serialize every event published on *bus* to a JSONL line."""
        bus.subscribe_all(self._on_event)

    def _on_event(self, event: DomainEvent) -> None:
        self.lines.append(event_to_jsonl(event))

    def write(self, stream: TextIO) -> int:
        """Write all lines to *stream*; returns the number written."""
        for line in self.lines:
            stream.write(line)
            stream.write("\n")
        return len(self.lines)
