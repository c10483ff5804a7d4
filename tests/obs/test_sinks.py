"""Unit tests for the shipped bus sinks."""

import dataclasses
import io
import json

import pytest

from repro.obs.bus import EventBus
from repro.obs.events import (
    ALL_EVENT_TYPES,
    ActivitySpan,
    CheckpointFailed,
    CheckpointTaken,
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
    MetricsSink,
    RecordingSink,
    TimelineSink,
    event_record,
    event_to_jsonl,
)


def _span(app_id=1, technique="t", activity="work", start=0.0, end=5.0):
    return ActivitySpan(
        time=end,
        app_id=app_id,
        technique=technique,
        activity=activity,
        start=start,
        end=end,
    )


class TestRecordingSink:
    def test_records_in_order_and_filters_by_type(self):
        bus = EventBus()
        sink = RecordingSink()
        sink.attach(bus)
        f = FailureInjected(time=1.0, app_id=1, node_id=0, severity=1)
        s = _span()
        bus.publish(f)
        bus.publish(s)
        assert sink.events == [f, s]
        assert sink.of_type(ActivitySpan) == [s]


class TestTimelineSink:
    def test_collects_spans_as_tuples(self):
        bus = EventBus()
        sink = TimelineSink()
        sink.attach(bus)
        bus.publish(_span(start=0.0, end=3.0))
        bus.publish(_span(activity="checkpoint", start=3.0, end=4.0))
        assert sink.spans == [(0.0, 3.0, "work"), (3.0, 4.0, "checkpoint")]

    def test_app_filter(self):
        bus = EventBus()
        sink = TimelineSink(app_id=1)
        sink.attach(bus)
        bus.publish(_span(app_id=1))
        bus.publish(_span(app_id=2))
        assert len(sink.spans) == 1


class TestMetricsSink:
    def _populated(self):
        bus = EventBus()
        sink = MetricsSink()
        sink.attach(bus)
        bus.publish(FailureInjected(time=1.0, app_id=1, node_id=0, severity=1))
        bus.publish(_span(technique="cr", activity="work", start=0.0, end=10.0))
        bus.publish(_span(technique="cr", activity="work", start=12.0, end=15.0))
        bus.publish(_span(technique="cr", activity="restart", start=10.0, end=12.0))
        return sink

    def test_counts_and_activity(self):
        sink = self._populated()
        assert sink.count(FailureInjected) == 1
        assert sink.count(ActivitySpan) == 3
        assert sink.activity_seconds("cr", "work") == 13.0
        assert sink.activity_seconds("cr", "restart") == 2.0
        assert sink.activity_seconds("cr", "checkpoint") == 0.0

    def test_to_dict_roundtrips_through_merge(self):
        payload = self._populated().to_dict()
        merged = MetricsSink()
        merged.merge(payload)
        merged.merge(payload)
        assert merged.count(FailureInjected) == 2
        assert merged.activity_seconds("cr", "work") == 26.0

    def test_to_dict_is_json_serialisable_and_sorted(self):
        payload = self._populated().to_dict()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload


class TestJsonlExport:
    def test_event_to_jsonl_deterministic(self):
        event = FailureInjected(time=1.5, app_id=3, node_id=7, severity=2)
        line = event_to_jsonl(event)
        assert line == event_to_jsonl(event)
        record = json.loads(line)
        assert record == {
            "event": "FailureInjected",
            "time": 1.5,
            "app_id": 3,
            "node_id": 7,
            "severity": 2,
            "width": 1,
        }

    def test_export_sink_collects_and_writes(self):
        bus = EventBus()
        sink = JsonlExportSink()
        sink.attach(bus)
        bus.publish(JobDropped(time=5.0, app_id=1, reason="scheduler"))
        bus.publish(
            CheckpointTaken(
                time=6.0, app_id=1, technique="cr", level_index=0, position=3.0
            )
        )
        assert len(sink.lines) == 2
        buffer = io.StringIO()
        assert sink.write(buffer) == 2
        parsed = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [p["event"] for p in parsed] == ["JobDropped", "CheckpointTaken"]


#: One event of every type with its exact export line: long floats,
#: exponents, bools, negative zero and default ``None`` fields.
GOLDEN = [
    (
        ExecutionStarted(time=0.1 + 0.2, app_id=3, technique="multilevel"),
        '{"app_id":3,"event":"ExecutionStarted","technique":"multilevel",'
        '"time":0.30000000000000004}',
    ),
    (
        ExecutionCompleted(time=86400.00000000001, app_id=3, technique="multilevel"),
        '{"app_id":3,"event":"ExecutionCompleted","technique":"multilevel",'
        '"time":86400.00000000001}',
    ),
    (
        FailureInjected(time=1234.5678901234567, app_id=3, node_id=-1, severity=2),
        '{"app_id":3,"event":"FailureInjected","node_id":-1,"severity":2,'
        '"time":1234.5678901234567,"width":1}',
    ),
    (
        ReplicaAbsorbed(
            time=2.0 / 3.0, app_id=7, technique="redundancy", degraded_virtual_nodes=4
        ),
        '{"app_id":7,"degraded_virtual_nodes":4,"event":"ReplicaAbsorbed",'
        '"technique":"redundancy","time":0.6666666666666666}',
    ),
    (
        RestartStarted(
            time=1e-7,
            app_id=3,
            technique="checkpoint_restart",
            severity=3,
            level_index=1,
            retry=True,
        ),
        '{"app_id":3,"event":"RestartStarted","level_index":1,"retry":true,'
        '"severity":3,"technique":"checkpoint_restart","time":1e-07}',
    ),
    (
        RecoveryCompleted(
            time=1.5e300,
            app_id=3,
            technique="parallel_recovery",
            level_index=0,
            position=123456789.12345679,
        ),
        '{"app_id":3,"event":"RecoveryCompleted","level_index":0,'
        '"position":123456789.12345679,"technique":"parallel_recovery",'
        '"time":1.5e+300}',
    ),
    (
        CheckpointTaken(
            time=3600.0, app_id=0, technique="multilevel", level_index=2, position=1e16
        ),
        '{"app_id":0,"event":"CheckpointTaken","level_index":2,"position":1e+16,'
        '"technique":"multilevel","time":3600.0}',
    ),
    (
        CheckpointFailed(time=5e-324, app_id=0, technique="multilevel", level_index=1),
        '{"app_id":0,"event":"CheckpointFailed","level_index":1,'
        '"technique":"multilevel","time":5e-324}',
    ),
    (
        ActivitySpan(
            time=110.00000000000001,
            app_id=1,
            technique="message_logging",
            activity="recovery",
            start=100.0,
            end=110.00000000000001,
        ),
        '{"activity":"recovery","app_id":1,"end":110.00000000000001,'
        '"event":"ActivitySpan","start":100.0,"technique":"message_logging",'
        '"time":110.00000000000001}',
    ),
    (
        JobArrived(time=0.0, app_id=12, nodes=30000),
        '{"app_id":12,"event":"JobArrived","is_fill":false,"nodes":30000,'
        '"time":0.0}',
    ),
    (
        JobMapped(
            time=17.25, app_id=12, nodes=30000, technique="multilevel", is_fill=True
        ),
        '{"app_id":12,"event":"JobMapped","is_fill":true,"nodes":30000,'
        '"technique":"multilevel","time":17.25}',
    ),
    (
        JobDropped(time=99.99999999999999, app_id=12, reason="deadline_miss"),
        '{"app_id":12,"event":"JobDropped","is_fill":false,'
        '"reason":"deadline_miss","time":99.99999999999999}',
    ),
    (
        JobCompleted(time=-0.0, app_id=12, met_deadline=False, is_fill=True),
        '{"app_id":12,"event":"JobCompleted","is_fill":true,"met_deadline":false,'
        '"time":-0.0}',
    ),
    (
        TrialStarted(time=0.0, scope="single_app"),
        '{"app_id":null,"event":"TrialStarted","scope":"single_app",'
        '"technique":null,"time":0.0,"trial":null}',
    ),
    (
        TrialFinished(
            time=7.000000000000001,
            scope="datacenter",
            technique="multilevel",
            trial=4,
            completed=False,
        ),
        '{"app_id":null,"completed":false,"event":"TrialFinished",'
        '"scope":"datacenter","technique":"multilevel","time":7.000000000000001,'
        '"trial":4}',
    ),
]


class TestGoldenExport:
    def test_covers_every_event_type(self):
        assert [type(event) for event, _ in GOLDEN] == list(ALL_EVENT_TYPES)

    @pytest.mark.parametrize(
        "event,line", GOLDEN, ids=[type(event).__name__ for event, _ in GOLDEN]
    )
    def test_exact_bytes_and_record(self, event, line):
        assert event_to_jsonl(event) == line
        record = event_record(event)
        assert record == json.loads(line)
        assert list(record) == [
            "event",
            *(f.name for f in dataclasses.fields(event)),
        ]
