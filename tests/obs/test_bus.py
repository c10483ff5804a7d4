"""Unit tests for the instrumentation EventBus."""

from repro.obs.bus import EventBus
from repro.obs.events import CheckpointTaken, FailureInjected, TrialStarted


def _failure(app_id=1, time=1.0):
    return FailureInjected(time=time, app_id=app_id, node_id=0, severity=1)


class TestSubscribe:
    def test_by_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(FailureInjected, seen.append)
        event = _failure()
        bus.publish(event)
        assert seen == [event]

    def test_by_type_ignores_other_types(self):
        bus = EventBus()
        seen = []
        bus.subscribe(CheckpointTaken, seen.append)
        bus.publish(_failure())
        assert seen == []

    def test_keyed_dispatches_only_matching_app(self):
        bus = EventBus()
        seen = []
        bus.subscribe_key(FailureInjected, 7, seen.append)
        bus.publish(_failure(app_id=7))
        bus.publish(_failure(app_id=8))
        assert [e.app_id for e in seen] == [7]

    def test_keyed_skips_events_without_app_id(self):
        bus = EventBus()
        seen = []
        bus.subscribe_key(TrialStarted, None, seen.append)
        # TrialStarted has app_id=None -> never keyed-dispatched.
        bus.publish(TrialStarted(time=0.0, scope="single_app"))
        assert seen == []

    def test_subscribe_all_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        bus.publish(_failure())
        bus.publish(TrialStarted(time=0.0, scope="single_app"))
        assert len(seen) == 2

    def test_all_handlers_fire_for_one_event(self):
        bus = EventBus()
        hits = []
        bus.subscribe_all(lambda e: hits.append("all"))
        bus.subscribe(FailureInjected, lambda e: hits.append("typed"))
        bus.subscribe_key(FailureInjected, 1, lambda e: hits.append("keyed"))
        bus.publish(_failure(app_id=1))
        assert hits == ["all", "typed", "keyed"]


class TestActivation:
    def test_empty_bus_has_no_subscribers(self):
        bus = EventBus()
        assert not bus.has_subscribers
        assert bus.subscriber_count() == 0
        bus.publish(_failure())  # no-op, must not raise

    def test_subscriber_count_spans_channels(self):
        bus = EventBus()
        bus.subscribe_all(lambda e: None)
        bus.subscribe(FailureInjected, lambda e: None)
        bus.subscribe_key(FailureInjected, 1, lambda e: None)
        assert bus.subscriber_count() == 3
        assert bus.has_subscribers

