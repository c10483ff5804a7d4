"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import SchedulingError


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_order(self, sim):
        order = []
        sim.schedule(2.0, lambda _e: order.append("b"))
        sim.schedule(1.0, lambda _e: order.append("a"))
        sim.run()
        assert order == ["a", "b"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(3.5, lambda _e: times.append(sim.now))
        sim.run()
        assert times == [3.5]
        assert sim.now == 3.5

    def test_schedule_in_past_raises(self, sim):
        sim.schedule(1.0, lambda _e: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda _e: None)

    def test_schedule_nonfinite_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda _e: None)
        with pytest.raises(SchedulingError):
            sim.schedule(float("nan"), lambda _e: None)

    def test_nested_scheduling_from_callback(self, sim):
        seen = []

        def outer(_e):
            sim.schedule(1.0, lambda _e2: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [2.0]

    def test_zero_delay_event_runs_at_same_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda _e: sim.schedule(0.0, lambda _e2: seen.append(sim.now)))
        sim.run()
        assert seen == [5.0]


class TestRunControl:
    def test_run_until_stops_clock_at_until(self, sim):
        sim.schedule(10.0, lambda _e: None)
        stopped = sim.run(until=4.0)
        assert stopped == 4.0
        assert sim.pending == 1  # the event is still there

    def test_run_until_executes_events_at_until(self, sim):
        seen = []
        sim.schedule(4.0, lambda _e: seen.append("x"))
        sim.run(until=4.0)
        assert seen == ["x"]

    def test_max_events(self, sim):
        seen = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda _e, i=i: seen.append(i))
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_event_count(self, sim):
        sim.schedule(1.0, lambda _e: None)
        sim.schedule(2.0, lambda _e: None)
        sim.run()
        assert sim.event_count == 2

    def test_run_not_reentrant(self, sim):
        def recurse(_e):
            with pytest.raises(SchedulingError):
                sim.run()

        sim.schedule(1.0, recurse)
        sim.run()


class TestCancel:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        ev = sim.schedule(1.0, lambda _e: seen.append("x"))
        sim.cancel(ev)
        sim.run()
        assert seen == []

    def test_double_cancel_is_safe(self, sim):
        ev = sim.schedule(1.0, lambda _e: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending == 0

    def test_cancel_after_execution_keeps_count_accurate(self, sim):
        # Regression: cancelling an event that already ran used to
        # decrement the queue's live count, driving it negative and
        # making `sim.pending` lie about later events.
        ev = sim.schedule(1.0, lambda _e: None)
        sim.run()
        sim.cancel(ev)
        assert sim.pending == 0
        sim.schedule(2.0, lambda _e: None)
        assert sim.pending == 1

    def test_cancel_never_queued_event_keeps_count_accurate(self, sim):
        from repro.sim.events import Event

        loose = Event(1.0, lambda _e: None, seq=0)
        sim.cancel(loose)
        assert loose.cancelled
        assert sim.pending == 0
        sim.schedule(1.0, lambda _e: None)
        assert sim.pending == 1

    def test_cancel_decrements_once_for_queued_event(self, sim):
        keeper = sim.schedule(2.0, lambda _e: None)
        doomed = sim.schedule(1.0, lambda _e: None)
        sim.cancel(doomed)
        sim.cancel(doomed)
        assert sim.pending == 1
        sim.run()
        assert not keeper.cancelled


class TestTimeoutAt:
    def test_wakes_exactly_at_absolute_time(self, sim):
        times = []

        def body():
            yield sim.timeout_at(7.25)
            times.append(sim.now)

        sim.process(body())
        sim.run()
        assert times == [7.25]

    def test_past_time_clamps_to_zero_delay(self, sim):
        sim.schedule(5.0, lambda _e: None)
        sim.run()
        times = []

        def body():
            yield sim.timeout_at(1.0)  # already in the past
            times.append(sim.now)

        sim.process(body())
        sim.run()
        assert times == [5.0]

    def test_wake_at_is_the_absolute_time(self, sim):
        captured = {}

        def body():
            t = sim.timeout_at(3.0)
            captured["t"] = t
            yield t

        sim.process(body())
        sim.run(until=1.0)
        assert captured["t"].wake_at == 3.0


class TestRunUntilEmpty:
    def test_drains_queue(self, sim):
        seen = []
        for i in range(4):
            sim.schedule(float(i), lambda _e, i=i: seen.append(i))
        end = sim.run_until_empty()
        assert seen == [0, 1, 2, 3]
        assert end == 3.0
        assert sim.pending == 0

    def test_max_events_guard(self, sim):
        def reschedule(_e):
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        sim.run_until_empty(max_events=25)
        assert sim.event_count == 25
