"""Unit tests for repro.sim.events."""

from repro.sim.events import DEFAULT_PRIORITY, Event, FAILURE_PRIORITY


def _noop(_event):
    pass


class TestEventOrdering:
    def test_earlier_time_sorts_first(self):
        a = Event(1.0, _noop, seq=1)
        b = Event(2.0, _noop, seq=2)
        assert a < b

    def test_priority_breaks_time_ties(self):
        failure = Event(5.0, _noop, priority=FAILURE_PRIORITY, seq=2)
        wake = Event(5.0, _noop, priority=DEFAULT_PRIORITY, seq=1)
        assert failure < wake

    def test_seq_breaks_full_ties(self):
        a = Event(5.0, _noop, seq=1)
        b = Event(5.0, _noop, seq=2)
        assert a < b

    def test_sort_key_shape(self):
        e = Event(3.0, _noop, priority=2, seq=7)
        assert e.sort_key == (3.0, 2, 7)


class TestEventCancellation:
    def test_cancel_sets_flag(self):
        e = Event(1.0, _noop)
        assert not e.cancelled
        e.cancel()
        assert e.cancelled

    def test_cancel_is_idempotent(self):
        e = Event(1.0, _noop)
        e.cancel()
        e.cancel()
        assert e.cancelled


class TestEventKind:
    def test_failure_priority_beats_default(self):
        assert FAILURE_PRIORITY < DEFAULT_PRIORITY
