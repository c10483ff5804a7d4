"""The job store narrates: one lifecycle event per committed transition."""

import pytest

from repro.service import store_sqlite
from repro.service.store import JobState, create_store
from repro.telemetry import TelemetryHub

SPEC = {"experiment": "fig1", "quick": True}


@pytest.fixture
def hub():
    return TelemetryHub(capacity=256)


@pytest.fixture
def store(hub):
    return create_store("sqlite://:memory:", max_attempts=2, hub=hub)


def kinds(hub):
    events, _ = hub.ring.read_since(0)
    return [e.kind for e in events]


def last(hub):
    events, _ = hub.ring.read_since(0)
    return events[-1]


class TestLifecycleEvents:
    def test_submit_publishes_job_submitted(self, store, hub):
        job_id = store.submit(SPEC)
        event = last(hub)
        assert event.kind == "job.submitted"
        assert event.job_id == job_id
        assert event.data == {"state": JobState.QUEUED, "experiment": "fig1"}

    def test_claim_publishes_per_job_with_site(self, store, hub):
        a = store.submit(SPEC)
        b = store.submit(SPEC)
        store.register_site("site-a")
        batch = store.claim_batch("w1", lease_s=60, limit=2, site="site-a")
        assert {r.id for r in batch} == {a, b}
        claimed = [e for e in hub.ring.read_since(0)[0]
                   if e.kind == "job.claimed"]
        assert {e.job_id for e in claimed} == {a, b}
        assert all(e.site == "site-a" for e in claimed)
        assert claimed[0].data == {"worker": "w1", "attempts": 1}

    def test_complete_publishes_job_done(self, store, hub):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        assert store.complete(job_id, "w1", "{}")
        event = last(hub)
        assert event.kind == "job.done"
        assert event.data == {"state": JobState.DONE}

    def test_fail_publishes_job_failed_with_error_line(self, store, hub):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        assert store.fail(job_id, "w1", "boom\ntraceback...")
        event = last(hub)
        assert event.kind == "job.failed"
        assert event.data == {"state": JobState.FAILED, "error": "boom"}

    def test_expired_lease_reclaim_publishes_fresh_claim(self, hub):
        clock = [0.0]
        store = create_store(
            "sqlite://:memory:", max_attempts=3, clock=lambda: clock[0], hub=hub
        )
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=1)
        clock[0] = 10.0  # lease expired; the job is runnable again
        record = store.claim("w2", lease_s=1)
        assert record.id == job_id
        claimed = [e for e in hub.ring.read_since(0)[0]
                   if e.kind == "job.claimed"]
        assert [e.data["worker"] for e in claimed] == ["w1", "w2"]
        assert claimed[-1].data["attempts"] == 2

    def test_rejected_completion_publishes_nothing(self, store, hub):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        before = kinds(hub)
        assert not store.complete(job_id, "not-the-owner", "{}")
        assert not store.fail(job_id, "not-the-owner", "x")
        assert kinds(hub) == before

    def test_release_publishes_job_released(self, store, hub):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        assert store.release(job_id, "w1")
        event = last(hub)
        assert event.kind == "job.released"
        assert event.data == {"worker": "w1"}

    def test_cancel_queued_publishes_job_cancelled(self, store, hub):
        job_id = store.submit(SPEC)
        store.cancel(job_id)
        assert last(hub).kind == "job.cancelled"

    def test_cancel_running_publishes_cancel_requested(self, store, hub):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        store.cancel(job_id)
        assert last(hub).kind == "job.cancel_requested"
        assert last(hub).data["state"] == JobState.RUNNING

    def test_site_registration_and_drain(self, store, hub):
        store.register_site("site-a")
        store.drain_site("site-a")
        assert kinds(hub)[-2:] == ["site.registered", "site.draining"]
        assert last(hub).site == "site-a"


class TestDelegation:
    def test_error_line_bounds_and_strips(self):
        assert store_sqlite._error_line("  a\nb\nc ") == "a"
        assert store_sqlite._error_line("") == ""
        assert store_sqlite._error_line("x" * 500) == "x" * 200
