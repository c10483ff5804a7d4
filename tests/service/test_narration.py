"""The store narrates the transitions it makes on its own.

Cascaded failures and cancellations of dependents, and jobs retired
after their last lease attempt, publish their terminal event in the
same commit as the transition that caused them, so their watchers see
them end: an SSE stream ends with ``end {"kind": "job.cancelled"}``
even while the ring stays busy, and ``repro watch`` exits 1.  Calls the
store rejects publish nothing.
"""

import sys
import threading
import time

import pytest

from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.store import (
    DepPolicy,
    DuplicateJob,
    JobState,
    QueueFull,
    UnknownJob,
    create_store,
)

SPEC = {"experiment": "fig1", "quick": True}


@pytest.fixture
def store():
    return create_store("sqlite://:memory:")


def events_after(store, seq):
    events, missed = store.hub.ring.read_since(seq)
    assert missed == 0
    return [(e.kind, e.job_id, e.data) for e in events]


def chain(store, dep_policy=DepPolicy.CASCADE):
    """A parent, its child and its grandchild."""
    parent = store.submit(SPEC)
    child = store.submit(SPEC, depends_on=[parent], dep_policy=dep_policy)
    grandchild = store.submit(SPEC, depends_on=[child], dep_policy=dep_policy)
    return parent, child, grandchild


class TestCascadeEvents:
    def test_cascaded_fail_narrates_every_generation_in_order(self, store):
        parent, child, grandchild = chain(store)
        store.claim("w1", lease_s=60)
        seq = store.hub.ring.last_seq
        assert store.fail(parent, "w1", "boom\ntraceback")
        failed = JobState.FAILED
        assert events_after(store, seq) == [
            ("job.failed", parent, {"state": failed, "error": "boom"}),
            (
                "job.failed",
                child,
                {"state": failed, "error": f"dependency {parent} failed"},
            ),
            (
                "job.failed",
                grandchild,
                {"state": failed, "error": f"dependency {child} failed"},
            ),
        ]

    def test_cascaded_cancel_narrates_every_generation_in_order(self, store):
        parent, child, grandchild = chain(store)
        seq = store.hub.ring.last_seq
        assert store.cancel(parent).state == JobState.CANCELLED
        assert events_after(store, seq) == [
            ("job.cancelled", job_id, {"state": JobState.CANCELLED})
            for job_id in (parent, child, grandchild)
        ]

    def test_completed_parent_releases_its_child_silently(self, store):
        parent, child, _ = chain(store)
        store.claim("w1", lease_s=60)
        seq = store.hub.ring.last_seq
        assert store.complete(parent, "w1", "{}")
        assert store.get(child).state == JobState.QUEUED
        assert events_after(store, seq) == [
            ("job.done", parent, {"state": JobState.DONE})
        ]

    def test_retired_job_and_its_dependents_are_narrated(self):
        clock = [0.0]
        store = create_store(
            "sqlite://:memory:", max_attempts=1, clock=lambda: clock[0]
        )
        parent, child, grandchild = chain(store)
        store.claim("w1", lease_s=1)
        clock[0] = 10.0  # the only lease expired
        seq = store.hub.ring.last_seq
        assert store.claim_batch("w2", lease_s=1, limit=4) == []
        error = "lease expired after 1 attempts"
        assert store.get(parent).error == error
        failed = JobState.FAILED
        assert events_after(store, seq) == [
            ("job.failed", parent, {"state": failed, "error": error}),
            (
                "job.failed",
                child,
                {"state": failed, "error": f"dependency {parent} failed"},
            ),
            (
                "job.failed",
                grandchild,
                {"state": failed, "error": f"dependency {child} failed"},
            ),
        ]

    def test_retirement_precedes_the_claim_of_a_released_dependent(self):
        clock = [0.0]
        store = create_store(
            "sqlite://:memory:", max_attempts=1, clock=lambda: clock[0]
        )
        parent = store.submit(SPEC)
        child = store.submit(SPEC, depends_on=[parent], dep_policy=DepPolicy.RUN)
        store.claim("w1", lease_s=1)
        clock[0] = 10.0
        seq = store.hub.ring.last_seq
        [claimed] = store.claim_batch("w2", lease_s=1, limit=4)
        assert claimed.id == child
        events = events_after(store, seq)
        assert [(kind, job_id) for kind, job_id, _ in events] == [
            ("job.failed", parent),
            ("job.claimed", child),
        ]


class TestCommitOrder:
    def test_concurrent_lifecycles_reach_the_ring_in_commit_order(
        self, store, monkeypatch
    ):
        # Each event is published before the store lock is released, so
        # no thread can narrate a claim ahead of the submit it claims.
        # A slow submit event widens the window a publish after the
        # lock's release would open.
        publish = store.hub.publish

        def slow_publish(kind, **fields):
            if kind == "job.submitted":
                time.sleep(0.002)
            publish(kind, **fields)

        monkeypatch.setattr(store.hub, "publish", slow_publish)
        workers, jobs_each = 4, 25
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def lifecycle(worker):
            for _ in range(jobs_each):
                store.submit(SPEC)
                for record in store.claim_batch(worker, 60.0, 2):
                    assert store.complete(record.id, worker, "{}")

        try:
            threads = [
                threading.Thread(target=lifecycle, args=(f"w{i}",))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        lifecycle_kinds = ["job.submitted", "job.claimed", "job.done"]
        kinds = {}
        for kind, job_id, _ in events_after(store, 0):
            kinds.setdefault(job_id, []).append(kind)
        assert len(kinds) == workers * jobs_each
        for seen in kinds.values():
            assert seen == lifecycle_kinds[: len(seen)]


class TestRejectedCallsPublishNothing:
    def test_queue_full(self):
        store = create_store("sqlite://:memory:", queue_limit=1)
        store.submit(SPEC)
        seq = store.hub.ring.last_seq
        with pytest.raises(QueueFull):
            store.submit(SPEC)
        assert events_after(store, seq) == []

    def test_duplicate_job(self, store):
        store.submit(SPEC, job_id="job-00000001")
        seq = store.hub.ring.last_seq
        with pytest.raises(DuplicateJob):
            store.submit(SPEC, job_id="job-00000001")
        assert events_after(store, seq) == []

    def test_unknown_parent(self, store):
        parent = store.submit(SPEC)
        seq = store.hub.ring.last_seq
        with pytest.raises(UnknownJob):
            store.submit(SPEC, depends_on=[parent, "no-such-job"])
        assert events_after(store, seq) == []
        assert store.counts()[JobState.BLOCKED] == 0

    def test_non_holder_complete_and_fail(self, store):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        seq = store.hub.ring.last_seq
        assert not store.complete(job_id, "not-the-holder", "{}")
        assert not store.fail(job_id, "not-the-holder", "boom")
        assert events_after(store, seq) == []

    def test_cancel_of_a_terminal_job(self, store):
        job_id = store.submit(SPEC)
        store.cancel(job_id)
        seq = store.hub.ring.last_seq
        assert store.cancel(job_id).state == JobState.CANCELLED
        assert events_after(store, seq) == []


@pytest.fixture
def paused_service():
    """Workers=0: jobs queue but never run."""
    svc = ReproService(
        ServiceConfig(
            host="127.0.0.1",
            port=0,
            workers=0,
            db_path=":memory:",
            poll_interval_s=0.01,
        )
    )
    svc.start()
    yield svc
    svc.shutdown(timeout=10)


def wait_watched(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not service.hub.is_watched(job_id):
        assert time.monotonic() < deadline, "watch never attached"
        time.sleep(0.01)


class TestCascadedDependentStreams:
    def test_stream_ends_on_the_cascade_while_the_ring_is_busy(
        self, paused_service
    ):
        service = paused_service
        client = ServiceClient(service.url, timeout=30.0)
        blocker = client.submit(SPEC)["id"]
        dependent = client.submit(dict(SPEC, depends_on=[blocker]))["id"]
        frames = []
        stream = threading.Thread(
            target=lambda: frames.extend(client.iter_events(job_id=dependent)),
            daemon=True,
        )
        stream.start()
        wait_watched(service, dependent)
        # Another producer keeps the ring busy, so the stream never
        # idles into its heartbeat's record check.
        stop = threading.Event()

        def tick():
            while not stop.wait(0.05):
                service.hub.publish("test.tick")

        ticker = threading.Thread(target=tick, daemon=True)
        ticker.start()
        try:
            started = time.monotonic()
            client.cancel(blocker)
            stream.join(timeout=2.0)
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            ticker.join(timeout=5)
        assert not stream.is_alive(), "the stream did not end"
        assert elapsed < 2.0
        assert frames[0]["event"] == "snapshot"
        assert frames[0]["data"]["state"] == JobState.BLOCKED
        assert frames[-2]["data"]["kind"] == "job.cancelled"
        assert frames[-1]["event"] == "end"
        assert frames[-1]["data"]["kind"] == "job.cancelled"

    def test_watch_of_a_cascaded_dependent_exits_1(self, paused_service, capsys):
        from repro.cli import main

        service = paused_service
        blocker = service.store.submit(SPEC)
        dependent = service.store.submit(SPEC, depends_on=[blocker])
        codes = []
        watcher = threading.Thread(
            target=lambda: codes.append(
                main(["watch", dependent, "--url", service.url])
            ),
            daemon=True,
        )
        watcher.start()
        wait_watched(service, dependent)
        service.store.claim_batch("test-worker", 60.0, 1)
        assert service.store.fail(blocker, "test-worker", "boom")
        watcher.join(timeout=5)
        assert not watcher.is_alive()
        assert codes == [1]
        out = capsys.readouterr().out
        assert f"dependency {blocker} failed" in out
        assert '"kind": "job.failed"' in out.splitlines()[-1]
