"""Unit tests for the durable job store: states, atomic claims,
lease-timeout crash recovery, and the queue-depth bound."""

import threading

import pytest

from repro.service.store import (
    DuplicateJob,
    JobState,
    QueueFull,
    UnknownJob,
    UnknownSite,
    create_store,
)

SPEC = {"experiment": "table1", "format": "table"}


class FakeClock:
    """Deterministic, advanceable time source for lease tests."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(clock):
    return create_store(
        "sqlite://:memory:", queue_limit=4, max_attempts=3, clock=clock
    )


class TestSubmitAndInspect:
    def test_submit_returns_queued_record(self, store):
        job_id = store.submit(SPEC)
        record = store.get(job_id)
        assert record.state == JobState.QUEUED
        assert record.spec == SPEC
        assert record.attempts == 0
        assert record.worker is None
        assert not record.cancel_requested

    def test_unknown_job_raises(self, store):
        with pytest.raises(UnknownJob):
            store.get("nope")
        with pytest.raises(UnknownJob):
            store.result_text("nope")

    def test_queue_depth_and_counts(self, store):
        for _ in range(3):
            store.submit(SPEC)
        assert store.queue_depth() == 3
        counts = store.counts()
        assert counts[JobState.QUEUED] == 3
        assert counts[JobState.DONE] == 0

    def test_queue_limit_raises_queue_full(self, store):
        for _ in range(4):
            store.submit(SPEC)
        with pytest.raises(QueueFull):
            store.submit(SPEC)
        # Draining one job frees a slot again.
        store.claim("w", lease_s=60)
        store.submit(SPEC)

    def test_list_jobs_filters_by_state(self, store, clock):
        first = store.submit(SPEC)
        clock.advance(1)
        store.submit(SPEC)
        store.claim("w", lease_s=60)  # claims `first` (oldest)
        running = [r.id for r in store.list_jobs(state=JobState.RUNNING)]
        assert running == [first]
        assert len(store.list_jobs()) == 2

    def test_persists_across_reopen(self, tmp_path, clock):
        path = tmp_path / "jobs.db"
        store = create_store(f"sqlite://{path}", clock=clock)
        job_id = store.submit(SPEC)
        store.close()
        reopened = create_store(f"sqlite://{path}", clock=clock)
        assert reopened.get(job_id).state == JobState.QUEUED
        reopened.close()


class TestClaimProtocol:
    def test_claim_is_fifo(self, store, clock):
        first = store.submit(SPEC)
        clock.advance(1)
        second = store.submit(SPEC)
        assert store.claim("w", lease_s=60).id == first
        assert store.claim("w", lease_s=60).id == second
        assert store.claim("w", lease_s=60) is None

    def test_claim_marks_running_with_lease(self, store, clock):
        job_id = store.submit(SPEC)
        record = store.claim("w1", lease_s=60)
        assert record.id == job_id
        assert record.state == JobState.RUNNING
        assert record.worker == "w1"
        assert record.attempts == 1
        assert record.lease_expires_at == clock.now + 60

    def test_complete_roundtrip(self, store):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        assert store.complete(job_id, "w1", "the result")
        record = store.get(job_id)
        assert record.state == JobState.DONE
        assert store.result_text(job_id) == "the result"

    def test_fail_records_error(self, store):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        assert store.fail(job_id, "w1", "boom")
        record = store.get(job_id)
        assert record.state == JobState.FAILED
        assert record.error == "boom"

    def test_release_requeues_and_refunds_attempt(self, store):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        assert store.release(job_id, "w1")
        record = store.get(job_id)
        assert record.state == JobState.QUEUED
        assert record.attempts == 0
        assert record.worker is None

    def test_concurrent_claims_never_double_claim(self, clock, tmp_path):
        store = create_store(
            f"sqlite://{tmp_path}/jobs.db", queue_limit=64, clock=clock
        )
        ids = [store.submit(SPEC) for _ in range(16)]
        claimed = []
        lock = threading.Lock()

        def worker(name):
            while True:
                record = store.claim(name, lease_s=600)
                if record is None:
                    return
                with lock:
                    claimed.append(record.id)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(ids)
        assert len(set(claimed)) == len(ids)
        store.close()


class TestLeaseRecovery:
    def test_expired_lease_is_reclaimable(self, store, clock):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=30)
        assert store.claim("w2", lease_s=30) is None  # lease still held
        clock.advance(31)
        record = store.claim("w2", lease_s=30)
        assert record is not None and record.id == job_id
        assert record.worker == "w2"
        assert record.attempts == 2

    def test_stale_worker_cannot_clobber_result(self, store, clock):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=30)
        clock.advance(31)
        store.claim("w2", lease_s=30)
        store.complete(job_id, "w2", "good")
        # The crashed-and-revived w1 comes back too late.
        assert not store.complete(job_id, "w1", "stale")
        assert not store.fail(job_id, "w1", "stale")
        assert store.result_text(job_id) == "good"

    def test_renew_extends_lease(self, store, clock):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=30)
        clock.advance(25)
        assert store.renew(job_id, "w1", lease_s=30)
        clock.advance(25)  # 50s total, but lease renewed at t+25
        assert store.claim("w2", lease_s=30) is None

    def test_renew_rejects_non_owner(self, store):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=30)
        assert not store.renew(job_id, "w2", lease_s=30)

    def test_attempts_bound_marks_failed(self, store, clock):
        job_id = store.submit(SPEC)
        for attempt in range(3):
            record = store.claim(f"w{attempt}", lease_s=10)
            assert record is not None and record.attempts == attempt + 1
            clock.advance(11)
        # Three leases burned: the next claim retires the job.
        assert store.claim("w3", lease_s=10) is None
        record = store.get(job_id)
        assert record.state == JobState.FAILED
        assert "lease expired" in record.error

    def test_expired_claim_prefers_crashed_job_over_queue(self, store, clock):
        crashed = store.submit(SPEC)
        store.claim("w1", lease_s=10)
        clock.advance(5)
        store.submit(SPEC)  # fresh job behind the crashed one
        clock.advance(6)  # w1's lease expired
        record = store.claim("w2", lease_s=10)
        assert record.id == crashed


class TestCancellation:
    def test_cancel_queued_is_immediate(self, store):
        job_id = store.submit(SPEC)
        record = store.cancel(job_id)
        assert record.state == JobState.CANCELLED
        assert store.claim("w", lease_s=60) is None

    def test_cancel_running_sets_flag_and_completion_lands_cancelled(
        self, store
    ):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        record = store.cancel(job_id)
        assert record.state == JobState.RUNNING
        assert record.cancel_requested
        assert store.complete(job_id, "w1", "late result")
        assert store.get(job_id).state == JobState.CANCELLED

    def test_cancel_terminal_job_is_a_no_op(self, store):
        job_id = store.submit(SPEC)
        store.claim("w1", lease_s=60)
        store.complete(job_id, "w1", "r")
        assert store.cancel(job_id).state == JobState.DONE


class TestStoreFactory:
    def test_sqlite_scheme_and_bare_path_both_work(self, tmp_path, clock):
        for url in (f"sqlite://{tmp_path}/a.db", f"{tmp_path}/b.db"):
            store = create_store(url, clock=clock)
            job_id = store.submit(SPEC)
            assert store.get(job_id).state == JobState.QUEUED
            store.close()

    def test_unknown_scheme_lists_registered_backends(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            create_store("redis://localhost/0")

    def test_duplicate_job_id_raises(self, store):
        store.submit(SPEC, job_id="job-12345678")
        with pytest.raises(DuplicateJob) as exc:
            store.submit(SPEC, job_id="job-12345678")
        assert exc.value.job_id == "job-12345678"


class TestClaimBatch:
    def test_claims_up_to_limit_in_order(self, store, clock):
        ids = []
        for _ in range(3):
            ids.append(store.submit(SPEC))
            clock.advance(1)
        batch = store.claim_batch("w1", lease_s=60, limit=2)
        assert [r.id for r in batch] == ids[:2]
        assert all(r.state == JobState.RUNNING for r in batch)
        assert all(r.worker == "w1" for r in batch)
        rest = store.claim_batch("w2", lease_s=60, limit=8)
        assert [r.id for r in rest] == ids[2:]

    def test_zero_or_negative_limit_claims_nothing(self, store):
        store.submit(SPEC)
        assert store.claim_batch("w", lease_s=60, limit=0) == []
        assert store.queue_depth() == 1

    def test_records_claiming_site(self, store):
        job_id = store.submit(SPEC)
        store.claim_batch("w1", lease_s=60, limit=1, site="site-a")
        assert store.get(job_id).site == "site-a"

    def test_release_clears_site(self, store):
        job_id = store.submit(SPEC)
        store.claim_batch("w1", lease_s=60, limit=1, site="site-a")
        assert store.release(job_id, "w1")
        assert store.get(job_id).site is None

    def test_concurrent_batches_never_overlap(self, clock, tmp_path):
        store = create_store(
            f"sqlite://{tmp_path}/jobs.db", queue_limit=64, clock=clock
        )
        ids = [store.submit(SPEC) for _ in range(24)]
        claimed = []
        lock = threading.Lock()

        def worker(name):
            while True:
                batch = store.claim_batch(name, lease_s=600, limit=5)
                if not batch:
                    return
                with lock:
                    claimed.extend(r.id for r in batch)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(ids)
        assert len(set(claimed)) == len(ids)
        store.close()

    def test_batch_mixes_expired_and_queued_crashed_first(self, store, clock):
        crashed = store.submit(SPEC)
        store.claim("w1", lease_s=10)
        clock.advance(5)
        fresh = store.submit(SPEC)
        clock.advance(6)  # w1's lease expired
        batch = store.claim_batch("w2", lease_s=10, limit=2)
        assert [r.id for r in batch] == [crashed, fresh]
        assert batch[0].attempts == 2


class TestSites:
    def test_register_heartbeat_drain_roundtrip(self, store, clock):
        record = store.register_site("site-a", {"workers": 4})
        assert record.state == "active"
        assert record.meta == {"workers": 4}
        clock.advance(10)
        beat = store.heartbeat_site("site-a")
        assert beat.last_heartbeat == clock.now
        assert store.drain_site("site-a").state == "draining"
        # Re-registration re-activates a draining site.
        assert store.register_site("site-a").state == "active"

    def test_reregistration_preserves_registered_at(self, store, clock):
        first = store.register_site("site-a")
        clock.advance(100)
        again = store.register_site("site-a")
        assert again.registered_at == first.registered_at

    def test_unknown_site_raises(self, store):
        with pytest.raises(UnknownSite):
            store.heartbeat_site("nope")
        with pytest.raises(UnknownSite):
            store.drain_site("nope")

    def test_list_sites_in_registration_order(self, store, clock):
        store.register_site("site-b")
        clock.advance(1)
        store.register_site("site-a")
        assert [s.name for s in store.list_sites()] == ["site-b", "site-a"]

    def test_site_stats_ledger(self, store, clock):
        done_id = store.submit(SPEC)
        clock.advance(1)
        failed_id = store.submit(SPEC)
        clock.advance(1)
        running_id = store.submit(SPEC)
        store.claim_batch("w1", lease_s=60, limit=3, site="site-a")
        store.complete(done_id, "w1", "ok")
        store.fail(failed_id, "w1", "boom")
        stats = store.site_stats()
        assert stats == {
            "site-a": {
                "completed": 1,
                "failed": 1,
                "inflight": 1,
                "cancelled": 0,
            }
        }
        assert store.get(running_id).site == "site-a"

    def test_persists_across_reopen(self, tmp_path, clock):
        path = tmp_path / "jobs.db"
        store = create_store(f"sqlite://{path}", clock=clock)
        store.register_site("site-a", {"workers": 2})
        store.close()
        reopened = create_store(f"sqlite://{path}", clock=clock)
        [site] = reopened.list_sites()
        assert site.name == "site-a"
        assert site.meta == {"workers": 2}
        reopened.close()
