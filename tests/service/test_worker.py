"""Worker-pool lifecycle tests: execution, crash recovery via lease
expiry, graceful-shutdown drain, and cancellation."""

import time

import pytest

from repro.experiments.entry import StudyRequest, run_request
from repro.obs import counters as obs_counters
from repro.service.store import JobState, create_store
from repro.service.worker import WorkerPool

TABLE1 = {"experiment": "table1", "format": "table", "jobs": 1, "cache": True}


def wait_for(predicate, timeout=30.0, interval=0.02):
    """Poll *predicate* until truthy or *timeout* elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class FakeClock:
    """Advanceable time source shared with the store under test."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def store():
    js = create_store("sqlite://:memory:", queue_limit=64)
    yield js
    js.close()


def make_pool(store, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("poll_interval_s", 0.01)
    return WorkerPool(store, **kwargs)


class TestExecution:
    def test_pool_drains_jobs_to_done(self, store):
        ids = [store.submit(TABLE1) for _ in range(3)]
        pool = make_pool(store, workers=2)
        pool.start()
        try:
            assert wait_for(
                lambda: all(
                    store.get(i).state == JobState.DONE for i in ids
                )
            )
        finally:
            pool.shutdown(timeout=30)
        expected = run_request(StudyRequest(experiment="table1")).text
        for job_id in ids:
            assert store.result_text(job_id) == expected

    def test_paused_pool_leaves_jobs_queued(self, store):
        job_id = store.submit(TABLE1)
        pool = make_pool(store, workers=0)
        pool.start()
        time.sleep(0.1)
        pool.shutdown(timeout=5)
        assert store.get(job_id).state == JobState.QUEUED

    def test_invalid_spec_lands_failed(self, store):
        # Bypass API validation: a corrupt spec straight into the store.
        job_id = store.submit({"experiment": "no-such-figure"})
        pool = make_pool(store)
        pool.start()
        try:
            assert wait_for(
                lambda: store.get(job_id).state == JobState.FAILED
            )
        finally:
            pool.shutdown(timeout=10)
        assert "invalid job spec" in store.get(job_id).error

    def test_executor_metrics_accumulate(self, store):
        job_id = store.submit(
            {"experiment": "fig1", "format": "json", "quick": True,
             "trials": 2, "jobs": 1, "cache": True}
        )
        before = obs_counters.snapshot()
        pool = make_pool(store)
        pool.start()
        try:
            assert wait_for(
                lambda: store.get(job_id).state == JobState.DONE,
                timeout=120,
            )
        finally:
            pool.shutdown(timeout=30)
        after = obs_counters.snapshot()
        for key in ("executor.cells_done", "executor.trials_done"):
            assert after.get(key, 0) > before.get(key, 0)


class TestCrashRecovery:
    def test_expired_lease_job_is_rerun_and_completed(self):
        """A job claimed by a worker that died (lease expired, no
        heartbeat) is re-leased by a fresh pool and completed."""
        clock = FakeClock()
        store = create_store("sqlite://:memory:", queue_limit=64, clock=clock)
        try:
            job_id = store.submit(TABLE1)
            crashed = store.claim("crashed-worker", lease_s=10)
            assert crashed is not None
            assert store.get(job_id).state == JobState.RUNNING
            clock.advance(11)  # the dead worker never renewed
            pool = make_pool(store, lease_s=60)
            pool.start()
            try:
                assert wait_for(
                    lambda: store.get(job_id).state == JobState.DONE
                )
            finally:
                pool.shutdown(timeout=30)
            record = store.get(job_id)
            assert record.attempts == 2
            expected = run_request(StudyRequest(experiment="table1")).text
            assert store.result_text(job_id) == expected
        finally:
            store.close()


class TestShutdownDrain:
    def test_shutdown_loses_no_accepted_jobs(self, tmp_path):
        """SIGTERM semantics: after shutdown every accepted job is
        done, queued, or running-with-expired-potential — never lost —
        and a restarted pool finishes all of them."""
        path = tmp_path / "jobs.db"
        store = create_store(f"sqlite://{path}", queue_limit=64)
        ids = [store.submit(TABLE1) for _ in range(8)]
        pool = make_pool(store)
        pool.start()
        # Shut down almost immediately, mid-drain.
        pool.shutdown(timeout=30)
        states = {i: store.get(i).state for i in ids}
        assert all(
            s in (JobState.DONE, JobState.QUEUED) for s in states.values()
        ), states
        # Restart: a fresh pool over the same durable store finishes
        # everything that was still queued.
        pool2 = make_pool(store)
        pool2.start()
        try:
            assert wait_for(
                lambda: all(
                    store.get(i).state == JobState.DONE for i in ids
                )
            )
        finally:
            pool2.shutdown(timeout=30)
            store.close()


class TestCancellation:
    def test_cancel_requested_before_start_skips_execution(self, store):
        job_id = store.submit(TABLE1)
        pool = make_pool(store, workers=0)
        record = store.claim(pool.identity, lease_s=60)
        store.cancel(job_id)  # running -> cancel_requested
        pool._run_job(record, f"{pool.identity}/w0")
        final = store.get(job_id)
        assert final.state == JobState.CANCELLED
        assert store.result_text(job_id) == ""

    def test_cancelled_queued_job_is_never_claimed(self, store):
        job_id = store.submit(TABLE1)
        store.cancel(job_id)
        pool = make_pool(store)
        pool.start()
        time.sleep(0.1)
        pool.shutdown(timeout=5)
        assert store.get(job_id).state == JobState.CANCELLED
