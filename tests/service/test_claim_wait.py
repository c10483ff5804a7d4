"""The job path wakes on the telemetry ring instead of polling.

``POST /v1/jobs/claim`` with ``wait_s`` holds the request until a
transition that can make a job claimable lands on the ring (a queued
submit, a release, a retry, a terminal job that may release
dependents), until the site drains, the service shuts down, or the
wait runs out.  Agents claim with :data:`repro.service.agent
.CLAIM_WAIT_S`, and the campaign controller steps on terminal job
events.  Each test here either fails against a polling job path or
pins the waiting protocol.
"""

import threading
import time

import pytest

from repro.service import agent as agent_module
from repro.service import app as app_module
from repro.service.agent import (
    CLAIM_WAIT_S,
    LocalJobSource,
    RemoteJobSource,
    WorkerAgent,
)
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import MAX_CLAIM_WAIT_S, PROTOCOL_VERSION
from repro.service.store import JobState
from repro.telemetry import EventForwarder, ForwardingTelemetry

TABLE1 = {"experiment": "table1", "format": "table", "jobs": 1, "cache": True}


def make_service(**overrides):
    defaults = dict(
        host="127.0.0.1",
        port=0,
        workers=0,
        db_path=":memory:",
        poll_interval_s=0.01,
        lease_s=60.0,
    )
    defaults.update(overrides)
    return ReproService(ServiceConfig(**defaults))


@pytest.fixture
def service():
    svc = make_service()
    svc.start()
    yield svc
    svc.shutdown(timeout=30)


@pytest.fixture
def client(service):
    client = ServiceClient(service.url, timeout=30.0)
    client.register_site("site-a")
    return client


def wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class Claim(threading.Thread):
    """One claim request on its own thread, timed."""

    def __init__(self, url, worker="site-a/w0", **kwargs):
        super().__init__(daemon=True)
        self.client = ServiceClient(url, timeout=30.0)
        self.worker = worker
        self.kwargs = kwargs
        self.response = None
        self.elapsed = None

    def run(self):
        start = time.monotonic()
        self.response = self.client.claim_jobs("site-a", self.worker, **self.kwargs)
        self.elapsed = time.monotonic() - start

    def result(self, timeout=30.0):
        self.join(timeout)
        assert not self.is_alive(), "claim never returned"
        return self.response


def count_store_attempts(service, monkeypatch):
    """Count ``claim_batch`` calls on the store (one per store attempt
    of a claim)."""
    calls = []
    original = service.store.claim_batch

    def counted(*args, **kwargs):
        calls.append(time.monotonic())
        return original(*args, **kwargs)

    monkeypatch.setattr(service.store, "claim_batch", counted)
    return calls


class TestClaimWait:
    def test_submit_during_the_wait_returns_the_job_at_once(self, service, client):
        claim = Claim(service.url, wait_s=5.0)
        claim.start()
        time.sleep(0.2)
        job = client.submit(TABLE1)
        response = claim.result()
        assert [j["id"] for j in response["jobs"]] == [job["id"]]
        assert 0.15 < claim.elapsed < 2.0
        assert response["draining"] is False

    def test_nothing_to_claim_returns_empty_after_wait_s(
        self, service, client, monkeypatch
    ):
        attempts = count_store_attempts(service, monkeypatch)
        # Transitions that cannot make a job claimable do not retry
        # the store.
        service.hub.publish("site.registered", site="elsewhere")
        start = time.monotonic()
        response = client.claim_jobs("site-a", "site-a/w0", wait_s=0.6)
        elapsed = time.monotonic() - start
        assert response["jobs"] == []
        assert 0.55 < elapsed < 3.0
        assert len(attempts) == 1

    def test_wait_zero_answers_at_once(self, service, client, monkeypatch):
        attempts = count_store_attempts(service, monkeypatch)
        start = time.monotonic()
        assert client.claim_jobs("site-a", "site-a/w0")["jobs"] == []
        assert time.monotonic() - start < 1.0
        assert len(attempts) == 1

    def test_blocked_submit_does_not_wake_but_its_release_does(
        self, service, client
    ):
        """Completing a parent wakes a claim that waits for the
        parent's blocked child."""
        parent = client.submit(TABLE1)["id"]
        [leased] = client.claim_jobs("site-a", "site-a/w1")["jobs"]
        assert leased["id"] == parent
        child = client.submit(dict(TABLE1, depends_on=[parent]))["id"]
        assert client.status(child)["state"] == JobState.BLOCKED
        claim = Claim(service.url, wait_s=5.0)
        claim.start()
        time.sleep(0.3)
        assert claim.is_alive()
        client.complete_jobs(
            "site-a/w1", [{"id": parent, "ok": True, "result": "r"}]
        )
        response = claim.result()
        assert [j["id"] for j in response["jobs"]] == [child]
        assert claim.elapsed < 2.5

    def test_drain_ends_an_open_claim_at_once(self, service, client):
        claim = Claim(service.url, wait_s=5.0)
        claim.start()
        time.sleep(0.3)
        assert claim.is_alive()
        client.drain_site("site-a")
        response = claim.result()
        assert response == {"jobs": [], "draining": True}
        assert claim.elapsed < 2.0

    def test_shutdown_ends_an_open_claim_at_once(self):
        svc = make_service()
        svc.start()
        try:
            ServiceClient(svc.url).register_site("site-a")
            claim = Claim(svc.url, wait_s=5.0)
            claim.start()
            time.sleep(0.3)
            assert claim.is_alive()
        finally:
            start = time.monotonic()
            svc.shutdown(timeout=30)
            shutdown_s = time.monotonic() - start
        assert claim.result()["jobs"] == []
        assert claim.elapsed < 2.0
        assert shutdown_s < 2.0

    @pytest.mark.parametrize("wait_s", [-0.1, MAX_CLAIM_WAIT_S + 1, "1"])
    def test_bad_wait_s_is_400(self, client, wait_s):
        with pytest.raises(ServiceError) as exc:
            client.claim_jobs("site-a", "site-a/w0", wait_s=wait_s)
        assert exc.value.status == 400
        assert "wait_s" in exc.value.message


class TestProtocolVersion:
    def test_version_2_is_announced(self, service, client):
        assert PROTOCOL_VERSION == 2
        assert client.health()["protocol"] == 2

    def test_version_1_agent_fails_at_registration(self, service):
        """``wait_s`` is a new key of a closed key set, so a mixed
        fleet must fail once, at registration, not on every claim."""
        raw = ServiceClient(service.url, timeout=30.0)
        with pytest.raises(ServiceError) as exc:
            raw._json(
                "POST",
                "/v1/sites",
                {"name": "old-agent", "meta": {}, "protocol": 1},
            )
        assert exc.value.status == 400
        assert exc.value.message == (
            "field 'protocol': unsupported version 1 (this server speaks 2)"
        )


class TestAgentWaits:
    def test_idle_agent_claims_at_most_once_per_wait_period(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(agent_module, "CLAIM_WAIT_S", 0.25)
        requests = []
        original = service.claim_jobs

        def counted(payload):
            requests.append(payload["wait_s"])
            return original(payload)

        monkeypatch.setattr(service, "claim_jobs", counted)
        attempts = count_store_attempts(service, monkeypatch)
        agent = WorkerAgent(
            RemoteJobSource(ServiceClient(service.url), "site-a"),
            workers=1,
            lease_s=30.0,
            poll_interval_s=0.01,
        )
        agent.start()
        try:
            time.sleep(1.0)
        finally:
            start = time.monotonic()
            agent.shutdown(timeout=30)
            shutdown_s = time.monotonic() - start
        # 1.0 s of idling at 0.25 s per claim: at most 4 complete
        # waits plus the one open at shutdown, which shutdown waits out.
        assert 1 <= len(requests) <= 5, requests
        assert shutdown_s < 0.25 + 0.5
        assert set(requests) == {0.25}
        assert len(attempts) == len(requests)

    def test_idle_local_pool_makes_one_store_attempt_per_wait(self, monkeypatch):
        monkeypatch.setattr(agent_module, "CLAIM_WAIT_S", 0.25)
        svc = make_service(workers=1)
        attempts = count_store_attempts(svc, monkeypatch)
        svc.start()
        try:
            time.sleep(1.0)
        finally:
            svc.shutdown(timeout=30)
        assert 1 <= len(attempts) <= 6, attempts

    def test_expired_lease_is_rerun_within_one_wait_period(self, service, client):
        job_id = client.submit(TABLE1)["id"]
        # A worker leases the job and dies without renewing.
        [dead] = service.store.claim_batch("dead-worker", 0.5, 1)
        expires = time.time() + 0.5
        assert dead.id == job_id
        agent = WorkerAgent(
            RemoteJobSource(ServiceClient(service.url), "site-a"),
            workers=1,
            lease_s=30.0,
            poll_interval_s=0.01,
        )
        agent.start()
        try:
            assert wait_for(lambda: service.store.get(job_id).attempts == 2)
            rerun_at = time.time()
            assert wait_for(
                lambda: service.store.get(job_id).state == JobState.DONE
            )
        finally:
            agent.shutdown(timeout=30)
        assert rerun_at - expires < CLAIM_WAIT_S + 0.5

    def test_local_source_waits_on_the_hub(self, service):
        source = LocalJobSource(service.store)
        timer = threading.Timer(
            0.2, lambda: service.store.submit(dict(TABLE1))
        )
        timer.start()
        start = time.monotonic()
        batch = source.claim_batch("local/w0", 30.0, 1, wait_s=5.0)
        elapsed = time.monotonic() - start
        timer.join()
        assert len(batch) == 1
        assert elapsed < 2.0


class TestCampaignController:
    def test_adaptive_campaign_finishes_on_job_events_alone(self, monkeypatch):
        """With the backstop pushed to 60 s, only terminal job events
        can step the controller."""
        monkeypatch.setattr(app_module, "CONTROLLER_BACKSTOP_S", 60.0)
        svc = make_service(workers=1)
        svc.start()
        try:
            client = ServiceClient(svc.url, timeout=30.0)
            campaign = client.submit_campaign(
                spec={
                    "scenario": {"name": "adaptive-wake"},
                    "platform": {"total_nodes": 20000},
                    "failures": {"regime": "poisson", "mtbf_years": 5.0},
                    "workload": {
                        "study": "scaling",
                        "app_type": "A32",
                        "fractions": [0.1],
                    },
                    "techniques": {"names": ["checkpoint_restart"]},
                    "adaptive": {
                        "max_trials": 12,
                        "batch_size": 4,
                        "ci_rel_threshold": 0.05,
                        "refine_depth": 0,
                    },
                }
            )
            status = client.wait_campaign(
                campaign["id"], timeout=45.0, poll_s=0.05
            )
        finally:
            svc.shutdown(timeout=30)
        assert status["state"] == "done"
        assert all(cell["settled"] for cell in status["cells"])


class TestForwardedEventsLandFirst:
    @pytest.fixture
    def service(self):
        # Room for every event of the job (~1.3k), so the stream
        # cannot fall a ring's length behind.
        svc = make_service(telemetry_ring=16384)
        svc.start()
        yield svc
        svc.shutdown(timeout=30)

    def test_remote_sim_events_stream_before_job_done(self, service, client):
        """A watched remote job's forwarded ``sim.*`` events reach the
        ring before its ``job.done``: the agent flushes them before it
        pushes the result, not on a timer."""
        job = {"experiment": "fig1", "quick": True, "trials": 1, "cache": False}
        # Park the watched job behind a blocker so its stream (and
        # therefore its watch) is open before any agent claims it.
        blocker = client.submit(job)["id"]
        target = client.submit(dict(job, depends_on=[blocker]))["id"]
        frames = []
        stream = threading.Thread(
            target=lambda: frames.extend(
                ServiceClient(service.url, timeout=30.0).iter_events(
                    job_id=target, last_event_id=0
                )
            ),
            daemon=True,
        )
        stream.start()
        assert wait_for(lambda: service.hub.is_watched(target))

        remote = ServiceClient(service.url, timeout=30.0)
        source = RemoteJobSource(remote, "site-a")
        forwarder = EventForwarder(remote, "site-a")
        agent = WorkerAgent(
            source,
            workers=1,
            lease_s=60.0,
            poll_interval_s=0.01,
            telemetry=ForwardingTelemetry(forwarder, source.is_watched),
        )
        agent.start()
        try:
            stream.join(timeout=120)
            assert not stream.is_alive()
        finally:
            agent.shutdown(timeout=30)
        kinds = [f["data"]["kind"] for f in frames if f["event"] == "event"]
        sim = [k for k in kinds if k.startswith("sim.")]
        assert sim, kinds
        assert kinds[-1] == "job.done", kinds[-3:]
        assert kinds.index("job.claimed") < kinds.index(sim[0])
        # Every event the agent forwarded streamed before the end.
        assert len(sim) == forwarder.forwarded
        assert forwarder.dropped == 0
        assert frames[-1]["event"] == "end"
