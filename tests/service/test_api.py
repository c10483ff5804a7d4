"""End-to-end HTTP API tests against a real in-process service.

Includes the acceptance-criterion determinism test: the JSON artifact
fetched over HTTP is byte-identical to the direct entrypoint output
for the same request.
"""

import pytest

from repro.experiments.entry import StudyRequest, run_request
from repro.experiments.parallel import ExecutorOptions
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError


def make_service(**overrides):
    """An ephemeral-port, in-memory service for one test."""
    defaults = dict(
        host="127.0.0.1",
        port=0,
        workers=1,
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
def paused_service():
    """Workers=0: jobs queue up but never run (for 409/429 tests)."""
    svc = make_service(workers=0, queue_limit=1)
    svc.start()
    yield svc
    svc.shutdown(timeout=10)


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout=30.0)


class TestBasics:
    def test_healthz(self, client, service):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == service.config.workers
        assert payload["version"]

    def test_unknown_routes_404(self, client):
        for path in ("/nope", "/v1/nope"):
            with pytest.raises(ServiceError) as excinfo:
                client._json("GET", path)
            assert excinfo.value.status == 404

    def test_unknown_job_404(self, client):
        for call in (client.status, client.result, client.cancel):
            with pytest.raises(ServiceError) as excinfo:
                call("deadbeef")
            assert excinfo.value.status == 404

    def test_malformed_specs_400(self, client):
        bad = [
            {"experiment": "fig99"},
            {"experiment": "fig1", "bogus": 1},
            {"experiment": "fig1", "trials": -1},
            {},
        ]
        for payload in bad:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 400
            assert excinfo.value.message  # one-line reason

    def test_non_json_body_400(self, client, service):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            service.url + "/v1/jobs",
            data=b"this is not json",
            headers={"Content-Type": "text/plain"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestJobLifecycle:
    def test_submit_wait_result(self, client):
        job = client.submit(experiment="table1")
        assert job["state"] == "queued"
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "done"
        expected = run_request(StudyRequest(experiment="table1")).text
        assert client.result(job["id"]) == expected

    def test_list_jobs(self, client):
        job = client.submit(experiment="table1")
        listed = client.list_jobs()
        assert any(r["id"] == job["id"] for r in listed["jobs"])
        client.wait(job["id"], timeout=60)
        done = client.list_jobs(state="done")
        assert all(r["state"] == "done" for r in done["jobs"])

    def test_list_jobs_bad_state_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.list_jobs(state="sleeping")
        assert excinfo.value.status == 400

    def test_result_before_done_409(self, paused_service):
        client = ServiceClient(paused_service.url)
        job = client.submit(experiment="table1")
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409

    def test_queue_full_429(self, paused_service):
        client = ServiceClient(paused_service.url)
        client.submit(experiment="table1")
        with pytest.raises(ServiceError) as excinfo:
            client.submit(experiment="table1")
        assert excinfo.value.status == 429

    def test_cancel_queued_job(self, paused_service):
        client = ServiceClient(paused_service.url)
        job = client.submit(experiment="table1")
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"

    def test_failed_job_result_500(self, service):
        # A corrupt spec slipped past validation (submitted straight to
        # the store) must surface as a 500 with the failure reason.
        client = ServiceClient(service.url)
        job_id = service.store.submit({"experiment": "not-a-thing"})
        client.wait(job_id, timeout=60)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 500
        assert "invalid job spec" in excinfo.value.message


class TestDeterminism:
    def test_fetched_json_is_byte_identical_to_direct_run(self, client):
        """Acceptance criterion: submitting via the service yields the
        exact bytes of the equivalent direct invocation."""
        payload = {
            "experiment": "fig1",
            "format": "json",
            "quick": True,
            "trials": 2,
        }
        job = client.submit(payload)
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        fetched = client.result(job["id"])
        direct = run_request(
            StudyRequest(
                experiment="fig1", format="json", quick=True, trials=2
            ),
            options=ExecutorOptions(jobs=1, cache=False),
        ).text
        assert fetched == direct

    def test_resubmission_is_a_cache_hit(self, client):
        payload = {
            "experiment": "fig1",
            "format": "json",
            "quick": True,
            "trials": 2,
        }
        first = client.submit(payload)
        client.wait(first["id"], timeout=300)
        before = client.metrics()["cache"]
        second = client.submit(payload)
        client.wait(second["id"], timeout=300)
        after = client.metrics()["cache"]
        assert after["hits"] > before["hits"]
        assert client.result(second["id"]) == client.result(first["id"])


class TestMetrics:
    def test_metrics_shape_and_counts(self, client):
        job = client.submit(experiment="table1")
        client.wait(job["id"], timeout=60)
        payload = client.metrics()
        assert set(payload) >= {
            "queue", "jobs", "cache", "executor", "counters", "uptime_s"
        }
        assert payload["queue"]["limit"] > 0
        assert payload["jobs"]["by_state"]["done"] >= 1
        assert payload["jobs"]["accepted"] >= 1
        assert payload["jobs"]["completed"] >= 1
        assert 0.0 <= payload["cache"]["hit_rate"] <= 1.0
        assert payload["uptime_s"] >= 0.0


class TestFleetEndpoints:
    """Site lifecycle + batch claim/complete over real HTTP."""

    @pytest.fixture
    def paused_client(self, paused_service):
        return ServiceClient(paused_service.url)

    def test_site_register_heartbeat_drain(self, paused_client):
        site = paused_client.register_site("site-a", meta={"workers": 2})
        assert site["state"] == "active"
        assert site["meta"] == {"workers": 2}
        listed = paused_client.list_sites()
        assert [s["name"] for s in listed["sites"]] == ["site-a"]
        beat = paused_client.site_heartbeat("site-a")
        assert beat["drain"] is False
        drained = paused_client.drain_site("site-a")
        assert drained["state"] == "draining"
        assert paused_client.site_heartbeat("site-a")["drain"] is True

    def test_heartbeat_unknown_site_404(self, paused_client):
        with pytest.raises(ServiceError) as excinfo:
            paused_client.site_heartbeat("ghost")
        assert excinfo.value.status == 404

    def test_bad_site_name_400(self, paused_client):
        with pytest.raises(ServiceError) as excinfo:
            paused_client.register_site("no spaces allowed")
        assert excinfo.value.status == 400

    def test_claim_complete_roundtrip(self, paused_service, paused_client):
        job = paused_client.submit(experiment="table1")
        paused_client.register_site("site-a")
        response = paused_client.claim_jobs(
            "site-a", "agent-1", limit=4, lease_s=60
        )
        assert response["draining"] is False
        [claimed] = response["jobs"]
        assert claimed["id"] == job["id"]
        assert claimed["state"] == "running"
        assert claimed["site"] == "site-a"
        done = paused_client.complete_jobs(
            "agent-1", [{"id": job["id"], "ok": True, "result": "artifact"}]
        )
        assert done["results"] == [
            {"id": job["id"], "accepted": True, "state": "done"}
        ]
        assert paused_client.result(job["id"]) == "artifact"

    def test_claim_on_draining_site_is_empty(self, paused_service, paused_client):
        paused_client.submit(experiment="table1")
        paused_client.register_site("site-a")
        paused_client.drain_site("site-a")
        response = paused_client.claim_jobs("site-a", "agent-1")
        assert response == {"draining": True, "jobs": []}

    def test_stale_completion_is_rejected_not_error(
        self, paused_service, paused_client
    ):
        job = paused_client.submit(experiment="table1")
        paused_client.register_site("site-a")
        paused_client.claim_jobs("site-a", "agent-1", lease_s=60)
        # agent-1's result lands; its own retry is answered idempotently.
        push = [{"id": job["id"], "ok": True, "result": "r"}]
        assert paused_client.complete_jobs("agent-1", push)["results"][0][
            "accepted"
        ]
        retry = paused_client.complete_jobs("agent-1", push)["results"][0]
        assert retry == {"id": job["id"], "accepted": False, "state": "done"}
        # A different (stale) worker is rejected the same way.
        stale = paused_client.complete_jobs("agent-0", push)["results"][0]
        assert stale["accepted"] is False

    def test_renew_and_release(self, paused_service, paused_client):
        job = paused_client.submit(experiment="table1")
        paused_client.register_site("site-a")
        paused_client.claim_jobs("site-a", "agent-1", lease_s=60)
        renewed = paused_client.renew_jobs("agent-1", [job["id"]], lease_s=60)
        assert renewed["renewed"] == [{"id": job["id"], "ok": True}]
        released = paused_client.release_jobs("agent-1", [job["id"]])
        assert released["released"] == [{"id": job["id"], "ok": True}]
        assert paused_client.status(job["id"])["state"] == "queued"

    def test_completion_of_unknown_job_is_rejected(self, paused_client):
        response = paused_client.complete_jobs(
            "agent-1", [{"id": "deadbeef", "ok": True, "result": "r"}]
        )
        assert response["results"] == [
            {"id": "deadbeef", "accepted": False, "state": "unknown"}
        ]

    def test_idempotent_submit_with_job_id(self, paused_service):
        # queue_limit=1: without idempotency the second submit would 429.
        client = ServiceClient(paused_service.url)
        first = client.submit(experiment="table1", job_id="stable-key-1")
        again = client.submit(experiment="table1", job_id="stable-key-1")
        assert again["id"] == first["id"]
        assert paused_service.store.queue_depth() == 1

    def test_bad_job_id_400(self, paused_client):
        with pytest.raises(ServiceError) as excinfo:
            paused_client.submit(experiment="table1", job_id="x")
        assert excinfo.value.status == 400

    def test_per_site_metrics(self, paused_service, paused_client):
        job = paused_client.submit(experiment="table1")
        paused_client.register_site("site-a")
        paused_client.claim_jobs("site-a", "agent-1", lease_s=60)
        paused_client.complete_jobs(
            "agent-1", [{"id": job["id"], "ok": True, "result": "r"}]
        )
        sites = paused_client.metrics()["sites"]
        assert sites["site-a"]["completed"] == 1
        assert sites["site-a"]["failed"] == 0
        assert sites["site-a"]["inflight"] == 0
        assert sites["site-a"]["state"] == "active"
        assert sites["site-a"]["last_heartbeat_age_s"] >= 0.0


def _raw_post(service, length: bytes, body: bytes) -> bytes:
    """Send one hand-built ``POST /v1/jobs`` over a raw socket; return
    the whole response (empty when the server drops the connection)."""
    import socket

    request = (
        b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        b"Content-Length: " + length + b"\r\n\r\n" + body
    )
    with socket.create_connection(("127.0.0.1", service.port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestMalformedBodies:
    """Bodies the JSON decoder or the header parser refuse get a 400
    with a JSON error, and the server keeps answering."""

    @pytest.mark.parametrize(
        "length, body",
        [
            (b"abc", b"{}"),
            (b"-5", b"{}"),
            (None, b'{"experiment": "fig\xff1"}'),
            (None, b"[" * 30000 + b"]" * 30000),
        ],
        ids=["length-not-a-number", "length-negative", "byte-ff", "deep-nesting"],
    )
    def test_400_and_server_survives(self, service, client, length, body):
        import json

        if length is None:
            length = str(len(body)).encode()
        response = _raw_post(service, length, body)
        status_line, _, rest = response.partition(b"\r\n")
        assert status_line.split()[1] == b"400", response[:200]
        payload = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert payload["error"] and "\n" not in payload["error"]
        assert client.health()["status"] == "ok"
