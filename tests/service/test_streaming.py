"""The live telemetry surface over real HTTP: SSE streams, the
fleet-events ingest route, the dashboard, and the metrics extensions.

Covers the acceptance criterion end-to-end on both execution paths: a
live SSE client receives lifecycle (and, for watched jobs, in-flight
simulation) events while jobs run on the in-process pool, and the
remote-agent protocol round-trip (claim ``watched`` marker → forwarded
events → completion) feeds the same per-job stream.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError

FIG1 = {"experiment": "fig1", "quick": True, "trials": 2, "cache": False}


def make_service(**overrides):
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
    """Workers=0: jobs queue but never run (protocol-level tests)."""
    svc = make_service(workers=0)
    svc.start()
    yield svc
    svc.shutdown(timeout=10)


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout=30.0)


@pytest.fixture
def gate(service, monkeypatch):
    """Hold the worker before it runs each claimed job until the test
    opens the gate, so a stream can attach first: a watch must exist
    when the job starts for its simulation events to stream."""
    opened = threading.Event()
    run_job = service.pool._run_job

    def gated(record, executor):
        opened.wait(60)
        run_job(record, executor)

    monkeypatch.setattr(service.pool, "_run_job", gated)
    yield opened
    opened.set()


def open_once_watched(gate, client):
    """Open *gate* once ``/v1/metrics`` counts one watched job."""
    deadline = time.monotonic() + 30
    while client.metrics()["telemetry"]["watched_jobs"] != 1:
        assert time.monotonic() < deadline, "watch never attached"
        time.sleep(0.01)
    gate.set()


@pytest.fixture
def paused_client(paused_service):
    return ServiceClient(paused_service.url, timeout=30.0)


def frame_kinds(frames):
    return [
        f["data"]["kind"] for f in frames if f["event"] == "event"
    ]


class TestDashboard:
    def test_root_serves_the_status_page(self, service):
        with urllib.request.urlopen(service.url + "/", timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/html")
            body = resp.read().decode("utf-8")
        assert "repro fleet status" in body
        # The page drives itself from the two SSE feeds.
        assert "/v1/metrics/stream" in body
        assert "/v1/events" in body


class TestMetricsExtensions:
    def test_metrics_gain_uptime_telemetry_and_campaigns(self, client):
        payload = client.metrics()
        assert payload["uptime_s"] >= 0
        ring = payload["telemetry"]["ring"]
        assert set(ring) == {"capacity", "size", "dropped", "last_seq"}
        assert payload["telemetry"]["watched_jobs"] == 0
        assert payload["campaigns"] == {
            "total": 0, "active": 0, "campaigns": []
        }

    def test_last_seq_is_monotonic_over_activity(self, paused_client):
        before = paused_client.metrics()["telemetry"]["ring"]["last_seq"]
        paused_client.submit(FIG1)
        after = paused_client.metrics()["telemetry"]["ring"]["last_seq"]
        assert after > before

    def test_metrics_stream_emits_metrics_frames(self, paused_service):
        request = urllib.request.Request(
            paused_service.url + "/v1/metrics/stream",
            headers={"Accept": "text/event-stream"},
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            event, data = None, None
            for raw in resp:
                line = raw.decode("utf-8").strip()
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("data:"):
                    data = json.loads(line[5:])
                    break
        assert event == "metrics"
        assert "queue" in data and "telemetry" in data


class TestGlobalStream:
    def test_replays_from_resume_position(self, paused_client):
        job = paused_client.submit(FIG1)
        frames = []
        stream = paused_client.iter_events(last_event_id=0)
        for frame in stream:
            frames.append(frame)
            if frame["event"] == "event":
                break
        stream.close()
        assert frames[-1]["data"]["kind"] == "job.submitted"
        assert frames[-1]["data"]["job_id"] == job["id"]
        assert frames[-1]["id"] == frames[-1]["data"]["seq"]

    def test_resume_past_eviction_yields_gap_marker(self, paused_service):
        svc = make_service(workers=0, telemetry_ring=4)
        svc.start()
        try:
            for i in range(10):
                svc.hub.publish(f"tick.{i}")
            client = ServiceClient(svc.url, timeout=30.0)
            stream = client.iter_events(last_event_id=1)
            frames = []
            for frame in stream:
                frames.append(frame)
                if len(frames) == 5:
                    break
            stream.close()
        finally:
            svc.shutdown(timeout=10)
        # Retained: seqs 7-10; requested from 2; 2-6 are gone.
        assert frames[0]["event"] == "gap"
        assert frames[0]["data"] == {"missed": 5, "after_seq": 1}
        assert frames[0]["id"] is None  # gaps never become a cursor
        assert [f["id"] for f in frames[1:]] == [7, 8, 9, 10]

    def test_negative_last_event_id_is_rejected(self, paused_client):
        with pytest.raises(ServiceError) as excinfo:
            next(paused_client.iter_events(last_event_id=-3))
        assert excinfo.value.status == 400


class TestJobStream:
    def test_unknown_job_404s(self, client):
        with pytest.raises(ServiceError) as excinfo:
            next(client.iter_events(job_id="no-such-job"))
        assert excinfo.value.status == 404

    def test_lifecycle_stream_for_a_local_worker_job(self, client):
        job = client.submit(FIG1)
        frames = list(
            client.iter_events(job_id=job["id"], last_event_id=0)
        )
        assert frames[0]["event"] == "snapshot"
        assert frames[0]["data"]["id"] == job["id"]
        assert frames[0]["id"] is None
        kinds = frame_kinds(frames)
        assert kinds.index("job.submitted") < kinds.index("job.claimed")
        assert kinds[-1] == "job.done"
        assert frames[-1]["event"] == "end"
        assert frames[-1]["data"]["kind"] == "job.done"
        # Only this job's slice of the feed.
        assert all(
            f["data"]["job_id"] == job["id"]
            for f in frames
            if f["event"] == "event"
        )

    def test_terminal_job_streams_snapshot_then_end(self, client):
        job = client.submit(FIG1)
        client.wait(job["id"], timeout=120)
        frames = list(client.iter_events(job_id=job["id"]))
        assert [f["event"] for f in frames] == ["snapshot", "end"]
        assert frames[1]["data"]["state"] == "done"

    def test_transition_during_attach_streams_after_the_snapshot(
        self, paused_service, paused_client, monkeypatch
    ):
        # The job fails right after the stream reads its record, before
        # the stream starts following the feed: the failure must still
        # stream after the stale snapshot, not wait out a heartbeat.
        store = paused_service.store
        job_id = store.submit(FIG1)
        read = store.get

        def read_then_fail(requested):
            record = read(requested)
            if requested == job_id and record.state == "queued":
                store.claim_batch("racer", 60.0, 1)
                store.fail(job_id, "racer", "boom")
            return record

        monkeypatch.setattr(store, "get", read_then_fail)
        started = time.monotonic()
        frames = list(paused_client.iter_events(job_id=job_id))
        elapsed = time.monotonic() - started
        assert frames[0]["event"] == "snapshot"
        assert frames[0]["data"]["state"] == "queued"
        assert frame_kinds(frames) == ["job.claimed", "job.failed"]
        assert frames[-1]["event"] == "end"
        assert frames[-1]["data"]["kind"] == "job.failed"
        assert elapsed < paused_service.config.sse_heartbeat_s

    def test_watched_job_streams_live_simulation_events(self, client, gate):
        # The gated worker cannot start the target before its stream
        # (and therefore its watch) is open.
        target = client.submit(FIG1)
        stream = client.iter_events(job_id=target["id"], last_event_id=0)
        frames = [next(stream)]
        open_once_watched(gate, client)
        frames.extend(stream)
        kinds = frame_kinds(frames)
        assert "sim.TrialStarted" in kinds
        assert "sim.ExecutionStarted" in kinds
        assert "sim.ActivitySpan" not in kinds  # filtered as too chatty
        assert kinds[-1] == "job.done"
        assert frames[-1]["event"] == "end"
        # The watch was per-stream: it is gone once the stream closed.
        assert client.metrics()["telemetry"]["watched_jobs"] == 0


class TestSiteEventsRoute:
    def test_unknown_site_404s(self, paused_client):
        with pytest.raises(ServiceError) as excinfo:
            paused_client.post_site_events(
                "ghost", [{"kind": "sim.TrialStarted"}]
            )
        assert excinfo.value.status == 404

    def test_accepts_and_tags_a_batch(self, paused_service, paused_client):
        paused_client.register_site("site-a")
        response = paused_client.post_site_events(
            "site-a",
            [
                {"kind": "sim.TrialStarted", "job_id": "j1"},
                {"kind": "sim.CheckpointTaken", "job_id": "j1",
                 "data": {"level": 1}},
            ],
        )
        assert response == {"accepted": 2}
        events, _ = paused_service.hub.ring.read_since(0)
        tagged = [e for e in events if e.site == "site-a"]
        assert [e.kind for e in tagged][-2:] == [
            "sim.TrialStarted", "sim.CheckpointTaken"
        ]

    def test_event_push_counts_as_heartbeat(self, paused_client):
        paused_client.register_site("site-a")
        before = {
            s["name"]: s["last_heartbeat"]
            for s in paused_client.list_sites()["sites"]
        }["site-a"]
        time.sleep(0.05)
        paused_client.post_site_events(
            "site-a", [{"kind": "sim.TrialStarted"}]
        )
        after = {
            s["name"]: s["last_heartbeat"]
            for s in paused_client.list_sites()["sites"]
        }["site-a"]
        assert after > before

    def test_malformed_batches_400(self, paused_client):
        paused_client.register_site("site-a")
        bad = [
            {},  # no events
            {"events": []},  # empty
            {"events": [{"kind": "sim.TrialStarted"}], "extra": 1},
            {"events": [{}]},  # no kind
            {"events": [{"kind": "NoDot"}]},
            {"events": [{"kind": "sim.X", "bogus": 1}]},
            {"events": [{"kind": "sim.X", "data": "not-a-dict"}]},
            {"events": [{"kind": "sim.X", "job_id": ""}]},
            {"events": [{"kind": "sim.X"}] * 513},  # over batch bound
        ]
        for payload in bad:
            with pytest.raises(ServiceError) as excinfo:
                paused_client._json(
                    "POST", "/v1/sites/site-a/events", payload
                )
            assert excinfo.value.status == 400


class TestRemoteAgentPath:
    def test_claim_marks_watched_jobs(self, paused_service, paused_client):
        paused_client.register_site("site-a")
        watched = paused_client.submit(FIG1)["id"]
        unwatched = paused_client.submit(FIG1)["id"]
        paused_service.hub.watch(watched)
        try:
            response = paused_client.claim_jobs(
                "site-a", "site-a/w0", limit=2
            )
        finally:
            paused_service.hub.unwatch(watched)
        assert {j["id"] for j in response["jobs"]} == {watched, unwatched}
        assert response["watched"] == [watched]

    def test_forwarded_events_reach_the_job_stream(
        self, paused_service, paused_client
    ):
        """The full remote round-trip at the protocol level: an open
        stream watches the job, the claim reports it as watched, the
        agent forwards simulation events, and the stream interleaves
        them with the lifecycle it already narrates."""
        paused_client.register_site("site-a")
        job_id = paused_client.submit(FIG1)["id"]

        frames = []
        done = threading.Event()

        def follow():
            try:
                for frame in paused_client.iter_events(
                    job_id=job_id, last_event_id=0
                ):
                    frames.append(frame)
            finally:
                done.set()

        thread = threading.Thread(target=follow, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if paused_service.hub.is_watched(job_id):
                break
            time.sleep(0.01)
        assert paused_service.hub.is_watched(job_id)

        claim = paused_client.claim_jobs("site-a", "site-a/w0")
        assert claim["watched"] == [job_id]
        paused_client.post_site_events(
            "site-a",
            [
                {"kind": "sim.TrialStarted", "job_id": job_id,
                 "data": {"trial": 0}},
                {"kind": "sim.FailureInjected", "job_id": job_id,
                 "data": {"node": 3}},
            ],
        )
        paused_client.complete_jobs(
            "site-a/w0",
            [{"id": job_id, "ok": True, "result": "{}"}],
        )
        assert done.wait(timeout=60)
        thread.join(timeout=30)

        kinds = frame_kinds(frames)
        assert kinds.index("job.claimed") < kinds.index("sim.TrialStarted")
        assert (
            kinds.index("sim.FailureInjected") < kinds.index("job.done")
        )
        injected = [
            f for f in frames
            if f["event"] == "event"
            and f["data"]["kind"] == "sim.FailureInjected"
        ]
        assert injected[0]["data"]["site"] == "site-a"
        assert frames[-1]["event"] == "end"


class TestWatchCommand:
    def test_watch_follows_a_job_and_exits_0(
        self, client, service, gate, capsys
    ):
        from repro.cli import main

        # The gated worker runs the job only once the watch is
        # attached; a job that finished first would stream just its
        # snapshot and ``end``.
        job = client.submit(FIG1)
        codes = []
        watcher = threading.Thread(
            target=lambda: codes.append(
                main(["watch", job["id"], "--url", service.url])
            )
        )
        watcher.start()
        open_once_watched(gate, client)
        watcher.join(timeout=120)
        assert not watcher.is_alive()
        assert codes == [0]
        out = capsys.readouterr().out
        assert out.startswith("snapshot")
        assert "job.done" in out
        assert "end" in out

    def test_watch_exits_1_when_the_job_fails(self, paused_service, capsys):
        from repro.cli import main

        # Fail the job only once the watch is attached: a job that is
        # already terminal streams just its snapshot and ``end``.
        service = paused_service
        job_id = service.store.submit(FIG1)
        codes = []
        watcher = threading.Thread(
            target=lambda: codes.append(
                main(["watch", job_id, "--url", service.url])
            )
        )
        watcher.start()
        deadline = time.monotonic() + 30
        while not service.hub.is_watched(job_id):
            assert time.monotonic() < deadline, "watch never attached"
            time.sleep(0.01)
        [claimed] = service.store.claim_batch("test-worker", 60.0, 1)
        assert claimed.id == job_id
        assert service.store.fail(job_id, "test-worker", "boom")
        watcher.join(timeout=30)
        assert not watcher.is_alive()
        assert codes == [1]
        assert "job.failed" in capsys.readouterr().out

    def test_watch_unknown_target_exits_2(self, service, capsys):
        from repro.cli import main

        assert main(["watch", "no-such-id", "--url", service.url]) == 2
        assert "no job or campaign" in capsys.readouterr().err


class TestCampaignEvents:
    def test_campaign_submission_is_narrated(self, paused_client,
                                             paused_service):
        campaign = paused_client.submit_campaign(
            scenario="fig1", quick=True
        )
        events, _ = paused_service.hub.ring.read_since(0)
        submitted = [e for e in events if e.kind == "campaign.submitted"]
        assert len(submitted) == 1
        assert submitted[0].campaign_id == campaign["id"]
        assert submitted[0].data["scenario"] == "fig1"
        assert submitted[0].data["adaptive"] is False
        summary = paused_client.metrics()["campaigns"]
        assert summary["total"] == 1

    def test_adaptive_campaign_progress_is_narrated(self, client, service):
        """The controller's notify hook feeds the ring: submission,
        per-cell settlement, and completion all appear."""
        spec = {
            "scenario": {"name": "adaptive-inline"},
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
        campaign = client.submit_campaign(spec=spec)
        client.wait_campaign(campaign["id"], timeout=300)
        events, _ = service.hub.ring.read_since(0)
        mine = [e for e in events if e.campaign_id == campaign["id"]]
        kinds = [e.kind for e in mine]
        assert kinds[0] == "campaign.submitted"
        assert mine[0].data["adaptive"] is True
        assert "campaign.cell_settled" in kinds
        settled = next(
            e for e in mine if e.kind == "campaign.cell_settled"
        )
        assert settled.data["technique"] == "checkpoint_restart"
        assert settled.data["reason"] in (
            "converged", "max_trials", "infeasible"
        )
        assert kinds[-1] == "campaign.done"
        assert mine[-1].data["trials_executed"] >= 1
        summary = client.metrics()["campaigns"]
        assert summary["active"] == 0
        assert summary["campaigns"][0]["state"] == "done"
