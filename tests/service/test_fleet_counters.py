"""Exact fleet counters: an agent ships only its own job's counter
scope, and a ``workers=0`` control plane builds its ``cache`` and
``executor`` blocks from what agents push."""

import os
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro.obs import counters as obs_counters
from repro.service.agent import LocalJobSource, WorkerAgent
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.store import JobState, create_store

REPO_ROOT = Path(__file__).resolve().parents[2]

TABLE1 = {"experiment": "table1", "format": "table", "jobs": 1, "cache": True}


def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class RecordingSource(LocalJobSource):
    """A local source that records the counters each completion ships."""

    def __init__(self, store):
        super().__init__(store)
        self.shipped = []
        self._lock = threading.Lock()

    def complete(self, worker, job_id, result, counters=None):
        with self._lock:
            self.shipped.append(dict(counters or {}))
        return super().complete(worker, job_id, result, counters=counters)


class TestAgentScopes:
    def test_overlapping_jobs_ship_only_their_own_increments(self, monkeypatch):
        barrier = threading.Barrier(2, timeout=30)

        def execute(self, metrics=None, cache_dir=None):
            obs_counters.increment("grid.cells_accounted")
            barrier.wait()  # both jobs have counted before either ends
            return types.SimpleNamespace(text="artifact")

        monkeypatch.setattr(JobSpec, "execute", execute)
        store = create_store("sqlite://:memory:", queue_limit=16)
        try:
            ids = [store.submit(TABLE1) for _ in range(2)]
            source = RecordingSource(store)
            agent = WorkerAgent(source, workers=2, poll_interval_s=0.01)
            agent.start()
            try:
                assert wait_for(
                    lambda: all(
                        store.get(i).state == JobState.DONE for i in ids
                    )
                )
            finally:
                agent.shutdown(timeout=30)
        finally:
            store.close()
        assert [c.get("grid.cells_accounted") for c in source.shipped] == [1, 1]


@pytest.fixture
def control_plane():
    svc = ReproService(
        ServiceConfig(
            host="127.0.0.1",
            port=0,
            workers=0,
            db_path=":memory:",
            poll_interval_s=0.01,
            lease_s=60.0,
        )
    )
    svc.start()
    yield svc
    svc.shutdown(timeout=30)


@pytest.fixture
def client(control_plane):
    return ServiceClient(control_plane.url, timeout=30.0)


def push(client, counters):
    """Claim one fresh job as ``agent-1`` and complete it with
    *counters* attached."""
    job = client.submit(experiment="table1")
    client.register_site("site-a")
    client.claim_jobs("site-a", "agent-1", lease_s=60)
    item = {"id": job["id"], "ok": True, "result": "r", "counters": counters}
    [result] = client.complete_jobs("agent-1", [item])["results"]
    assert result["accepted"]


def grew(before, after, block, key):
    return after[block][key] - before[block][key]


class TestControlPlane:
    def test_pushed_executor_counters_fill_cache_and_executor(self, client):
        before = client.metrics()
        push(
            client,
            {
                "executor.cells_done": 4,
                "executor.cache_hits": 1,
                "executor.cells_computed": 3,
                "executor.trials_done": 8,
                "executor.wall_us": 2_000_000,
            },
        )
        after = client.metrics()
        assert grew(before, after, "cache", "hits") == 1
        assert grew(before, after, "cache", "computed") == 3
        assert grew(before, after, "executor", "cells_done") == 4
        assert grew(before, after, "executor", "trials_done") == 8
        assert grew(before, after, "executor", "wall_s") == pytest.approx(2.0)
        assert 0.0 < after["cache"]["hit_rate"] <= 1.0
        assert after["executor"]["trials_per_sec"] > 0.0

    def test_pushed_service_and_agent_keys_are_refused(self, client):
        before = obs_counters.snapshot()
        push(
            client,
            {
                "service.jobs_completed": 1000,
                "agent.jobs_claimed": 1000,
                "single_app.simulations": 2,
            },
        )
        after = obs_counters.snapshot()

        def grown(key):
            return after.get(key, 0) - before.get(key, 0)

        assert grown("service.jobs_completed") == 1  # the push itself
        assert grown("agent.jobs_claimed") == 0
        assert grown("single_app.simulations") == 2

    def test_remote_agent_jobs_fill_cache_and_executor(
        self, control_plane, client, tmp_path
    ):
        job = {"experiment": "fig1", "format": "json", "quick": True,
               "trials": 2}
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache-agent")
        agent = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "agent",
                "--url", control_plane.url, "--site", "counted",
                "--workers", "1", "--lease-s", "30",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(REPO_ROOT),
        )
        try:
            before = client.metrics()
            # The second run of the same job is served from the
            # agent's cache.
            for _ in range(2):
                final = client.wait(client.submit(job)["id"], timeout=180)
                assert final["state"] == "done", final
            after = client.metrics()
        finally:
            agent.send_signal(signal.SIGTERM)
            _, err = agent.communicate(timeout=60)
        assert agent.returncode == 0, err
        computed = grew(before, after, "cache", "computed")
        assert computed > 0
        assert grew(before, after, "cache", "hits") == computed
        assert grew(before, after, "executor", "cells_done") == 2 * computed
        assert grew(before, after, "executor", "trials_done") > 0
        assert (
            after["counters"]["single_app.simulations"]
            > before["counters"].get("single_app.simulations", 0)
        )
