"""Grid counters across the process boundary: protocol validation,
control-plane merging of agent-shipped deltas, and the /v1/metrics
grid block."""

import pytest

from repro.obs import counters as obs_counters
from repro.service.protocol import ValidationError, parse_complete_request
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient


def complete_body(job_id, counters=None):
    item = {"id": job_id, "ok": True, "result": "artifact"}
    if counters is not None:
        item["counters"] = counters
    return {"worker": "agent-1", "results": [item]}


class TestProtocol:
    def test_counters_accepted(self):
        worker, [item] = parse_complete_request(
            complete_body("j1", {"grid.cost_microusd": 5, "grid.energy_j": 0})
        )
        assert worker == "agent-1"
        assert item.counters == {"grid.cost_microusd": 5, "grid.energy_j": 0}

    def test_absent_counters_default_none(self):
        _, [item] = parse_complete_request(complete_body("j1"))
        assert item.counters is None

    def test_bool_values_rejected(self):
        with pytest.raises(ValidationError, match="counters"):
            parse_complete_request(
                complete_body("j1", {"grid.cells_accounted": True})
            )

    def test_non_int_values_rejected(self):
        with pytest.raises(ValidationError, match="counters"):
            parse_complete_request(
                complete_body("j1", {"grid.cost_microusd": 1.5})
            )

    def test_non_dict_rejected(self):
        with pytest.raises(ValidationError, match="counters"):
            parse_complete_request(complete_body("j1", [1, 2]))

    def test_payload_round_trip(self):
        _, [item] = parse_complete_request(
            complete_body("j1", {"grid.carbon_mg": 7})
        )
        assert item.to_payload()["counters"] == {"grid.carbon_mg": 7}
        # Counter-less items stay wire-compatible with old agents.
        _, [plain] = parse_complete_request(complete_body("j1"))
        assert "counters" not in plain.to_payload()


@pytest.fixture
def paused_service():
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
    svc.shutdown(timeout=10)


@pytest.fixture
def client(paused_service):
    return ServiceClient(paused_service.url, timeout=30.0)


def claimed_job(client):
    job = client.submit(experiment="table1")
    client.register_site("site-a")
    client.claim_jobs("site-a", "agent-1", lease_s=60)
    return job


class TestControlPlaneMerge:
    def test_grid_deltas_land_in_metrics(self, client):
        job = claimed_job(client)
        before = client.metrics()["grid"]
        client.complete_jobs(
            "agent-1",
            [
                {
                    "id": job["id"],
                    "ok": True,
                    "result": "r",
                    "counters": {
                        "grid.cost_microusd": 5_000_000,
                        "grid.carbon_mg": 2_000_000,
                        "grid.energy_j": 7_200_000,
                        "grid.cells_accounted": 3,
                    },
                }
            ],
        )
        after = client.metrics()["grid"]
        assert after["cost_usd"] - before["cost_usd"] == pytest.approx(5.0)
        assert after["carbon_g"] - before["carbon_g"] == pytest.approx(2000.0)
        assert after["energy_kwh"] - before["energy_kwh"] == pytest.approx(2.0)
        assert after["cells_accounted"] - before["cells_accounted"] == 3

    def test_only_grid_namespace_is_merged(self, client):
        job = claimed_job(client)
        before = obs_counters.snapshot()
        client.complete_jobs(
            "agent-1",
            [
                {
                    "id": job["id"],
                    "ok": True,
                    "result": "r",
                    "counters": {
                        "grid.cells_accounted": 1,
                        "sim.events": 999_999,
                        "cache.hits": 50,
                    },
                }
            ],
        )
        after = obs_counters.snapshot()
        delta = {key: n - before.get(key, 0) for key, n in after.items()}
        assert delta.get("grid.cells_accounted", 0) == 1
        # Agents cannot inflate non-grid observability counters.
        assert delta.get("sim.events", 0) == 0
        assert delta.get("cache.hits", 0) == 0

    def test_duplicate_completion_counts_once(self, client):
        job = claimed_job(client)
        before = client.metrics()["grid"]
        push = [
            {
                "id": job["id"],
                "ok": True,
                "result": "r",
                "counters": {"grid.cells_accounted": 2},
            }
        ]
        assert client.complete_jobs("agent-1", push)["results"][0]["accepted"]
        # The agent's retry and a stale worker are both rejected, so
        # neither merges the delta again.
        client.complete_jobs("agent-1", push)
        client.complete_jobs("agent-0", push)
        after = client.metrics()["grid"]
        assert after["cells_accounted"] - before["cells_accounted"] == 2

    def test_metrics_grid_block_shape(self, client):
        grid = client.metrics()["grid"]
        assert set(grid) == {
            "cost_usd",
            "carbon_g",
            "energy_kwh",
            "cells_accounted",
        }
