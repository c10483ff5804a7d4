"""``POST /v1/campaigns``: scenario campaigns over HTTP.

Covers the acceptance criteria: bundled scenarios (including Weibull,
burst-storm, and trace-replay regimes) execute end-to-end through the
service, and schema violations come back as 400s with the same
field-path-qualified one-line message the CLI prints.
"""

import pytest

from repro.scenarios import load_named, spec_sha256
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError


def inline_spec(**overrides):
    doc = {
        "scenario": {"name": "inline"},
        "failures": {"regime": "poisson", "mtbf_years": 5.0},
        "workload": {
            "study": "scaling",
            "app_type": "A32",
            "fractions": [0.01],
        },
        "techniques": {"names": ["checkpoint_restart"]},
        "run": {"trials": 2},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def service():
    svc = ReproService(
        ServiceConfig(
            host="127.0.0.1",
            port=0,
            workers=1,
            db_path=":memory:",
            poll_interval_s=0.01,
        )
    )
    svc.start()
    yield svc
    svc.shutdown(timeout=30)


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout=30.0)


class TestSubmission:
    def test_bundled_campaign_runs_to_done(self, client):
        campaign = client.submit_campaign(scenario="weibull-aging", quick=True)
        assert campaign["scenario"] == "weibull-aging"
        assert campaign["spec_sha256"] == spec_sha256(
            load_named("weibull-aging")
        )
        assert len(campaign["units"]) == 1
        job_id = campaign["units"][0]["job"]["id"]
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        assert "analytic model bypassed" in client.result(job_id)

    def test_trace_replay_campaign_round_trips_the_trace(self, client):
        """The embedded trace must survive the job store: replay jobs
        are self-contained, no path resolution happens on the worker."""
        campaign = client.submit_campaign(scenario="trace-replay", quick=True)
        job_id = campaign["units"][0]["job"]["id"]
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        text = client.result(job_id)
        assert "trace replay" in text or "recorded failure" in text

    def test_burst_storm_campaign_accepted(self, client):
        campaign = client.submit_campaign(scenario="burst-storm", quick=True)
        job_id = campaign["units"][0]["job"]["id"]
        assert client.wait(job_id, timeout=300)["state"] == "done"

    def test_inline_spec_with_provenance_in_result(self, client):
        campaign = client.submit_campaign(
            spec=inline_spec(), quick=True, format="csv"
        )
        job_id = campaign["units"][0]["job"]["id"]
        assert client.wait(job_id, timeout=300)["state"] == "done"
        first_line = client.result(job_id).splitlines()[0]
        assert first_line.startswith("# scenario=inline")
        assert campaign["spec_sha256"] in first_line

    def test_notes_surface_compiler_decisions(self, client):
        campaign = client.submit_campaign(scenario="fig1", quick=True)
        assert any("lowered to fig1" in n for n in campaign["notes"])


class TestValidation:
    def test_unknown_bundled_name_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(scenario="no-such-study")
        assert excinfo.value.status == 400
        assert "no-such-study" in excinfo.value.message

    def test_schema_violation_400_with_field_path(self, client):
        bad = inline_spec(failures={"regime": "weibull"})
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(spec=bad)
        assert excinfo.value.status == 400
        assert "failures.shape" in excinfo.value.message

    def test_both_scenario_and_spec_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(scenario="fig1", spec=inline_spec())
        assert excinfo.value.status == 400

    def test_neither_scenario_nor_spec_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(quick=True)
        assert excinfo.value.status == 400

    def test_unknown_field_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(scenario="fig1", bogus=1)
        assert excinfo.value.status == 400
        assert "bogus" in excinfo.value.message

    def test_bad_format_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(scenario="fig1", format="yaml")
        assert excinfo.value.status == 400

    def test_nothing_enqueued_on_rejection(self, client, service):
        before = service.store.counts()
        with pytest.raises(ServiceError):
            client.submit_campaign(spec=inline_spec(failures={"regime": "x"}))
        assert service.store.counts() == before


def adaptive_spec(**overrides):
    """A small two-technique sweep that converges in a handful of
    batches on a 20k-node platform (cheap trials, clear winner)."""
    doc = {
        "scenario": {"name": "adaptive-inline"},
        "platform": {"total_nodes": 20000},
        "failures": {"regime": "poisson", "mtbf_years": 5.0},
        "workload": {
            "study": "scaling",
            "app_type": "A32",
            "fractions": [0.1, 0.9],
        },
        "techniques": {"names": ["checkpoint_restart", "multilevel"]},
        "adaptive": {
            "max_trials": 12,
            "batch_size": 4,
            "ci_rel_threshold": 0.05,
            "refine_depth": 0,
        },
    }
    doc.update(overrides)
    return doc


class TestAdaptiveCampaigns:
    def test_converges_with_fewer_trials_than_exhaustive(self, client):
        campaign = client.submit_campaign(spec=adaptive_spec())
        assert campaign["adaptive"]["max_trials"] == 12
        assert campaign["units"] == []
        assert campaign["cells"] == 4
        status = client.wait_campaign(campaign["id"], timeout=300)
        assert status["state"] == "done"
        assert all(cell["settled"] for cell in status["cells"])
        trials = status["trials"]
        assert trials["executed"] < trials["exhaustive"]
        assert trials["reduction"] > 1.0
        # The rendered winning-technique table appears once done.
        assert "10%" in status["table"] and "90%" in status["table"]

    def test_early_stop_skips_the_unconsumed_tail(self, client, service):
        """A converged cell consumes only a prefix of its batch chain.
        (Whether the tail ends up cancelled or had already finished
        when the cancel landed is a race against the worker; the
        store-level cascade tests pin the cancellation semantics.)"""
        campaign = client.submit_campaign(spec=adaptive_spec())
        status = client.wait_campaign(campaign["id"], timeout=300)
        converged = [c for c in status["cells"] if c["converged"]]
        assert converged, "expected at least one early-stopped cell"
        consumed = sum(c["jobs_consumed"] for c in status["cells"])
        assert consumed < status["jobs"]["total"]
        for cell in converged:
            assert cell["jobs_consumed"] < cell["jobs_total"]

    def test_adaptive_results_match_exhaustive_prefix(self, client):
        """Byte-determinism: a converged cell's consumed batches are
        the exact prefix of an exhaustive run of the same spec."""
        from repro.scenarios.runtime import run_scenario
        from repro.scenarios.schema import parse_scenario

        doc = adaptive_spec()
        doc["workload"]["fractions"] = [0.1]
        doc["techniques"]["names"] = ["checkpoint_restart"]
        campaign = client.submit_campaign(spec=doc)
        status = client.wait_campaign(campaign["id"], timeout=300)
        cell = status["cells"][0]
        spec = parse_scenario(doc, source="<test>")
        full = run_scenario(spec, trials=cell["trials"])
        expected = full[0][1].cells[0].stats
        assert cell["mean_efficiency"] == expected.mean
        assert cell["std_efficiency"] == expected.std

    def test_status_endpoint_and_unknown_id_404(self, client):
        campaign = client.submit_campaign(spec=adaptive_spec())
        status = client.campaign_status(campaign["id"])
        assert status["id"] == campaign["id"]
        assert status["adaptive"]["batch_size"] == 4
        assert {"executed", "exhaustive", "reduction"} <= set(
            status["trials"]
        )
        with pytest.raises(ServiceError) as excinfo:
            client.campaign_status("no-such-campaign")
        assert excinfo.value.status == 404

    def test_static_campaign_is_tracked_too(self, client):
        campaign = client.submit_campaign(scenario="fig1", quick=True)
        assert "id" in campaign
        status = client.campaign_status(campaign["id"])
        assert status["adaptive"] is None
        assert len(status["units"]) == len(campaign["units"])

    def test_adaptive_false_overrides_spec_section(self, client):
        campaign = client.submit_campaign(
            spec=adaptive_spec(), adaptive=False
        )
        # Static path: one unit per compiled request, no controller.
        assert campaign["units"]
        assert "cells" not in campaign

    def test_adaptive_true_uses_spec_defaults(self, client):
        campaign = client.submit_campaign(spec=adaptive_spec(), adaptive=True)
        assert campaign["adaptive"]["batch_size"] == 4

    def test_adaptive_object_overrides_spec(self, client):
        campaign = client.submit_campaign(
            spec=adaptive_spec(), adaptive={"batch_size": 6}
        )
        assert campaign["adaptive"]["batch_size"] == 6
        assert campaign["adaptive"]["max_trials"] == 12


class TestAdaptiveValidation:
    def test_quick_plus_adaptive_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(spec=adaptive_spec(), quick=True)
        assert excinfo.value.status == 400
        assert "quick" in excinfo.value.message

    def test_format_plus_adaptive_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(spec=adaptive_spec(), format="csv")
        assert excinfo.value.status == 400
        assert "format" in excinfo.value.message

    def test_trace_spec_with_adaptive_flag_400(self, client):
        doc = {
            "scenario": {"name": "trace-adaptive"},
            "failures": {"regime": "trace", "trace_file": "x.jsonl"},
            "workload": {
                "study": "scaling",
                "app_type": "A32",
                "fractions": [0.05],
            },
        }
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(spec=doc, adaptive=True)
        assert excinfo.value.status == 400
        assert "trace replay" in excinfo.value.message

    def test_bad_adaptive_object_field_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(
                spec=adaptive_spec(), adaptive={"max_trials": 1}
            )
        assert excinfo.value.status == 400
        assert "max_trials" in excinfo.value.message

    def test_adaptive_must_be_bool_or_object_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(spec=adaptive_spec(), adaptive="yes")
        assert excinfo.value.status == 400

    def test_nothing_enqueued_on_adaptive_rejection(self, client, service):
        before = service.store.counts()
        with pytest.raises(ServiceError):
            client.submit_campaign(
                spec=adaptive_spec(), adaptive={"batch_size": 99}
            )
        assert service.store.counts() == before


class TestCampaignExecutorSettings:
    def test_probes_keep_the_campaign_jobs_and_cache(self, client, service):
        """Refinement probes are submitted by the controller thread
        long after the request returned; they must still carry the
        campaign's ``jobs``/``cache``, like its base wave."""
        doc = {
            "scenario": {"name": "probe-settings"},
            "platform": {"total_nodes": 50000},
            "failures": {"regime": "poisson", "mtbf_years": 2.5},
            "workload": {
                "study": "scaling",
                "app_type": "D64",
                "fractions": [0.05, 0.8],
            },
            "techniques": {"names": ["multilevel", "parallel_recovery"]},
            "adaptive": {
                "max_trials": 12,
                "batch_size": 4,
                "ci_rel_threshold": 0.3,
                "refine_depth": 1,
            },
            "run": {"seed": 7},
        }
        campaign = client.submit_campaign(spec=doc, cache=False, jobs=2)
        status = client.wait_campaign(campaign["id"], timeout=300)
        assert status["state"] == "done"
        assert any(cell["probe"] for cell in status["cells"])
        job_ids = service.campaigns.get(campaign["id"]).all_job_ids()
        settings = {
            (spec["jobs"], spec["cache"])
            for spec in (service.store.get(i).spec for i in job_ids)
        }
        assert settings == {(2, False)}
