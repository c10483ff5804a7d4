#!/usr/bin/env python
"""End-to-end smoke checks of the job service across real processes.

Usage: ``python scripts/smoke.py [check ...]``; with no argument it
runs all four checks.  Every check starts ``repro serve`` on an
ephemeral port, plus ``repro agent`` subprocesses where it needs a
fleet, and ends by sending SIGTERM to each process and asserting that
it exits 0 (graceful drain, even with SSE streams attached).

- ``service``: in-process workers.  A quick fig1 job is byte-identical
  to the direct CLI run, and a scenario campaign's artifact carries
  its provenance stamp.
- ``fleet``: a ``--workers 0`` control plane and two agents on
  separate caches (separate "hosts").  A campaign plus a job run to
  completion, the agent's artifact is byte-identical to the CLI, and
  the per-site ledger adds up.
- ``dashboard``: ``GET /`` serves the status page; a watched job's SSE
  stream delivers its lifecycle in order with live simulation events
  forwarded from the agent; a priced campaign's grid counters and the
  agent's executor counters reach ``/v1/metrics``; the stream of a
  dependent cancelled by its blocker's cancellation ends on its own
  ``job.cancelled`` event.
- ``campaign``: an adaptive campaign submitted through ``repro scenario
  submit --adaptive --wait`` converges on fewer trials than the
  exhaustive compile, with a byte-identical winning-technique table.

Exits 0 on success; any failure raises (non-zero exit).
"""

import contextlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Iterator

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.campaigns.controller import (  # noqa: E402
    best_map_from_results,
    render_best_technique_table,
)
from repro.scenarios.compiler import scenario_cells  # noqa: E402
from repro.scenarios.schema import parse_scenario  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

FIG1_JOB = {"experiment": "fig1", "format": "json", "quick": True, "trials": 4}


def env_for(cache_dir: str) -> dict:
    """A subprocess environment with its own result cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def launch(args: list, env: dict, ready: str) -> "tuple[subprocess.Popen, str]":
    """Start ``python -m repro <args>`` and return it with its first
    output line, which must contain *ready*."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if ready not in line:
        proc.kill()
        raise AssertionError(f"no {ready!r} line from repro {args[0]}: {line!r}")
    return proc, line


@contextlib.contextmanager
def service(tmp: str, workers: int = 0, sites: tuple = ()) -> Iterator[ServiceClient]:
    """Run ``repro serve`` with *workers* in-process workers and one
    ``repro agent`` per site, each with its own cache; yield a client
    once every site has registered.  On exit, SIGTERM every process
    (agents first) and assert each exits 0."""
    procs = []
    try:
        server, line = launch(
            [
                "serve", "--port", "0", "--workers", str(workers),
                "--store", f"sqlite://{os.path.join(tmp, 'service.db')}",
            ],
            env_for(os.path.join(tmp, "cache-server")),
            "listening on",
        )
        procs.append(("server", server))
        url = re.search(r"listening on (http://\S+)", line).group(1)
        client = ServiceClient(url, timeout=60.0)
        health = client.health()
        assert health["status"] == "ok", health
        assert health["workers"] == workers, health
        for site in sites:
            agent, _ = launch(
                [
                    "agent", "--url", url, "--site", site, "--workers", "1",
                    "--batch-size", "2", "--lease-s", "60",
                ],
                env_for(os.path.join(tmp, f"cache-{site}")),
                f"serving site {site}",
            )
            procs.append((f"agent {site}", agent))
        deadline = time.monotonic() + 30
        names: set = set()
        while not names >= set(sites):
            assert time.monotonic() < deadline, f"sites never registered: {names}"
            time.sleep(0.2)
            names = {s["name"] for s in client.list_sites()["sites"]}
        print(f"[smoke] {url}: {workers} in-process workers, agents {list(sites)}")
        yield client
    finally:
        for name, proc in reversed(procs):
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise AssertionError(f"{name} did not exit after SIGTERM")
            assert proc.returncode == 0, f"{name} exited {proc.returncode}"
    print("[smoke] graceful SIGTERM shutdown, every process exited 0")


def assert_matches_cli(fetched: str, tmp: str) -> None:
    """The fetched FIG1_JOB artifact must equal a direct CLI run's
    stdout (the CLI appends one newline when printing it)."""
    direct = subprocess.run(
        [
            sys.executable, "-m", "repro", "fig1", "--quick", "--trials", "4",
            "--format", "json", "--no-cache",
        ],
        capture_output=True,
        text=True,
        env=env_for(os.path.join(tmp, "cache-direct")),
        check=True,
    ).stdout
    assert fetched + "\n" == direct, (
        "service artifact differs from direct CLI run:\n"
        f"--- service ({len(fetched)} bytes)\n{fetched[:400]}\n"
        f"--- direct ({len(direct)} bytes)\n{direct[:400]}"
    )
    print(f"[smoke] artifact byte-identical to the CLI ({len(fetched)} bytes)")


def check_service(tmp: str) -> None:
    """In-process workers: job vs CLI, metrics, campaign provenance."""
    with service(tmp, workers=1) as client:
        job = client.submit(FIG1_JOB)
        final = client.wait(job["id"], timeout=600.0, poll_s=0.5)
        assert final["state"] == "done", final
        assert_matches_cli(client.result(job["id"]), tmp)

        metrics = client.metrics()
        assert metrics["jobs"]["accepted"] >= 1, metrics
        assert metrics["jobs"]["completed"] >= 1, metrics
        assert metrics["queue"]["depth"] == 0, metrics
        print(f"[service] metrics ok: {metrics['jobs']}")

        campaign = client.submit_campaign(
            scenario="weibull-aging", quick=True, format="csv"
        )
        assert len(campaign["spec_sha256"]) == 64, campaign
        [unit] = campaign["units"]
        final = client.wait(unit["job"]["id"], timeout=600.0, poll_s=0.5)
        assert final["state"] == "done", final
        header = client.result(unit["job"]["id"]).splitlines()[0]
        assert "scenario=weibull-aging" in header, header
        assert campaign["spec_sha256"] in header, header
        print("[service] campaign artifact carries its provenance stamp")


def check_fleet(tmp: str) -> None:
    """Two agents: every job done, artifact vs CLI, per-site ledger."""
    with service(tmp, sites=("fleet-a", "fleet-b")) as client:
        campaign = client.submit_campaign(
            scenario="weibull-aging", quick=True, format="csv"
        )
        job = client.submit(FIG1_JOB)
        waiting = [u["job"]["id"] for u in campaign["units"]] + [job["id"]]
        finals = [
            client.wait(job_id, timeout=600.0, poll_s=0.5) for job_id in waiting
        ]
        assert all(f["state"] == "done" for f in finals), finals
        sites_used = {f["site"] for f in finals}
        assert sites_used <= {"fleet-a", "fleet-b"}, finals
        print(f"[fleet] {len(waiting)} jobs done by {sorted(sites_used)}")
        assert_matches_cli(client.result(job["id"]), tmp)

        sites = client.metrics()["sites"]
        completed = sum(s.get("completed", 0) for s in sites.values())
        assert completed == len(waiting), sites
        for name in ("fleet-a", "fleet-b"):
            assert sites[name]["state"] == "active", sites
            assert sites[name]["last_heartbeat_age_s"] < 120, sites
        print(f"[fleet] per-site metrics add up: {sites}")


# A tiny priced scenario: one cell, three trials, flat curves — just
# enough for the remote agent to account dollars and grams.
GRID_SPEC = {
    "scenario": {"name": "dash-grid-smoke"},
    "failures": {"regime": "poisson", "mtbf_years": 5.0},
    "workload": {"study": "scaling", "app_type": "A32", "fractions": [0.01]},
    "techniques": {"names": ["checkpoint_restart"]},
    "run": {"trials": 3},
    "grid": {
        "objective": "cost",
        "start_hour": 8.0,
        "price": {"kind": "flat", "level": 0.12},
        "carbon": {"kind": "flat", "level": 400.0},
    },
}


def check_dashboard(tmp: str) -> None:
    """Status page, watched job over SSE, agent-pushed counters."""
    with service(tmp, sites=("dash-1",)) as client:
        with urllib.request.urlopen(client.base_url + "/", timeout=30) as resp:
            assert resp.status == 200, resp.status
            ctype = resp.headers["Content-Type"]
            assert ctype.startswith("text/html"), ctype
            body = resp.read().decode("utf-8")
        for needle in (
            "repro fleet status",
            "/v1/metrics/stream",
            "/v1/events",
            # The grid cost/carbon ticker cards and their renderers.
            'id="c-cost"',
            'id="c-carbon"',
            "grid cost (USD)",
            "grid carbon (kg)",
            "m.grid",
        ):
            assert needle in body, f"dashboard page missing {needle!r}"
        print(f"[dashboard] GET / serves the status page ({len(body)} bytes)")

        # Park the watched job behind a blocker so its SSE stream (and
        # therefore its watch) is open before it runs; the claim
        # response then tells the agent to forward its live events.
        job = dict(FIG1_JOB, trials=2)
        blocker = client.submit(dict(job, trials=1))
        target = client.submit(dict(job, depends_on=[blocker["id"]]))
        frames = list(client.iter_events(job_id=target["id"], last_event_id=0))
        assert frames[0]["event"] == "snapshot", frames[0]
        assert frames[-1]["event"] == "end", frames[-1]
        kinds = [f["data"]["kind"] for f in frames if f["event"] == "event"]
        for earlier, later in (
            ("job.submitted", "job.claimed"),
            ("job.claimed", "sim.TrialStarted"),
            ("sim.TrialStarted", "job.done"),
        ):
            assert earlier in kinds, (earlier, kinds)
            assert later in kinds, (later, kinds)
            assert kinds.index(earlier) < kinds.index(later), (earlier, later, kinds)
        assert frames[-1]["data"]["kind"] == "job.done", frames[-1]
        sim_frames = [
            f
            for f in frames
            if f["event"] == "event" and f["data"]["kind"].startswith("sim.")
        ]
        assert sim_frames, "no live simulation events were forwarded"
        assert all(f["data"].get("site") == "dash-1" for f in sim_frames), (
            sim_frames[:3]
        )
        print(
            f"[dashboard] SSE delivered {len(kinds)} events in order "
            f"({len(sim_frames)} live simulation events from dash-1)"
        )

        assert client.status(target["id"])["state"] == "done"
        metrics = client.metrics()
        telemetry = metrics["telemetry"]
        assert telemetry["ring"]["last_seq"] >= len(kinds), telemetry
        assert telemetry["watched_jobs"] == 0, telemetry
        print(f"[dashboard] metrics telemetry block: {json.dumps(telemetry)}")
        # The control plane runs nothing itself: these numbers are the
        # counter scopes the agent pushed with its completions.
        assert metrics["executor"]["cells_done"] > 0, metrics["executor"]
        print(
            f"[dashboard] agent-pushed executor block: "
            f"{json.dumps(metrics['executor'])}, cache {json.dumps(metrics['cache'])}"
        )

        before = metrics["grid"]
        campaign = client.submit_campaign(spec=GRID_SPEC, format="json")
        for unit in campaign["units"]:
            record = client.wait(unit["job"]["id"], timeout=120.0)
            assert record["state"] == "done", record
        after = client.metrics()["grid"]
        for key in ("cells_accounted", "cost_usd", "carbon_g", "energy_kwh"):
            assert after[key] > before[key], (key, after)
        print(
            f"[dashboard] grid campaign accounted on the agent: "
            f"${after['cost_usd'] - before['cost_usd']:.2f}, "
            f"{after['carbon_g'] - before['carbon_g']:.0f} gCO2 "
            f"({after['cells_accounted'] - before['cells_accounted']} cell(s))"
        )

        # The store narrates the cascades it makes on its own: cancelling
        # a blocker ends its dependent's stream on the dependent's own
        # event, not on the idle ring's heartbeat.  The uncached gate
        # job keeps the blocker blocked while it is cancelled.
        gate = client.submit(dict(FIG1_JOB, cache=False))
        blocker = client.submit(dict(FIG1_JOB, depends_on=[gate["id"]]))
        dependent = client.submit(dict(FIG1_JOB, depends_on=[blocker["id"]]))
        stream = client.iter_events(job_id=dependent["id"])
        assert next(stream)["event"] == "snapshot"
        started = time.monotonic()
        client.cancel(blocker["id"])
        frames = list(stream)
        elapsed = time.monotonic() - started
        assert frames and frames[-1]["event"] == "end", frames
        assert frames[-1]["data"].get("kind") == "job.cancelled", frames[-1]
        assert elapsed < 5.0, elapsed
        print(
            f"[dashboard] cascade-cancelled dependent's stream ended "
            f"{elapsed:.2f} s after its blocker's cancel"
        )


MAX_TRIALS = 12

CAMPAIGN_TOML = """\
[scenario]
name = "campaign-smoke"

[platform]
total_nodes = 20000

[failures]
regime = "poisson"
mtbf_years = 5.0

[workload]
study = "scaling"
app_type = "A32"
fractions = [0.1, 0.9]

[techniques]
names = ["checkpoint_restart", "multilevel"]

[adaptive]
max_trials = 12
batch_size = 4
ci_rel_threshold = 0.05
refine_depth = 0
"""

CAMPAIGN_DOC = {
    "scenario": {"name": "campaign-smoke"},
    "platform": {"total_nodes": 20000},
    "failures": {"regime": "poisson", "mtbf_years": 5.0},
    "workload": {"study": "scaling", "app_type": "A32", "fractions": [0.1, 0.9]},
    "techniques": {"names": ["checkpoint_restart", "multilevel"]},
    "run": {"trials": MAX_TRIALS},
}


def exhaustive_table(client: ServiceClient) -> str:
    """The winning-technique table of CAMPAIGN_DOC run exhaustively at
    the full trial budget, via the shared renderer."""
    campaign = client.submit_campaign(
        spec=CAMPAIGN_DOC, adaptive=False, format="json", cache=False
    )
    best: dict = {}
    for unit in campaign["units"]:
        job_id = unit["job"]["id"]
        final = client.wait(job_id, timeout=600.0, poll_s=0.2)
        assert final["state"] == "done", final
        best.update(best_map_from_results(json.loads(client.result(job_id))))
    spec = parse_scenario(CAMPAIGN_DOC, source="<smoke>")
    cells = scenario_cells(spec)
    axis = spec.sweep.axis if spec.sweep is not None else None
    axis_values = list(dict.fromkeys(c.axis_value for c in cells))
    fractions = sorted(dict.fromkeys(c.fraction for c in cells))
    return render_best_technique_table(axis, axis_values, fractions, best)


def check_campaign(tmp: str) -> None:
    """Adaptive campaign via the CLI: converges, saves trials, and its
    table byte-matches an exhaustive run."""
    spec_path = os.path.join(tmp, "campaign-smoke.toml")
    with open(spec_path, "w") as handle:
        handle.write(CAMPAIGN_TOML)
    env = env_for(os.path.join(tmp, "cache-cli"))
    with service(tmp, sites=("campaign-smoke",)) as client:
        url = client.base_url
        submit = subprocess.run(
            [
                sys.executable, "-m", "repro", "scenario", "submit", spec_path,
                "--url", url, "--adaptive", "--wait", "--timeout", "600",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        print(submit.stderr, end="", file=sys.stderr)
        assert submit.returncode == 0, (
            f"scenario submit exited {submit.returncode}:\n"
            f"{submit.stdout}\n{submit.stderr}"
        )
        match = re.search(r"id ([0-9a-f]+),", submit.stderr)
        assert match, f"no campaign id in stderr: {submit.stderr!r}"
        adaptive_table = submit.stdout.rstrip("\n")
        assert adaptive_table, "no table on stdout"

        status = json.loads(
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "campaign", "status",
                    match.group(1), "--url", url,
                ],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout
        )
        assert status["state"] == "done", status
        assert all(c["settled"] for c in status["cells"]), status
        trials = status["trials"]
        cells = scenario_cells(parse_scenario(CAMPAIGN_DOC, source="<smoke>"))
        exhaustive_budget = MAX_TRIALS * len(cells)
        assert trials["exhaustive"] == exhaustive_budget, trials
        assert trials["executed"] < exhaustive_budget, (
            f"adaptive executed {trials['executed']} trials, no fewer "
            f"than the exhaustive compile's {exhaustive_budget}"
        )
        print(
            f"[campaign] converged: {trials['executed']} trials vs "
            f"{exhaustive_budget} exhaustive ({trials['reduction']:.2f}x reduction)"
        )

        expected = exhaustive_table(client)
        assert adaptive_table == expected, (
            "adaptive table differs from exhaustive run:\n"
            f"--- adaptive\n{adaptive_table}\n--- exhaustive\n{expected}"
        )
        print("[campaign] winning-technique table byte-identical")


CHECKS = {
    "service": check_service,
    "fleet": check_fleet,
    "dashboard": check_dashboard,
    "campaign": check_campaign,
}


def main(names: list) -> int:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print(
            f"usage: smoke.py [{'|'.join(CHECKS)} ...]; unknown: {unknown}",
            file=sys.stderr,
        )
        return 2
    for name in names or list(CHECKS):
        with tempfile.TemporaryDirectory() as tmp:
            CHECKS[name](tmp)
        print(f"[{name}] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
