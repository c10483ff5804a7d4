"""The fleet workloads: ``service`` and ``campaign``.

Both drive a real control plane (``repro serve --workers 0`` over a
file-backed SQLite store) plus one real ``repro agent`` subprocess,
over HTTP with the client SDK:

- ``service``: a closed loop of two client threads.  Each submits a
  small scaling scenario with ``POST /v1/campaigns``, polls
  ``GET /v1/jobs/{id}`` until the job is terminal and fetches the
  result.  One submission in four repeats an input of an earlier
  round, which the agent serves from its result cache.  A round is
  four jobs per client.  Clients never watch a job: watching switches
  it to the stepped path.
- ``campaign``: one adaptive campaign at a time (store job
  dependencies, cascade cancels and the campaign controller).  A round
  is a new campaign and then a repeat of it, whose batch jobs the
  agent serves from its cache.

Wall times and latencies here are plain seconds: they mostly wait on
polls, sockets and the other processes, which a faster host does not
shorten in proportion, and a probe run while those processes are busy
would time their contention rather than the host.  CPU time is scaled
to the reference host like every CPU-bound timing (see :mod:`speed`),
from probes taken while the fleet is idle; so is set-up.

In a traced run the two subprocesses start through :mod:`launch`,
which installs the layer wrappers and hands the span aggregates back
when the process drains on SIGTERM.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import gen
import speed
from host import cpu_s
from record import FleetSamples, Recorder, Round
from spans import SpanStats, load_dump, merge

HERE = Path(__file__).resolve().parent
TERMINAL = ("done", "failed", "cancelled")
POLL_S = 0.01
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
SITE = "perfbench"
#: Speed-probe window around fleet rounds: median of 3 kernel runs
#: after a 30 ms pause, so the server and agent are idle.
QUIET = (3, 0.03)


class FleetError(RuntimeError):
    """The control plane or agent did not come up."""


class Fleet:
    """One control plane plus one agent, with their own store and caches."""

    def __init__(self, src: Path, tmp: Path, tag: str, traced: bool) -> None:
        self.src = src
        self.tmp = tmp
        self.tag = tag
        self.traced = traced
        self.procs: Dict[str, subprocess.Popen] = {}
        self.url = ""

    def _env(self, role: str) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["REPRO_CACHE_DIR"] = str(self.tmp / f"{self.tag}-{role}-cache")
        env.pop("PERFBENCH_SPANS_OUT", None)
        if self.traced:
            env["PERFBENCH_SPANS_OUT"] = str(self._dump_path(role))
        return env

    def _dump_path(self, role: str) -> Path:
        return self.tmp / f"{self.tag}-{role}-spans.json"

    def _spawn(self, role: str, args: List[str], ready: str) -> re.Match:
        if self.traced:
            cmd = [sys.executable, "-u", str(HERE / "launch.py"), role] + args
        else:
            cmd = [sys.executable, "-u", "-m", "repro"] + args
        log = self.tmp / f"{self.tag}-{role}.log"
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                cmd,
                stdout=out,
                stderr=subprocess.STDOUT,
                env=self._env(role),
                cwd=str(self.tmp),
            )
        self.procs[role] = proc
        deadline = time.monotonic() + START_TIMEOUT_S
        pattern = re.compile(ready)
        while time.monotonic() < deadline:
            match = pattern.search(log.read_text(errors="replace"))
            if match:
                return match
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise FleetError(f"{role} did not start: {log.read_text(errors='replace')[-400:]}")

    def start(self) -> None:
        """Start both processes; returns once the agent's site is
        registered with the control plane."""
        from repro.service.client import ServiceClient

        match = self._spawn(
            "server",
            [
                "serve",
                "--port", "0",
                "--workers", "0",
                "--store", f"sqlite://{self.tmp / (self.tag + '.db')}",
                "--queue-limit", "4096",
            ],
            r"listening on (http://\S+)",
        )
        self.url = match.group(1)
        self._spawn(
            "agent",
            ["agent", "--url", self.url, "--site", SITE, "--workers", "1", "--lease-s", "60"],
            r"serving site",
        )
        self.client = ServiceClient(self.url, timeout=30.0)
        sites = self.client.list_sites()["sites"]
        if not any(site["name"] == SITE for site in sites):
            raise FleetError("agent site not registered")

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc in self.procs.values() if proc.poll() is None]

    def stop(self, rec: Recorder) -> Dict[str, SpanStats]:
        """SIGTERM the agent, then the server; each must exit 0 in time.
        A leaked or failing process counts as a failed operation.
        Returns the merged span aggregates of a traced fleet."""
        for role in ("agent", "server"):
            proc = self.procs.get(role)
            if proc is None:
                continue
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            rec.op(code == 0, f"{role} exit {code} after SIGTERM")
        self.procs = {}
        parts = []
        self.intervals: List[Tuple[str, float, float]] = []
        if self.traced:
            for role in ("agent", "server"):
                path = self._dump_path(role)
                if path.exists():
                    stats, intervals = load_dump(str(path))
                    parts.append(stats)
                    self.intervals.extend(intervals)
        return merge(parts)


def setup_fleet(src: Path, tmp: Path, tag: str, traced: bool, rec: Recorder, warm_doc) -> Fleet:
    """Start a fleet and push one warm-up job through it; appends the
    set-up time (mostly the two interpreters' imports, so CPU-bound and
    scaled to the reference host) to ``rec.setup_s``."""
    fleet = Fleet(src, tmp, tag, traced)
    with speed.window(*QUIET) as window:
        start = time.perf_counter()
        try:
            fleet.start()
            _job(fleet.client, warm_doc, None)
        except BaseException:
            fleet.stop(rec)
            raise
        elapsed = time.perf_counter() - start
    rec.setup_s.append(elapsed * window.scale)
    return fleet


class JobResult:
    """Client-side view of one service job."""

    def __init__(self) -> None:
        self.text: Optional[str] = None
        self.state = ""
        self.latency_s = 0.0
        self.polls = 0
        self.record: Dict[str, Any] = {}
        self.seen_done = 0.0
        self.intervals: List[Tuple[str, float, float]] = []


def _job(client, doc: Dict[str, Any], tracer) -> JobResult:
    """Submit *doc*, poll the job to a terminal state, fetch the result."""
    out = JobResult()
    start = time.perf_counter()
    t0 = time.time()
    campaign = client.submit_campaign(spec=doc, cache=True)
    out.intervals.append(("http.submit", t0, time.time()))
    job_id = campaign["units"][0]["job"]["id"]
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        t0 = time.time()
        status = client.status(job_id)
        out.seen_done = time.time()
        out.intervals.append(("http.status", t0, out.seen_done))
        out.polls += 1
        if status["state"] in TERMINAL or time.monotonic() > deadline:
            break
        time.sleep(POLL_S)
    out.state = status["state"]
    out.record = status
    if out.state == "done":
        t0 = time.time()
        out.text = client.result(job_id)
        out.intervals.append(("http.result", t0, time.time()))
    out.latency_s = time.perf_counter() - start
    if tracer is not None:
        for name, a, b in out.intervals:
            tracer.record(name, a, b)
    return out


def _job_trials(doc: Dict[str, Any]) -> int:
    return (
        doc["run"]["trials"]
        * len(doc["workload"]["fractions"])
        * len(doc["techniques"]["names"])
    )


class ServiceLoop:
    """The ``service`` workload's closed loop and its checks."""

    CLIENTS = 2
    JOBS_PER_CLIENT = 4
    WARM_INDEX = -1

    def __init__(self, rec: Recorder, seed: int, fs: FleetSamples) -> None:
        self.rec = rec
        self.seed = seed
        self.fs = fs
        self.fresh = 0
        #: Inputs of finished rounds; repeats draw from these.
        self.done_inputs: List[int] = [self.WARM_INDEX]
        self.results: Dict[int, List[str]] = {}
        self.rng = random.Random(f"perfbench/service-plan/{seed}")

    def doc(self, index: int) -> Dict[str, Any]:
        return gen.service_doc(self.seed, index)

    def plan_round(self) -> List[Tuple[int, bool]]:
        """Input index and repeat flag of each job of the next round."""
        plan = []
        for position in range(self.CLIENTS * self.JOBS_PER_CLIENT):
            if position % 4 == 3:
                plan.append((self.rng.choice(self.done_inputs), True))
            else:
                plan.append((self.fresh, False))
                self.fresh += 1
        return plan

    def round(self, fleet: Fleet) -> None:
        plan = self.plan_round()
        per_client = [
            plan[k * self.JOBS_PER_CLIENT:(k + 1) * self.JOBS_PER_CLIENT]
            for k in range(self.CLIENTS)
        ]
        outputs: List[List[Tuple[int, bool, JobResult]]] = [[] for _ in per_client]
        errors: List[str] = []

        def client_loop(k: int) -> None:
            from repro.service.client import ServiceClient

            client = ServiceClient(fleet.url, timeout=30.0)
            for index, repeat in per_client[k]:
                try:
                    outputs[k].append((index, repeat, _job(client, self.doc(index), self.rec.tracer)))
                except Exception as exc:  # counted as a failed operation
                    errors.append(f"job {index}: {exc}")

        with speed.window(*QUIET) as window:
            cpu_before = cpu_s(fleet.pids)
            start = time.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(k,)) for k in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            cpu = cpu_s(fleet.pids) - cpu_before
        for problem in errors:
            self.rec.op(False, problem)
        done = Round(wall_s=wall, cpu_s=cpu * window.scale, trials=0, jobs=len(plan))
        for index, repeat, job in (item for out in outputs for item in out):
            if self._account(index, job):
                done.trials += _job_trials(self.doc(index))
                (done.hit_latencies_s if repeat else done.latencies_s).append(job.latency_s)
        self.rec.rounds.append(done)
        self.done_inputs.extend(index for index, repeat in plan if not repeat)

    def _account(self, index: int, job: JobResult) -> bool:
        """Record one job's timings; False when it did not finish."""
        rec = self.rec
        if job.state != "done":
            rec.op(False, f"job {index} ended {job.state}")
            return False
        self.results.setdefault(index, []).append(job.text)
        record = job.record
        fs = self.fs
        fs.polls.append(job.polls)
        fs.queue_wait_s.append(record["started_at"] - record["created_at"])
        fs.agent_run_s.append(record["finished_at"] - record["started_at"])
        fs.client_lag_s.append(job.seen_done - record["finished_at"])
        if rec.tracer is not None:
            first = job.intervals[0][1]
            intervals = [(a, b) for _, a, b in job.intervals] + [
                (record["created_at"], record["started_at"]),
                (record["started_at"], record["finished_at"]),
                (record["finished_at"], job.seen_done),
            ]
            rec.wall_coverage(first, first + job.latency_s, intervals)
        return True

    def verify(self) -> None:
        """Every result must be byte-identical to an in-process
        ``run_request`` of the same input."""
        from inproc import _options, _scaling_request
        from repro.experiments.entry import run_request

        for index, texts in sorted(self.results.items()):
            expected = run_request(
                _scaling_request(self.doc(index)), options=_options(None, cache=False)
            ).text
            for text in texts:
                self.rec.op(text == expected, f"service result of input {index} differs")


class CampaignLoop:
    """The ``campaign`` workload: a new adaptive campaign and a repeat
    of it per round."""

    def __init__(self, rec: Recorder, seed: int, fs: FleetSamples) -> None:
        self.rec = rec
        self.seed = seed
        self.fs = fs
        self.index = 0
        #: Traced campaigns: (start, end, covered intervals).
        self._pending: List[Tuple[float, float, List[Tuple[float, float]]]] = []

    def round(self, fleet: Fleet) -> None:
        doc = gen.campaign_doc(self.seed, self.index)
        self.index += 1
        done = Round(wall_s=0.0, cpu_s=0.0, trials=0, jobs=0)
        with speed.window(*QUIET) as window:
            cpu_before = cpu_s(fleet.pids)
            for latencies in (done.latencies_s, done.hit_latencies_s):
                status = self._campaign(fleet.client, doc)
                if status is None:
                    return
                latencies.append(status["_wall_s"])
                done.wall_s += status["_wall_s"]
                done.trials += status["trials"]["executed"]
                done.jobs += status["jobs"]["by_state"].get("done", 0)
            cpu = cpu_s(fleet.pids) - cpu_before
        done.cpu_s = cpu * window.scale
        self.rec.rounds.append(done)

    def _campaign(self, client, doc) -> Optional[Dict[str, Any]]:
        """Run one campaign to completion and check its table; returns
        its final status (None when it failed)."""
        rec = self.rec
        start = time.perf_counter()
        t_start = time.time()
        intervals: List[Tuple[float, float]] = []
        try:
            campaign = client.submit_campaign(spec=doc, cache=True)
            intervals.append((t_start, time.time()))
            deadline = time.monotonic() + JOB_TIMEOUT_S
            while True:
                t0 = time.time()
                status = client.campaign_status(campaign["id"])
                intervals.append((t0, time.time()))
                if status["state"] == "done" or time.monotonic() > deadline:
                    break
                time.sleep(POLL_S)
        except Exception as exc:  # counted as a failed operation
            rec.op(False, f"campaign {self.index - 1}: {exc}")
            return None
        wall = time.perf_counter() - start
        ok = status["state"] == "done" and status.get("table") == gen.CAMPAIGN_TABLE
        if not rec.op(ok, f"campaign {self.index - 1} table differs from the pinned one"):
            return None
        status["_wall_s"] = wall
        trials = status["trials"]
        jobs = status["jobs"]
        fs = self.fs
        fs.campaign_trials += trials["executed"]
        fs.campaign_budget += trials["exhaustive"]
        fs.campaign_jobs_consumed += sum(cell["jobs_consumed"] for cell in status["cells"])
        fs.campaign_jobs_submitted += jobs["total"]
        if rec.tracer is not None:
            for a, b in intervals:
                rec.tracer.record("http.campaign", a, b)
            listed = client.list_jobs(limit=4 * jobs["total"] + 16)["jobs"]
            for record in listed:
                if record["created_at"] < t_start or record["finished_at"] is None:
                    continue
                # Jobs cancelled by early stopping never started.
                started = record["started_at"] or record["finished_at"]
                intervals.append((record["created_at"], started))
                intervals.append((started, record["finished_at"]))
                if record["state"] == "done":
                    fs.queue_wait_s.append(started - record["created_at"])
                    fs.agent_run_s.append(record["finished_at"] - started)
            self._pending.append((t_start, t_start + wall, intervals))
        return status


def cover_campaigns(rec: Recorder, loop: CampaignLoop, steps: List[Tuple[str, float, float]]) -> None:
    """Account each traced campaign's wall time against client calls,
    job queue/run intervals and the server's controller steps."""
    step_intervals = [(a, b) for _, a, b in steps]
    for start, end, intervals in loop._pending:
        rec.wall_coverage(start, end, intervals + step_intervals)
