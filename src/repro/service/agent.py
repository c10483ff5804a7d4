"""Worker agents: the execution half of the split service.

The control plane (:class:`repro.service.app.ReproService`) owns the
durable queue; *agents* execute.  An agent claims **batches** of
leased jobs, runs them through :meth:`repro.service.jobs.JobSpec
.execute` (the shared entrypoint, so results match the CLI byte for
byte), renews its leases mid-run, and pushes results back
idempotently.  Two deployments of the same engine:

- **Remote** (``repro agent``): a separate process — usually a
  separate host — registers a named *site* over the HTTP API and
  drives :class:`RemoteJobSource`.  Many agents against one control
  plane form the worker fleet.
- **Local** (:class:`repro.service.worker.WorkerPool`): the in-process
  worker pool inside ``repro serve`` drives :class:`LocalJobSource` —
  the same engine calling the
  :class:`repro.service.store_sqlite.SQLiteJobStore` directly, so
  ``repro serve`` with no fleet behaves exactly as before the split.

Claims do not poll.  A claim that finds nothing claimable waits, for
at most :data:`CLAIM_WAIT_S`, on the ring of the store's telemetry hub
— where the store narrates every job transition it commits — and
tries the store again only after a transition that can make a job
claimable (:func:`claim_waiting`).  The remote route runs that wait
server-side (the claim's ``wait_s`` field), the local source in
process; the bound is also how an idle agent picks up expired leases.

Safety never depends on agent behaviour: claims are leases, a dead
agent's jobs are re-claimable after lease expiry, and completion is
lease-holder-only, so a stale or duplicate agent is harmless.  Result
pushes are idempotent — a retried completion whose first attempt
already landed is acknowledged as "already terminal" and dropped.
"""

from __future__ import annotations

import abc
import queue
import signal
import socket
import sys
import threading
import time
import traceback
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.parallel import ExecutorMetrics, ResultCache
from repro.obs import counters as obs_counters
from repro.obs import live
from repro.service.jobs import JobSpec, ValidationError
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.store import JobRecord, JobState
from repro.service.store_sqlite import SQLiteJobStore
from repro.telemetry.hub import wakes_claims

#: Seconds one claim waits for claimable work before it comes back
#: empty.  An idle agent therefore makes at most one claim request per
#: period, picks up an expired lease within one period, and its
#: shutdown waits at most one period for an open claim.
CLAIM_WAIT_S = 1.0


class JobSource(abc.ABC):
    """Where an agent gets work and pushes results.

    The two implementations are :class:`LocalJobSource` (direct
    store calls, in-process) and :class:`RemoteJobSource`
    (the HTTP API, cross-host).  Both expose the same lease-based
    verbs, so :class:`WorkerAgent` is deployment-agnostic.
    """

    #: The registered site name (None for the in-process pool).
    site: Optional[str] = None

    @abc.abstractmethod
    def register(self, meta: Dict[str, Any]) -> None:
        """Announce this agent (idempotent; no-op locally)."""

    @abc.abstractmethod
    def claim_batch(
        self, worker: str, lease_s: float, limit: int, wait_s: float = 0.0
    ) -> List[JobRecord]:
        """Lease up to *limit* runnable jobs to *worker*, waiting up to
        *wait_s* seconds for one when none is claimable."""

    @abc.abstractmethod
    def renew_many(
        self, worker: str, job_ids: List[str], lease_s: float
    ) -> Dict[str, bool]:
        """Extend the leases on *job_ids*; per-id success map."""

    @abc.abstractmethod
    def complete(
        self,
        worker: str,
        job_id: str,
        result: str,
        counters: Optional[Dict[str, int]] = None,
    ) -> Tuple[bool, str]:
        """Push a success; returns ``(accepted, final_state)``.

        *counters* is the job's counter scope, for sources whose
        control plane lives in another process."""

    @abc.abstractmethod
    def fail(self, worker: str, job_id: str, error: str) -> Tuple[bool, str]:
        """Push a failure; returns ``(accepted, final_state)``."""

    @abc.abstractmethod
    def release(self, worker: str, job_id: str) -> bool:
        """Return a claimed-but-unstarted job to the queue."""

    @abc.abstractmethod
    def heartbeat(self) -> bool:
        """Site liveness ping; returns True when the control plane
        asks this agent to drain."""

    @abc.abstractmethod
    def cancel_requested(self, job_id: str) -> bool:
        """Whether a cancellation is pending for *job_id*."""


def claim_waiting(
    store: SQLiteJobStore,
    worker: str,
    lease_s: float,
    limit: int,
    *,
    site: Optional[str] = None,
    wait_s: float = 0.0,
    since: Optional[int] = None,
) -> List[JobRecord]:
    """Lease up to *limit* jobs from *store*; with nothing claimable,
    wait up to *wait_s* seconds on the ring the store narrates its
    transitions into and try again after each transition that can make
    a job claimable.

    Returns the batch, or an empty list once the deadline passes or
    the hub closes.  Raises :class:`DrainRequested` when *site* starts
    draining.  Every event after the ring position read before the
    first store attempt is examined — *since*, when the caller read it
    before checks of its own, else the ring's ``last_seq`` — so no
    transition committed during an attempt is lost.
    """
    ring = store.hub.ring
    seq = ring.last_seq if since is None else since
    deadline = time.monotonic() + wait_s
    while True:
        batch = store.claim_batch(worker, lease_s, limit, site=site)
        if batch:
            return batch
        for events, missed in ring.follow(seq, deadline - time.monotonic()):
            if events:
                seq = events[-1].seq
            if site is not None and any(
                e.kind == "site.draining" and e.site == site for e in events
            ):
                raise DrainRequested(site)
            if missed or any(wakes_claims(e) for e in events):
                break
        else:
            return []


class LocalJobSource(JobSource):
    """Direct store calls (the in-process pool's source).  Claims wait
    on the ring the store narrates into, as the HTTP claim route
    does."""

    def __init__(self, store: SQLiteJobStore) -> None:
        self.store = store

    def register(self, meta: Dict[str, Any]) -> None:
        """Nothing to announce: the store is right here."""

    def claim_batch(
        self, worker: str, lease_s: float, limit: int, wait_s: float = 0.0
    ) -> List[JobRecord]:
        """Lease up to *limit* jobs straight from the store, waiting
        on its hub's ring.  A closed ring means the service is shutting
        down: raises :class:`DrainRequested` so the puller stops
        claiming."""
        batch = claim_waiting(self.store, worker, lease_s, limit, wait_s=wait_s)
        if not batch and self.store.hub.ring.closed:
            raise DrainRequested("local")
        return batch

    def renew_many(
        self, worker: str, job_ids: List[str], lease_s: float
    ) -> Dict[str, bool]:
        """Renew each lease individually against the store."""
        return {
            job_id: self.store.renew(job_id, worker, lease_s)
            for job_id in job_ids
        }

    def _final_state(self, job_id: str) -> str:
        try:
            return self.store.get(job_id).state
        except KeyError:
            return "unknown"

    def complete(
        self,
        worker: str,
        job_id: str,
        result: str,
        counters: Optional[Dict[str, int]] = None,
    ) -> Tuple[bool, str]:
        """Store the result (lease-holder-only) and report the state.

        *counters* is ignored: the job ran in this process, so its
        increments already landed in this process's registry."""
        accepted = self.store.complete(job_id, worker, result)
        return accepted, self._final_state(job_id)

    def fail(self, worker: str, job_id: str, error: str) -> Tuple[bool, str]:
        """Store the failure (lease-holder-only) and report the state."""
        accepted = self.store.fail(job_id, worker, error)
        return accepted, self._final_state(job_id)

    def release(self, worker: str, job_id: str) -> bool:
        """Requeue an unstarted claim, refunding its attempt."""
        return self.store.release(job_id, worker)

    def heartbeat(self) -> bool:
        """No site concept in-process; never asked to drain."""
        return False

    def cancel_requested(self, job_id: str) -> bool:
        """Read the cancellation flag off the job row."""
        try:
            return self.store.get(job_id).cancel_requested
        except KeyError:
            return False


class RemoteJobSource(JobSource):
    """The HTTP API as a job source (what ``repro agent`` drives).

    *client* is a :class:`repro.service.client.ServiceClient`; its
    retry policy makes the claim/renew/complete calls resilient to
    transient connection failures, and the server's lease-holder-only
    completion makes retried pushes idempotent.
    """

    def __init__(self, client: Any, site: str) -> None:
        self.client = client
        self.site = site
        self._watched: set = set()
        self._watched_lock = threading.Lock()

    def register(self, meta: Dict[str, Any]) -> None:
        """Register (or re-register) this agent's site."""
        self.client.register_site(self.site, meta=meta)

    def claim_batch(
        self, worker: str, lease_s: float, limit: int, wait_s: float = 0.0
    ) -> List[JobRecord]:
        """Claim a batch over HTTP, the control plane waiting up to
        *wait_s* (kept under the client's timeout) for work; raises
        :class:`DrainRequested` when the control plane wants this
        site to wind down."""
        response = self.client.claim_jobs(
            self.site,
            worker,
            limit=limit,
            lease_s=lease_s,
            wait_s=min(wait_s, self.client.timeout / 2),
        )
        if response.get("draining"):
            raise DrainRequested(self.site)
        # The control plane annotates each claim with the subset of
        # claimed job ids that SSE consumers are watching, so the
        # agent knows whose simulation events to forward back.
        watched = response.get("watched") or ()
        if watched:
            with self._watched_lock:
                self._watched.update(watched)
        return [JobRecord.from_payload(j) for j in response.get("jobs", ())]

    def is_watched(self, job_id: str) -> bool:
        """Whether the claim response flagged *job_id* as watched."""
        with self._watched_lock:
            return job_id in self._watched

    def _forget_watch(self, job_id: str) -> None:
        with self._watched_lock:
            self._watched.discard(job_id)

    def renew_many(
        self, worker: str, job_ids: List[str], lease_s: float
    ) -> Dict[str, bool]:
        """Renew leases in one ``POST /v1/jobs/renew`` call."""
        response = self.client.renew_jobs(worker, job_ids, lease_s)
        return {
            entry["id"]: bool(entry["ok"])
            for entry in response.get("renewed", ())
        }

    def _push(self, worker: str, item: Dict[str, Any]) -> Tuple[bool, str]:
        response = self.client.complete_jobs(worker, [item])
        [entry] = response["results"]
        return bool(entry["accepted"]), entry.get("state", "unknown")

    def complete(
        self,
        worker: str,
        job_id: str,
        result: str,
        counters: Optional[Dict[str, int]] = None,
    ) -> Tuple[bool, str]:
        """Push a success; idempotent server-side.  Any *counters*
        ride the completion item so the control plane can fold the
        job's scope into its fleet-wide totals."""
        self._forget_watch(job_id)
        item: Dict[str, Any] = {"id": job_id, "ok": True, "result": result}
        if counters:
            item["counters"] = dict(counters)
        return self._push(worker, item)

    def fail(self, worker: str, job_id: str, error: str) -> Tuple[bool, str]:
        """Push a failure; idempotent server-side."""
        self._forget_watch(job_id)
        return self._push(worker, {"id": job_id, "ok": False, "error": error})

    def release(self, worker: str, job_id: str) -> bool:
        """Return an unstarted claim over ``POST /v1/jobs/release``."""
        response = self.client.release_jobs(worker, [job_id])
        [entry] = response["released"]
        return bool(entry["ok"])

    def heartbeat(self) -> bool:
        """Ping the site; True when the server set the drain flag."""
        response = self.client.site_heartbeat(self.site)
        return bool(response.get("drain", False))

    def cancel_requested(self, job_id: str) -> bool:
        """Poll the job record; unreachable server reads as False."""
        try:
            return bool(self.client.status(job_id)["cancel_requested"])
        except Exception:
            return False


class DrainRequested(Exception):
    """The control plane marked this agent's site draining."""


def agent_meta(workers: int, batch_size: int) -> Dict[str, Any]:
    """The registration metadata one agent announces."""
    from repro import __version__

    return {
        "hostname": socket.gethostname(),
        "pid": __import__("os").getpid(),
        "workers": workers,
        "batch_size": batch_size,
        "version": __version__,
        "protocol": PROTOCOL_VERSION,
    }


class WorkerAgent:
    """The agent engine: claim batches, execute, push, renew, drain.

    Three kinds of threads cooperate:

    - the **puller** claims runnable jobs in batches (sized to the
      free executor capacity, capped at *batch_size*) into an
      in-memory hand-off queue.  It claims as soon as an executor
      takes a job off that queue, and each claim waits up to
      :data:`CLAIM_WAIT_S` for work, so it never sleeps on a timer;
    - **executors** take claimed jobs off the hand-off queue and run
      them through :meth:`JobSpec.execute`;
    - a **heartbeat** renews the leases of every in-flight job and
      pings the site, picking up a server-side drain request.

    Shutdown is graceful and lossless: the puller stops claiming,
    claimed-but-unstarted jobs are released back to the queue (their
    attempt refunded), and executors finish the jobs they already
    started before the agent joins them.

    ``workers=0`` is a valid paused agent (jobs queue up but never
    run — used by tests and by operators staging work).  *on_tick*
    runs once per puller iteration (the in-process pool hangs cache
    pruning on it).  *poll_interval_s* is the back-off after a failed
    claim and how often idle executors check for shutdown.
    """

    def __init__(
        self,
        source: JobSource,
        *,
        workers: int = 1,
        batch_size: Optional[int] = None,
        lease_s: float = 60.0,
        poll_interval_s: float = 0.05,
        heartbeat_interval_s: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        identity: Optional[str] = None,
        telemetry: Optional[Any] = None,
        on_tick: Optional[Callable[[], None]] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.source = source
        self.workers = workers
        self.batch_size = batch_size or max(workers, 1)
        self.lease_s = lease_s
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.cache = cache
        #: The lease-holder name every claim/renew/complete uses.  One
        #: identity per agent *instance*: a resurrected agent gets a
        #: fresh identity, so its stale pushes are rejected.
        self.identity = identity or (
            f"{source.site or 'local'}-{uuid.uuid4().hex[:8]}"
        )
        #: Optional live-event surface (``job_sink``/``flush`` duck
        #: type): :class:`repro.telemetry.hub.TelemetryHub` in-process,
        #: :class:`repro.telemetry.forwarder.ForwardingTelemetry` on a
        #: remote agent.  None keeps the engine telemetry-free.
        self.telemetry = telemetry
        self.on_tick = on_tick
        self._handoff: "queue.Queue[JobRecord]" = queue.Queue(
            maxsize=max(workers, 1)
        )
        self._inflight: Dict[str, str] = {}
        self._inflight_lock = threading.Lock()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._threads: list = []

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Register the site and launch puller, executors, heartbeat."""
        if self._threads:
            raise RuntimeError("agent already started")
        self._stop.clear()
        self.source.register(agent_meta(self.workers, self.batch_size))
        if self.workers > 0:
            self._threads.append(
                threading.Thread(
                    target=self._puller_loop, name="repro-puller", daemon=True
                )
            )
            for index in range(self.workers):
                self._threads.append(
                    threading.Thread(
                        target=self._executor_loop,
                        args=(f"{self.identity}/w{index}",),
                        name=f"repro-exec-{index}",
                        daemon=True,
                    )
                )
            self._threads.append(
                threading.Thread(
                    target=self._heartbeat_loop,
                    name="repro-heartbeat",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()

    def drain(self) -> None:
        """Stop claiming new jobs; running jobs finish normally."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        """Whether a wind-down has been requested."""
        return self._draining.is_set()

    def idle(self) -> bool:
        """No job claimed and nothing running (drain-completion test)."""
        with self._inflight_lock:
            busy = bool(self._inflight)
        return not busy and self._handoff.empty()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop claiming, release unstarted claims, drain running jobs.

        Blocks until every thread has joined (up to *timeout* per
        thread).  No accepted job is lost: anything not finished is
        back in (or still in) the queue afterwards.
        """
        self.drain()
        self._stop.set()
        self._release_handoff()
        for thread in self._threads:
            thread.join(timeout=timeout)
        # The puller may have claimed one last batch after the first
        # sweep; sweep again now that every thread is gone.
        self._release_handoff()
        self._flush_events()
        self._threads = []

    def run_forever(self, install_signal_handlers: bool = True) -> None:
        """Start (if needed) and block until SIGTERM/SIGINT or until a
        server-requested drain completes.

        The signal handlers trigger :meth:`shutdown` — running jobs
        drain, claimed-but-unstarted jobs go back to the queue — so a
        ``kill -TERM`` never loses an accepted job.
        """
        if not self._threads:
            self.start()
        stop = threading.Event()
        if install_signal_handlers:

            def _handle(signum: int, frame: Any) -> None:
                stop.set()

            signal.signal(signal.SIGTERM, _handle)
            signal.signal(signal.SIGINT, _handle)
        try:
            while not stop.wait(0.2):
                if self.draining and self.idle():
                    break
        finally:
            self.shutdown()

    def inflight(self) -> Dict[str, str]:
        """Snapshot of running jobs: ``{job_id: executor_name}``."""
        with self._inflight_lock:
            return dict(self._inflight)

    def _release_handoff(self) -> None:
        """Requeue jobs that were claimed but never handed to an
        executor."""
        while True:
            try:
                record = self._handoff.get_nowait()
            except queue.Empty:
                return
            try:
                self.source.release(self.identity, record.id)
            except Exception:
                # Best effort: an unreachable control plane just means
                # the lease expires on its own.
                self._log(f"release of {record.id} failed; lease will expire")

    def _log(self, message: str) -> None:
        print(f"[agent {self.identity}] {message}", file=sys.stderr)

    def _flush_events(self) -> None:
        if self.telemetry is not None:
            self.telemetry.flush()

    def _free_slots(self) -> int:
        """Block until the hand-off queue has room (an executor took a
        job off it) or the agent stops; returns the free slots."""
        handoff = self._handoff
        with handoff.not_full:
            while (
                len(handoff.queue) >= handoff.maxsize
                and not self._stop.is_set()
            ):
                handoff.not_full.wait()
            return handoff.maxsize - len(handoff.queue)

    # ------------------------------------------------------------------
    # Thread bodies
    # ------------------------------------------------------------------

    def _puller_loop(self) -> None:
        while not self._stop.is_set():
            if self.on_tick is not None:
                self.on_tick()
            limit = min(self.batch_size, self._free_slots())
            if self.draining:
                # Nothing more to claim; running jobs finish and
                # shutdown() stops this thread.
                self._stop.wait()
                continue
            try:
                claimed = self.source.claim_batch(
                    self.identity, self.lease_s, limit, wait_s=CLAIM_WAIT_S
                )
            except DrainRequested:
                self.drain()
                continue
            except Exception as exc:
                self._log(f"claim failed ({exc}); backing off")
                self._stop.wait(self.poll_interval_s)
                continue
            # Ship the live events running jobs buffered while the
            # claim waited.
            self._flush_events()
            if claimed:
                obs_counters.increment("agent.jobs_claimed", len(claimed))
                for record in claimed:
                    try:
                        self._handoff.put(record, timeout=self.lease_s)
                    except queue.Full:  # pragma: no cover - free slots held
                        self.source.release(self.identity, record.id)

    def _executor_loop(self, name: str) -> None:
        while True:
            try:
                record = self._handoff.get(timeout=self.poll_interval_s)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            try:
                self._run_job(record, name)
            except Exception:
                # A completely unexpected executor error must not kill
                # the thread; the job's lease expires and it is re-run.
                self._log(
                    f"executor error on {record.id}:\n"
                    + traceback.format_exc(limit=10)
                )

    def _run_job(self, record: JobRecord, executor: str) -> None:
        # Confirm the lease is still ours before spending compute (it
        # may have expired while the job sat in the hand-off queue).
        renewed = self.source.renew_many(
            self.identity, [record.id], self.lease_s
        )
        if not renewed.get(record.id):
            return
        if self.source.cancel_requested(record.id):
            self.source.complete(self.identity, record.id, "")
            obs_counters.increment("service.jobs_cancelled")
            return
        with self._inflight_lock:
            self._inflight[record.id] = executor
        try:
            spec = JobSpec.from_payload(record.spec)
            cache_dir = self.cache.directory if self.cache is not None else None
            # Watched jobs get a live simulation-event sink activated
            # thread-locally around execute(); job_sink returns None
            # for unwatched jobs (and activated() filters the None),
            # so their trials serialise no events.
            sink = (
                self.telemetry.job_sink(record.id)
                if self.telemetry is not None
                else None
            )
            # The job's scope sees only this thread's increments, so a
            # remote control plane learns exactly this job's numbers
            # from the completion push.
            metrics = ExecutorMetrics()
            with obs_counters.scope() as counters, live.activated(sink):
                outcome = spec.execute(metrics=metrics, cache_dir=cache_dir)
                metrics.count()
        except ValidationError as exc:
            self._push_failure(record.id, f"invalid job spec: {exc}")
        except Exception:
            self._push_failure(record.id, traceback.format_exc(limit=20))
        else:
            self._push_result(record.id, outcome.text, counters=counters)
        finally:
            with self._inflight_lock:
                self._inflight.pop(record.id, None)

    def _push_result(
        self,
        job_id: str,
        text: str,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        """Push a success idempotently: an "already terminal" answer
        (a retried push whose first attempt landed, or a re-run that
        beat us) is dropped, never an error.

        The job's buffered live events are flushed first, so they
        land on the control plane's ring before its terminal event."""
        self._flush_events()
        try:
            accepted, state = self.source.complete(
                self.identity, job_id, text, counters=counters
            )
        except Exception as exc:
            self._log(
                f"result push for {job_id} failed ({exc}); "
                "lease will expire and the job will be re-run"
            )
            return
        if accepted:
            if state == JobState.CANCELLED:
                obs_counters.increment("service.jobs_cancelled")
            else:
                obs_counters.increment("service.jobs_completed")
        elif state in JobState.TERMINAL:
            obs_counters.increment("agent.jobs_stale_push")
        else:
            self._log(f"lease on {job_id} lost; result discarded")

    def _push_failure(self, job_id: str, error: str) -> None:
        self._flush_events()
        try:
            accepted, _ = self.source.fail(self.identity, job_id, error)
        except Exception as exc:
            self._log(f"failure push for {job_id} failed ({exc})")
            return
        if accepted:
            obs_counters.increment("service.jobs_failed")

    def _heartbeat_loop(self) -> None:
        interval = self.heartbeat_interval_s
        if interval is None:
            interval = max(self.lease_s / 3.0, self.poll_interval_s)
        while not self._stop.wait(interval):
            self._heartbeat_once()
        # One final renewal round so draining jobs keep their leases
        # while shutdown waits for them.
        self._heartbeat_once(final=True)

    def _heartbeat_once(self, final: bool = False) -> None:
        ids = list(self.inflight())
        try:
            if ids:
                self.source.renew_many(self.identity, ids, self.lease_s)
            self._flush_events()
            if not final and self.source.heartbeat():
                self.drain()
        except Exception as exc:
            self._log(f"heartbeat failed ({exc})")
