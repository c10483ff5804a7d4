"""The job-store interface and backend factory.

The service's control plane owns a durable queue of jobs moving
through ``queued -> running -> done/failed/cancelled``.  This module
defines the *contract* of that queue — :class:`JobStore`, an abstract
base class — plus the plain-data records, the store exceptions, and
the URL factory the service builds its store with (``--store
sqlite://results/service.db``).

The contract every backend must honour (the SQLite reference
implementation lives in :mod:`repro.service.store_sqlite`):

- **Atomic submission** — :meth:`JobStore.submit` either enqueues the
  whole job or raises (:class:`QueueFull` at the depth bound,
  :class:`DuplicateJob` on an id collision); nothing partial.
- **Atomic claims** — :meth:`JobStore.claim_batch` selects and leases
  up to *limit* runnable jobs inside ONE transaction, so two workers
  (threads, processes, or hosts) can never run the same job.
- **Lease timeouts** — a claim holds a lease; a worker that dies
  simply stops renewing, and once the lease expires the job is
  claimable again.  A job that burns ``max_attempts`` leases is marked
  failed rather than looping forever.
- **Lease-holder-only completion** — :meth:`JobStore.complete` /
  :meth:`JobStore.fail` succeed only for the current lease holder, so
  a stale or resurrected worker can never clobber a re-run's result.
- **Dependencies** — a job submitted with ``depends_on`` parents sits
  in ``blocked`` (never claimable) until every parent is terminal;
  release happens atomically inside the transaction that finished the
  last parent, and failed/cancelled parents cascade per
  :class:`DepPolicy`.
- **Sites** — remote worker agents register a named *site*; the store
  tracks its state (``active``/``draining``), last heartbeat, and the
  per-site job ledger that feeds ``/v1/metrics``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class QueueFull(RuntimeError):
    """Submission rejected: the queue is at its depth bound (the HTTP
    API maps this to ``429 Too Many Requests``)."""


class UnknownJob(KeyError):
    """No job with the requested id exists."""


class DuplicateJob(RuntimeError):
    """A submission reused an existing job id (the service turns this
    into an idempotent return of the original record)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"job id {job_id!r} already exists")
        self.job_id = job_id


class UnknownSite(KeyError):
    """No registered site with the requested name exists."""


class JobState:
    """The six job states (plain strings, stored verbatim)."""

    QUEUED = "queued"
    BLOCKED = "blocked"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can still leave.
    ACTIVE = (QUEUED, BLOCKED, RUNNING)
    #: States a job never leaves.
    TERMINAL = (DONE, FAILED, CANCELLED)
    ALL = (QUEUED, BLOCKED, RUNNING, DONE, FAILED, CANCELLED)


class DepPolicy:
    """How a dependent job reacts to a parent that fails or is
    cancelled (its ``dep_policy`` field).

    ``CASCADE`` (the default) propagates the bad outcome: the child is
    failed (or cancelled) as soon as any parent fails (or is
    cancelled), recursively.  ``RUN`` releases the child once every
    parent is merely *terminal*, whatever the outcome — for cleanup or
    aggregation steps that must run regardless.
    """

    CASCADE = "cascade"
    RUN = "run"
    ALL = (CASCADE, RUN)


class SiteState:
    """States of a registered worker site."""

    ACTIVE = "active"
    DRAINING = "draining"
    ALL = (ACTIVE, DRAINING)


@dataclass(frozen=True)
class JobRecord:
    """One row of the store, as plain data."""

    id: str
    spec: Dict[str, Any]
    state: str
    created_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    attempts: int
    worker: Optional[str]
    lease_expires_at: Optional[float]
    cancel_requested: bool
    result: Optional[str]
    error: Optional[str]
    site: Optional[str] = None
    #: Parent job ids this job waits on (empty for independent jobs).
    depends_on: Tuple[str, ...] = ()
    #: Reaction to a failed/cancelled parent (:class:`DepPolicy`).
    dep_policy: str = DepPolicy.CASCADE

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe status dict (what ``GET /v1/jobs/{id}`` and the
        claim endpoint return; the result body itself is served by the
        ``/result`` route).  Dependency fields appear only on jobs that
        have them, so independent jobs' payloads are unchanged."""
        payload = {
            "id": self.id,
            "spec": self.spec,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "lease_expires_at": self.lease_expires_at,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "site": self.site,
        }
        if self.depends_on:
            payload["depends_on"] = list(self.depends_on)
            payload["dep_policy"] = self.dep_policy
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobRecord":
        """Rebuild a record from :meth:`to_payload` output (what a
        remote agent receives from the claim endpoint; the result body
        is never carried)."""
        return cls(
            id=payload["id"],
            spec=payload["spec"],
            state=payload["state"],
            created_at=payload["created_at"],
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            attempts=payload.get("attempts", 0),
            worker=payload.get("worker"),
            lease_expires_at=payload.get("lease_expires_at"),
            cancel_requested=bool(payload.get("cancel_requested", False)),
            result=None,
            error=payload.get("error"),
            site=payload.get("site"),
            depends_on=tuple(payload.get("depends_on", ())),
            dep_policy=payload.get("dep_policy", DepPolicy.CASCADE),
        )


@dataclass(frozen=True)
class SiteRecord:
    """One registered worker site."""

    name: str
    state: str
    registered_at: float
    last_heartbeat: float
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe site dict (what ``GET /v1/sites`` returns)."""
        return {
            "name": self.name,
            "state": self.state,
            "registered_at": self.registered_at,
            "last_heartbeat": self.last_heartbeat,
            "meta": self.meta,
        }


class JobStore(abc.ABC):
    """Abstract durable job queue (see the module docstring for the
    semantics every backend must honour).

    Concrete backends are obtained through :func:`create_store`; the
    service never instantiates one directly.
    """

    #: Bound on *queued* jobs (running/finished don't count).
    queue_limit: int
    #: Leases a job may burn before it is marked failed.
    max_attempts: int
    #: Injectable time source (tests advance it without sleeping).
    clock: Callable[[], float]

    # -- lifecycle -----------------------------------------------------

    @abc.abstractmethod
    def close(self) -> None:
        """Release backend resources (idempotent)."""

    # -- submission / inspection ---------------------------------------

    @abc.abstractmethod
    def submit(
        self,
        spec: Dict[str, Any],
        job_id: Optional[str] = None,
        depends_on: Optional[Sequence[str]] = None,
        dep_policy: str = DepPolicy.CASCADE,
    ) -> str:
        """Enqueue *spec*; returns the job id.  Raises
        :class:`QueueFull` at the depth bound and :class:`DuplicateJob`
        when *job_id* is already taken.

        *depends_on* names parent jobs that must reach a terminal state
        first: the new job starts ``blocked`` (or ``queued`` directly
        when every parent is already terminal) and is released
        atomically, inside the same transaction that finishes the last
        parent.  A parent that fails or is cancelled propagates per
        *dep_policy* (:class:`DepPolicy`).  Unknown parent ids raise
        :class:`UnknownJob` — nothing partial is enqueued."""

    @abc.abstractmethod
    def get(self, job_id: str) -> JobRecord:
        """The job with *job_id*; raises :class:`UnknownJob` if absent."""

    @abc.abstractmethod
    def list_jobs(
        self, state: Optional[str] = None, limit: int = 100
    ) -> List[JobRecord]:
        """Most-recent-first listing, optionally filtered by state."""

    @abc.abstractmethod
    def counts(self) -> Dict[str, int]:
        """Job count per state (zero-filled for absent states)."""

    @abc.abstractmethod
    def queue_depth(self) -> int:
        """Number of jobs currently waiting to be claimed."""

    # -- claiming and completion (the worker protocol) -----------------

    @abc.abstractmethod
    def claim_batch(
        self,
        worker: str,
        lease_s: float,
        limit: int,
        site: Optional[str] = None,
    ) -> List[JobRecord]:
        """Atomically lease up to *limit* runnable jobs to *worker*.

        Runnable means: expired-lease ``running`` jobs (crash recovery
        — oldest first), then ``queued`` jobs in submission order.  An
        expired job that already burned ``max_attempts`` leases is
        marked failed instead of being handed out again.  The whole
        batch is ONE transaction: concurrent claimers can never
        overlap.  *site* is recorded on the claimed rows for the
        per-site metrics breakdown."""

    def claim(
        self, worker: str, lease_s: float, site: Optional[str] = None
    ) -> Optional[JobRecord]:
        """Single-job convenience over :meth:`claim_batch`."""
        batch = self.claim_batch(worker, lease_s, limit=1, site=site)
        return batch[0] if batch else None

    @abc.abstractmethod
    def renew(self, job_id: str, worker: str, lease_s: float) -> bool:
        """Extend *worker*'s lease on a running job (heartbeat).
        Returns False when the job is no longer leased to *worker*."""

    @abc.abstractmethod
    def complete(self, job_id: str, worker: str, result: str) -> bool:
        """Record a successful result from the current lease holder
        (False otherwise — the stale worker's result is discarded).  A
        completion racing a cancellation lands ``cancelled`` with the
        result attached."""

    @abc.abstractmethod
    def fail(self, job_id: str, worker: str, error: str) -> bool:
        """Record a failed execution from the current lease holder."""

    @abc.abstractmethod
    def release(self, job_id: str, worker: str) -> bool:
        """Return a claimed-but-unstarted job to the queue (shutdown
        path); the attempt is refunded so a drain/restart cycle never
        pushes a job toward its attempts bound."""

    @abc.abstractmethod
    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs flip to ``cancelled`` immediately,
        running jobs get ``cancel_requested`` set (the worker honours
        it), terminal jobs are left untouched."""

    @abc.abstractmethod
    def result_text(self, job_id: str) -> Optional[str]:
        """The stored result body (None unless the job finished with
        one)."""

    # -- sites (the fleet protocol) ------------------------------------

    @abc.abstractmethod
    def register_site(
        self, name: str, meta: Optional[Dict[str, Any]] = None
    ) -> SiteRecord:
        """Register (or re-activate) the site *name*; idempotent."""

    @abc.abstractmethod
    def heartbeat_site(self, name: str) -> SiteRecord:
        """Record a liveness heartbeat; raises :class:`UnknownSite`."""

    @abc.abstractmethod
    def drain_site(self, name: str) -> SiteRecord:
        """Mark the site draining: its agents stop receiving claims and
        shut down once their in-flight jobs finish."""

    @abc.abstractmethod
    def list_sites(self) -> List[SiteRecord]:
        """Every registered site, in registration order."""

    @abc.abstractmethod
    def site_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site job ledger: ``{site: {completed, failed, inflight,
        cancelled}}`` for every site that ever claimed a job."""


# ---------------------------------------------------------------------------
# Backend factory
# ---------------------------------------------------------------------------


def create_store(
    url: str,
    *,
    queue_limit: int = 256,
    max_attempts: int = 3,
    clock: Optional[Callable[[], float]] = None,
) -> JobStore:
    """Construct a job store from a backend URL.

    ``sqlite://results/service.db`` selects the SQLite backend with
    that database path (``sqlite://:memory:`` for an ephemeral store).
    A bare path with no scheme selects SQLite too.  This factory is
    the only place stores are constructed.
    """
    from repro.service.store_sqlite import SQLiteJobStore

    url = str(url)
    scheme, sep, path = url.partition("://")
    if not sep:
        scheme, path = "sqlite", url
    if scheme != "sqlite":
        raise ValueError(
            f"unknown store backend {scheme!r} in {url!r} (supported: sqlite)"
        )
    kwargs: Dict[str, Any] = {} if clock is None else {"clock": clock}
    return SQLiteJobStore(
        path or ":memory:",
        queue_limit=queue_limit,
        max_attempts=max_attempts,
        **kwargs,
    )
