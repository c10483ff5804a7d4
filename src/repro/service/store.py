"""Job-store records, states and errors, and the store factory.

The control plane owns a durable queue of jobs moving through
``queued -> running -> done/failed/cancelled``.  The queue itself is
:class:`repro.service.store_sqlite.SQLiteJobStore` (its module
docstring states the contract); this module holds what its callers
share with it — the plain-data records, the job, dependency and site
states, the store exceptions — plus :func:`create_store`, the URL
factory the service builds its store with (``--store
sqlite://results/service.db``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.service.store_sqlite import SQLiteJobStore
    from repro.telemetry.hub import TelemetryHub


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


# ---------------------------------------------------------------------------
# Store factory
# ---------------------------------------------------------------------------


def create_store(
    url: str,
    *,
    queue_limit: int = 256,
    max_attempts: int = 3,
    clock: Optional[Callable[[], float]] = None,
    hub: Optional[TelemetryHub] = None,
) -> SQLiteJobStore:
    """Construct a job store from a backend URL.

    ``sqlite://results/service.db`` selects the SQLite store with that
    database path (``sqlite://:memory:`` for an ephemeral store).  A
    bare path with no scheme selects SQLite too.  *hub* is the
    telemetry hub the store narrates every transition into (a fresh
    one when None).
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
        hub=hub,
        **kwargs,
    )
