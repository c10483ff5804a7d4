"""SQLite reference implementation of the :class:`JobStore` contract.

One table holds every job the service has ever accepted, a second
holds the registered worker sites.  Durability and crash recovery come
from three properties:

- **WAL journaling** — a killed process never corrupts the store, and
  readers (the HTTP API) don't block the writer (the agents).
- **Atomic claims** — :meth:`SQLiteJobStore.claim_batch` selects and
  marks the runnable jobs inside one ``BEGIN IMMEDIATE`` transaction,
  so two claimers can never overlap.
- **Lease timeouts** — a claim holds a lease; a worker that dies
  mid-job simply stops renewing, and once the lease expires the job is
  claimable again (``attempts`` counts the re-leases, and a job that
  burns :attr:`SQLiteJobStore.max_attempts` leases is marked failed
  rather than looping forever).

All methods are thread-safe: one connection guarded by a lock keeps
the store usable from the HTTP threads and the in-process agent of a
single service process, while WAL keeps concurrent *processes* (e.g.
an operator's ``sqlite3`` shell) safe too.

Constructed only through :func:`repro.service.store.create_store`
(URL ``sqlite://<path>``); never instantiated by the service directly.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.service.store import (
    DepPolicy,
    DuplicateJob,
    JobRecord,
    JobState,
    JobStore,
    QueueFull,
    SiteRecord,
    SiteState,
    UnknownJob,
    UnknownSite,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    spec TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    created_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    worker TEXT,
    lease_expires_at REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    result TEXT,
    error TEXT,
    site TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_state_created
    ON jobs (state, created_at);
CREATE TABLE IF NOT EXISTS job_deps (
    parent TEXT NOT NULL,
    child TEXT NOT NULL,
    PRIMARY KEY (parent, child)
);
CREATE INDEX IF NOT EXISTS idx_job_deps_child ON job_deps (child);
CREATE TABLE IF NOT EXISTS sites (
    name TEXT PRIMARY KEY,
    state TEXT NOT NULL DEFAULT 'active',
    registered_at REAL NOT NULL,
    last_heartbeat REAL NOT NULL,
    meta TEXT NOT NULL DEFAULT '{}'
);
"""


def _initial_dep_state(
    parent_states: Dict[str, str], dep_policy: str
) -> "tuple[str, Optional[str]]":
    """The state a freshly submitted dependent job lands in, given its
    parents' current states: ``(state, error_or_None)``.

    The same decision rule the release cascade applies later, evaluated
    eagerly so a job whose parents already settled never waits."""
    if dep_policy == DepPolicy.CASCADE:
        for parent, state in parent_states.items():
            if state in (JobState.FAILED, JobState.CANCELLED):
                child_state = (
                    JobState.FAILED
                    if state == JobState.FAILED
                    else JobState.CANCELLED
                )
                return child_state, f"dependency {parent} {state}"
    if all(s in JobState.TERMINAL for s in parent_states.values()):
        return JobState.QUEUED, None
    return JobState.BLOCKED, None


class SQLiteJobStore(JobStore):
    """The durable queue over one SQLite file (see module docstring).

    *clock* is injectable for tests (lease expiry without sleeping).
    ``queue_limit`` bounds the number of *queued* jobs — running and
    finished jobs don't count against it — and ``max_attempts`` bounds
    how many leases a job may burn before it is marked failed.
    """

    def __init__(
        self,
        path: os.PathLike = ":memory:",
        *,
        queue_limit: int = 256,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.path = str(path)
        self.queue_limit = queue_limit
        self.max_attempts = max_attempts
        self.clock = clock
        self._lock = threading.RLock()
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._migrate()

    def _migrate(self) -> None:
        """Bring an older database up to the current schema (the
        ``site`` and dependency columns postdate the jobs table; the
        ``job_deps`` table itself rides the idempotent ``_SCHEMA``)."""
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(jobs)")
        }
        if "site" not in columns:
            self._conn.execute("ALTER TABLE jobs ADD COLUMN site TEXT")
        if "depends_on" not in columns:
            self._conn.execute("ALTER TABLE jobs ADD COLUMN depends_on TEXT")
        if "dep_policy" not in columns:
            self._conn.execute("ALTER TABLE jobs ADD COLUMN dep_policy TEXT")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    # ------------------------------------------------------------------
    # Submission / inspection
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: Dict[str, Any],
        job_id: Optional[str] = None,
        depends_on: Optional[Sequence[str]] = None,
        dep_policy: str = DepPolicy.CASCADE,
    ) -> str:
        """Enqueue *spec*; returns the new job id.

        Raises :class:`QueueFull` when waiting (``queued`` + ``blocked``)
        jobs are already at the depth bound (backpressure, not data
        loss: nothing is partially written) and :class:`DuplicateJob`
        when *job_id* is already taken (the idempotent-resubmit
        signal).  With *depends_on*, the job lands ``blocked`` until
        every named parent is terminal — or directly ``queued`` /
        cascaded when the parents already settled (see
        :meth:`JobStore.submit`); unknown parents raise
        :class:`UnknownJob` inside the same transaction, so nothing
        partial is written.
        """
        job_id = job_id or uuid.uuid4().hex
        payload = json.dumps(spec, sort_keys=True)
        parents = [str(p) for p in (depends_on or ())]
        if dep_policy not in DepPolicy.ALL:
            raise ValueError(
                f"unknown dep_policy {dep_policy!r} "
                f"(choose from {', '.join(DepPolicy.ALL)})"
            )
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                # The duplicate check outranks the depth bound: a
                # retried idempotent submit must find its original
                # record even when the queue has since filled up.
                (taken,) = self._conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE id = ?", (job_id,)
                ).fetchone()
                if taken:
                    raise DuplicateJob(job_id)
                (depth,) = self._conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state IN (?, ?)",
                    (JobState.QUEUED, JobState.BLOCKED),
                ).fetchone()
                if depth >= self.queue_limit:
                    raise QueueFull(
                        f"queue is full ({depth}/{self.queue_limit} jobs waiting)"
                    )
                state, error = JobState.QUEUED, None
                if parents:
                    states: Dict[str, str] = {}
                    for parent in parents:
                        row = self._conn.execute(
                            "SELECT state FROM jobs WHERE id = ?", (parent,)
                        ).fetchone()
                        if row is None:
                            raise UnknownJob(parent)
                        states[parent] = row["state"]
                    state, error = _initial_dep_state(states, dep_policy)
                try:
                    self._conn.execute(
                        "INSERT INTO jobs (id, spec, state, created_at,"
                        " finished_at, error, depends_on, dep_policy)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            job_id,
                            payload,
                            state,
                            now,
                            now if state in JobState.TERMINAL else None,
                            error,
                            json.dumps(parents) if parents else None,
                            dep_policy if parents else None,
                        ),
                    )
                except sqlite3.IntegrityError:
                    raise DuplicateJob(job_id) from None
                for parent in parents:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO job_deps (parent, child)"
                        " VALUES (?, ?)",
                        (parent, job_id),
                    )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return job_id

    def get(self, job_id: str) -> JobRecord:
        """The job with *job_id*; raises :class:`UnknownJob` if absent."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise UnknownJob(job_id)
        return self._record(row)

    def list_jobs(
        self, state: Optional[str] = None, limit: int = 100
    ) -> List[JobRecord]:
        """Most-recent-first listing, optionally filtered by state."""
        query = "SELECT * FROM jobs"
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state,)
        query += " ORDER BY created_at DESC, rowid DESC LIMIT ?"
        with self._lock:
            rows = self._conn.execute(query, params + (limit,)).fetchall()
        return [self._record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Job count per state (zero-filled for absent states)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in JobState.ALL}
        for row in rows:
            out[row["state"]] = row["n"]
        return out

    def queue_depth(self) -> int:
        """Number of jobs currently waiting to be claimed."""
        with self._lock:
            (depth,) = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = ?",
                (JobState.QUEUED,),
            ).fetchone()
        return depth

    # ------------------------------------------------------------------
    # Dependency release (runs inside an open transaction)
    # ------------------------------------------------------------------

    def _release_dependents(self, parent_ids: Sequence[str], now: float) -> None:
        """Settle the blocked children of jobs that just went terminal.

        Must be called inside an open transaction, immediately after
        *parent_ids* reached a terminal state — the release is then
        atomic with the parent transition, so a concurrent
        ``claim_batch`` either sees the child still ``blocked`` or
        fully ``queued``, never in between.  Cascaded failures and
        cancellations are themselves terminal transitions, so the
        worklist recurses through deeper dependents."""
        pending = list(parent_ids)
        while pending:
            parent = pending.pop()
            children = [
                row["child"]
                for row in self._conn.execute(
                    "SELECT child FROM job_deps WHERE parent = ?"
                    " ORDER BY rowid",
                    (parent,),
                ).fetchall()
            ]
            for child in children:
                row = self._conn.execute(
                    "SELECT state, dep_policy FROM jobs WHERE id = ?",
                    (child,),
                ).fetchone()
                if row is None or row["state"] != JobState.BLOCKED:
                    continue
                parent_rows = self._conn.execute(
                    "SELECT jobs.id AS id, jobs.state AS state"
                    " FROM job_deps JOIN jobs ON jobs.id = job_deps.parent"
                    " WHERE job_deps.child = ? ORDER BY job_deps.rowid",
                    (child,),
                ).fetchall()
                states = {r["id"]: r["state"] for r in parent_rows}
                state, error = _initial_dep_state(
                    states, row["dep_policy"] or DepPolicy.CASCADE
                )
                if state == JobState.BLOCKED:
                    continue
                if state == JobState.QUEUED:
                    self._conn.execute(
                        "UPDATE jobs SET state = ? WHERE id = ?",
                        (JobState.QUEUED, child),
                    )
                else:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, finished_at = ?,"
                        " error = ? WHERE id = ?",
                        (state, now, error, child),
                    )
                    pending.append(child)

    # ------------------------------------------------------------------
    # Claiming and completion (the worker protocol)
    # ------------------------------------------------------------------

    def claim_batch(
        self,
        worker: str,
        lease_s: float,
        limit: int,
        site: Optional[str] = None,
    ) -> List[JobRecord]:
        """Atomically lease up to *limit* runnable jobs to *worker*.

        Runnable means: expired-lease ``running`` jobs (crash
        recovery — oldest first), then ``queued`` jobs in submission
        order; ``blocked`` jobs are never selected.  An expired job
        that already burned ``max_attempts`` leases is marked failed
        instead of being handed out again (cascading to its dependents
        in the same transaction).  The whole batch — retirement,
        selection, and leasing — is one ``BEGIN IMMEDIATE``
        transaction.
        """
        if limit < 1:
            return []
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                # Retire jobs whose leases expired too many times (and
                # cascade to their dependents in the same transaction).
                retired = [
                    row["id"]
                    for row in self._conn.execute(
                        "SELECT id FROM jobs WHERE state = ?"
                        " AND lease_expires_at < ? AND attempts >= ?",
                        (JobState.RUNNING, now, self.max_attempts),
                    ).fetchall()
                ]
                if retired:
                    placeholders = ",".join("?" * len(retired))
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, finished_at = ?,"
                        " worker = NULL, lease_expires_at = NULL,"
                        " error = 'lease expired after ' || attempts ||"
                        " ' attempts'"
                        f" WHERE id IN ({placeholders})",
                        [JobState.FAILED, now] + retired,
                    )
                    self._release_dependents(retired, now)
                rows = self._conn.execute(
                    "SELECT id FROM jobs"
                    " WHERE (state = ? AND lease_expires_at < ?) OR state = ?"
                    " ORDER BY state != ?, created_at, rowid LIMIT ?",
                    (
                        JobState.RUNNING,
                        now,
                        JobState.QUEUED,
                        JobState.RUNNING,
                        limit,
                    ),
                ).fetchall()
                job_ids = [row["id"] for row in rows]
                if job_ids:
                    placeholders = ",".join("?" * len(job_ids))
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, worker = ?, site = ?,"
                        " attempts = attempts + 1,"
                        " started_at = COALESCE(started_at, ?),"
                        " lease_expires_at = ?"
                        f" WHERE id IN ({placeholders})",
                        [JobState.RUNNING, worker, site, now, now + lease_s]
                        + job_ids,
                    )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            return [self.get(job_id) for job_id in job_ids]

    def renew(self, job_id: str, worker: str, lease_s: float) -> bool:
        """Extend *worker*'s lease on a running job (heartbeat).

        Returns False when the job is no longer leased to *worker*
        (lease stolen after expiry, job cancelled, ...), which tells
        the worker its result will be discarded.
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET lease_expires_at = ?"
                " WHERE id = ? AND state = ? AND worker = ?",
                (self.clock() + lease_s, job_id, JobState.RUNNING, worker),
            )
        return cursor.rowcount == 1

    def complete(self, job_id: str, worker: str, result: str) -> bool:
        """Record a successful result from *worker*.

        Only the current lease holder may complete a job (a worker
        whose lease expired and went to another worker after a stall
        must not clobber the re-run's result).  A completion racing a cancellation request
        lands as ``cancelled`` with the result attached.  Blocked
        dependents whose last parent this was are released (or
        cascaded) in the same transaction.  Returns True when this
        call finalized the job.
        """
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT cancel_requested FROM jobs"
                    " WHERE id = ? AND state = ? AND worker = ?",
                    (job_id, JobState.RUNNING, worker),
                ).fetchone()
                if row is None:
                    self._conn.execute("COMMIT")
                    return False
                state = (
                    JobState.CANCELLED
                    if row["cancel_requested"]
                    else JobState.DONE
                )
                self._conn.execute(
                    "UPDATE jobs SET state = ?, result = ?, finished_at = ?,"
                    " lease_expires_at = NULL WHERE id = ?",
                    (state, result, now, job_id),
                )
                self._release_dependents([job_id], now)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return True

    def fail(self, job_id: str, worker: str, error: str) -> bool:
        """Record a failed execution from the current lease holder
        (cascading to blocked dependents in the same transaction)."""
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, finished_at = ?,"
                    " lease_expires_at = NULL"
                    " WHERE id = ? AND state = ? AND worker = ?",
                    (
                        JobState.FAILED,
                        error,
                        now,
                        job_id,
                        JobState.RUNNING,
                        worker,
                    ),
                )
                failed = cursor.rowcount == 1
                if failed:
                    self._release_dependents([job_id], now)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return failed

    def release(self, job_id: str, worker: str) -> bool:
        """Return a claimed-but-unstarted job to the queue (shutdown
        path); the attempt is refunded so a drain/restart cycle never
        pushes a job toward its attempts bound."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, worker = NULL, site = NULL,"
                " lease_expires_at = NULL, attempts = MAX(attempts - 1, 0)"
                " WHERE id = ? AND state = ? AND worker = ?",
                (JobState.QUEUED, job_id, JobState.RUNNING, worker),
            )
        return cursor.rowcount == 1

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued and blocked jobs flip to ``cancelled``
        immediately (cascading to their dependents), running jobs get
        ``cancel_requested`` set (the worker honours it at its next
        checkpoint), terminal jobs are left untouched.  Returns the
        record after the transition."""
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "UPDATE jobs SET state = ?, finished_at = ?,"
                    " cancel_requested = 1, lease_expires_at = NULL"
                    " WHERE id = ? AND state IN (?, ?)",
                    (
                        JobState.CANCELLED,
                        now,
                        job_id,
                        JobState.QUEUED,
                        JobState.BLOCKED,
                    ),
                )
                if cursor.rowcount == 1:
                    self._release_dependents([job_id], now)
                self._conn.execute(
                    "UPDATE jobs SET cancel_requested = 1"
                    " WHERE id = ? AND state = ?",
                    (job_id, JobState.RUNNING),
                )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return self.get(job_id)

    def result_text(self, job_id: str) -> Optional[str]:
        """The stored result body (None unless the job finished with
        one)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise UnknownJob(job_id)
        return row["result"]

    # ------------------------------------------------------------------
    # Sites (the fleet protocol)
    # ------------------------------------------------------------------

    def register_site(
        self, name: str, meta: Optional[Dict[str, Any]] = None
    ) -> SiteRecord:
        """Register (or re-activate) the site *name*; idempotent.  A
        re-registration refreshes the heartbeat and flips a draining
        site back to active (an agent restart is a fresh deployment)."""
        now = self.clock()
        meta_json = json.dumps(meta or {}, sort_keys=True)
        with self._lock:
            self._conn.execute(
                "INSERT INTO sites (name, state, registered_at,"
                " last_heartbeat, meta) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(name) DO UPDATE SET state = excluded.state,"
                " last_heartbeat = excluded.last_heartbeat,"
                " meta = excluded.meta",
                (name, SiteState.ACTIVE, now, now, meta_json),
            )
        return self._get_site(name)

    def heartbeat_site(self, name: str) -> SiteRecord:
        """Record a liveness heartbeat; raises :class:`UnknownSite`."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE sites SET last_heartbeat = ? WHERE name = ?",
                (self.clock(), name),
            )
        if cursor.rowcount != 1:
            raise UnknownSite(name)
        return self._get_site(name)

    def drain_site(self, name: str) -> SiteRecord:
        """Mark the site draining (no further claims; its agents shut
        down once in-flight jobs finish)."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE sites SET state = ? WHERE name = ?",
                (SiteState.DRAINING, name),
            )
        if cursor.rowcount != 1:
            raise UnknownSite(name)
        return self._get_site(name)

    def list_sites(self) -> List[SiteRecord]:
        """Every registered site, in registration order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM sites ORDER BY registered_at, name"
            ).fetchall()
        return [self._site_record(row) for row in rows]

    def site_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site job ledger (see :meth:`JobStore.site_stats`)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT site, state, COUNT(*) AS n FROM jobs"
                " WHERE site IS NOT NULL GROUP BY site, state"
            ).fetchall()
        out: Dict[str, Dict[str, int]] = {}
        key = {
            JobState.DONE: "completed",
            JobState.FAILED: "failed",
            JobState.RUNNING: "inflight",
            JobState.CANCELLED: "cancelled",
        }
        for row in rows:
            stats = out.setdefault(
                row["site"],
                {"completed": 0, "failed": 0, "inflight": 0, "cancelled": 0},
            )
            bucket = key.get(row["state"])
            if bucket is not None:
                stats[bucket] += row["n"]
        return out

    def _get_site(self, name: str) -> SiteRecord:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM sites WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise UnknownSite(name)
        return self._site_record(row)

    # ------------------------------------------------------------------

    @staticmethod
    def _site_record(row: sqlite3.Row) -> SiteRecord:
        return SiteRecord(
            name=row["name"],
            state=row["state"],
            registered_at=row["registered_at"],
            last_heartbeat=row["last_heartbeat"],
            meta=json.loads(row["meta"]),
        )

    @staticmethod
    def _record(row: sqlite3.Row) -> JobRecord:
        return JobRecord(
            id=row["id"],
            spec=json.loads(row["spec"]),
            state=row["state"],
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            attempts=row["attempts"],
            worker=row["worker"],
            lease_expires_at=row["lease_expires_at"],
            cancel_requested=bool(row["cancel_requested"]),
            result=row["result"],
            error=row["error"],
            site=row["site"],
            depends_on=(
                tuple(json.loads(row["depends_on"]))
                if row["depends_on"]
                else ()
            ),
            dep_policy=row["dep_policy"] or DepPolicy.CASCADE,
        )
