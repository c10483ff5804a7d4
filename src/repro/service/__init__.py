"""repro.service — a persistent simulation service.

Turns the one-shot CLI into a long-running control plane plus a fleet
of worker agents: an HTTP JSON API accepts figure/table/sweep/
selection jobs into a durable SQLite queue
(:class:`~repro.service.store_sqlite.SQLiteJobStore`) that narrates
every transition it commits to the live telemetry feed, worker *agents* —
in-process threads (``repro serve --workers N``) or separate
processes on other hosts (``repro agent``) — lease batches of jobs
and drain them through the shared experiment entrypoint
(:mod:`repro.experiments.entry`), and a thin stdlib client SDK (plus
``repro submit``/``status``/``result`` CLI verbs) talks to it.
Results are byte-identical to the equivalent direct CLI run — same
seeds, same cache, same renderers.

Layers (each its own module, all stdlib-only):

- :mod:`repro.service.store` — the job records, states and errors,
  and the store factory :func:`~repro.service.store.create_store`.
- :mod:`repro.service.store_sqlite` — the job store: states ``queued
  -> running -> done/failed/cancelled``, atomic batch claims,
  crash-recovery lease timeouts, dependencies, worker sites, and one
  lifecycle event per committed transition.
- :mod:`repro.service.jobs` — the job specification (what to run, at
  which executor settings) and its validation.
- :mod:`repro.service.protocol` — the wire protocol of the
  control-plane <-> agent exchange (strict request parsers).
- :mod:`repro.service.agent` — the agent engine: batch claiming,
  execution, lease renewal, idempotent result push, graceful drain;
  plus its local (direct-store) and remote (HTTP) job sources.
- :mod:`repro.service.worker` — the in-process worker pool: the agent
  engine wired to the local job source inside ``repro serve``.
- :mod:`repro.service.api` — the ``http.server``-based JSON API.
- :mod:`repro.service.app` — composition root: store + workers +
  HTTP server, graceful shutdown, cache pruning, fleet operations.
- :mod:`repro.service.client` — the urllib-based client SDK with
  retry/backoff.
"""

from repro.service.agent import (
    LocalJobSource,
    RemoteJobSource,
    WorkerAgent,
)
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.jobs import JobSpec, ValidationError
from repro.service.store import (
    DuplicateJob,
    JobRecord,
    JobState,
    QueueFull,
    SiteRecord,
    UnknownJob,
    UnknownSite,
    create_store,
)
from repro.service.store_sqlite import SQLiteJobStore

__all__ = [
    "DuplicateJob",
    "JobRecord",
    "JobSpec",
    "JobState",
    "LocalJobSource",
    "QueueFull",
    "RemoteJobSource",
    "ReproService",
    "RetryPolicy",
    "SQLiteJobStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SiteRecord",
    "UnknownJob",
    "UnknownSite",
    "ValidationError",
    "WorkerAgent",
    "create_store",
]
