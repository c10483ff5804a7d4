"""Composition root: store + worker pool + HTTP server.

:class:`ReproService` wires the durable :class:`JobStore`, the
:class:`WorkerPool`, and the JSON API into one process with a graceful
lifecycle:

- :meth:`ReproService.start` opens the store, starts the workers, and
  binds the API (``port=0`` picks an ephemeral port — tests and the CI
  smoke job use this);
- :meth:`ReproService.shutdown` stops accepting work, drains the jobs
  already running, requeues claimed-but-unstarted jobs, and closes the
  store — no accepted job is ever lost;
- :meth:`ReproService.serve_forever` additionally installs SIGTERM /
  SIGINT handlers that trigger that same graceful shutdown (what
  ``repro serve`` runs).
"""

from __future__ import annotations

import signal
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaigns.controller import (
    AdaptiveConfig,
    Campaign,
    CampaignRegistry,
)
from repro.experiments.entry import StudyRequest
from repro.experiments.parallel import ExecutorMetrics, ResultCache
from repro.obs import counters as obs_counters
from repro.service import api as service_api
from repro.service import protocol
from repro.service.jobs import JobSpec, ValidationError
from repro.service.store import (
    DepPolicy,
    DuplicateJob,
    JobRecord,
    JobState,
    UnknownJob,
    create_store,
)
from repro.service.worker import WorkerPool
from repro.telemetry import TelemetryHub, TelemetryStore

#: Counter namespaces a completion push may add to.  The control plane
#: keeps ``service.*`` and ``agent.*`` itself, so no agent can inflate
#: them.
PUSHED_COUNTER_NAMESPACES = ("grid.", "executor.", "single_app.", "datacenter.")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service process (all have sane defaults)."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 1
    #: SQLite path; ``":memory:"`` gives an ephemeral store.
    db_path: str = "results/service.db"
    #: Store backend URL (``sqlite://results/service.db``).  When set
    #: it wins over ``db_path``; a bare path selects SQLite.
    store_url: Optional[str] = None
    #: Bound on *queued* jobs; beyond it submissions get 429.
    queue_limit: int = 256
    #: Lease duration; a crashed worker's job is re-claimable this
    #: long after its last heartbeat.
    lease_s: float = 300.0
    #: Leases a job may burn before it is marked failed.
    max_attempts: int = 3
    #: Result-cache directory (None = the executor's default,
    #: ``results/.cache/`` or ``REPRO_CACHE_DIR``).
    cache_dir: Optional[str] = None
    #: Prune the result cache down to this many MiB on an interval
    #: (None disables pruning).
    cache_max_mb: Optional[float] = None
    #: Seconds between cache-prune checks.
    cache_prune_interval_s: float = 300.0
    #: Scheduler poll interval (small for tests, default is fine).
    poll_interval_s: float = 0.05
    #: Log HTTP requests to stderr.
    log_requests: bool = False
    #: Capacity of the live telemetry ring (events retained for SSE
    #: resume; older ones are evicted and counted as dropped).
    telemetry_ring: int = 2048
    #: Idle seconds between SSE heartbeat comments on event streams.
    sse_heartbeat_s: float = 15.0
    #: Seconds between ``GET /v1/metrics/stream`` snapshots.
    metrics_stream_interval_s: float = 2.0


class ReproService:
    """A running simulation service (see module docstring)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.hub = TelemetryHub(capacity=self.config.telemetry_ring)
        # The telemetry decorator wraps the store *before* anything
        # else sees it, so both the in-process pool and the fleet API
        # narrate every lifecycle transition into the one ring.
        self.store = TelemetryStore(
            create_store(
                self.config.store_url or self.config.db_path,
                queue_limit=self.config.queue_limit,
                max_attempts=self.config.max_attempts,
            ),
            self.hub,
        )
        self.cache = ResultCache(directory=self.config.cache_dir, enabled=True)
        prune_max_bytes = (
            None
            if self.config.cache_max_mb is None
            else int(self.config.cache_max_mb * 1024 * 1024)
        )
        self.pool = WorkerPool(
            self.store,
            workers=self.config.workers,
            lease_s=self.config.lease_s,
            poll_interval_s=self.config.poll_interval_s,
            cache=self.cache,
            prune_max_bytes=prune_max_bytes,
            prune_interval_s=self.config.cache_prune_interval_s,
            telemetry=self.hub,
        )
        self.campaigns = CampaignRegistry()
        self._server: Optional[service_api.ServiceHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._controller_thread: Optional[threading.Thread] = None
        self._controller_stop = threading.Event()
        self._started_monotonic: Optional[float] = None
        self._shutdown_lock = threading.Lock()
        self._shut_down = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start workers and bind the HTTP API (non-blocking)."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._started_monotonic = time.monotonic()
        self.pool.start()
        self._server = service_api.make_server(
            self.config.host, self.config.port, self
        )
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-http",
            daemon=True,
        )
        self._server_thread.start()
        self._controller_thread = threading.Thread(
            target=self._controller_loop,
            name="repro-campaigns",
            daemon=True,
        )
        self._controller_thread.start()

    def shutdown(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful stop: close the listener, drain running jobs,
        requeue unstarted claims, close the store.  Idempotent."""
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        self._controller_stop.set()
        if self._controller_thread is not None:
            self._controller_thread.join(timeout=timeout)
        # Close the telemetry ring first: every blocked SSE stream
        # wakes, winds down, and releases its connection before the
        # listener goes away.
        self.hub.close()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=timeout)
        self.pool.shutdown(timeout=timeout)
        self.store.close()

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Start (if needed) and block until SIGTERM/SIGINT.

        The signal handlers run :meth:`shutdown` — running cells are
        drained, claimed-but-unstarted jobs go back to the queue, and
        the queue itself is durable in SQLite, so a ``kill -TERM``
        never loses an accepted job.
        """
        if self._server is None:
            self.start()
        stop = threading.Event()
        if install_signal_handlers:

            def _handle(signum: int, frame: Any) -> None:
                stop.set()

            signal.signal(signal.SIGTERM, _handle)
            signal.signal(signal.SIGINT, _handle)
        try:
            while not stop.wait(0.2):
                pass
        finally:
            self.shutdown()

    @property
    def port(self) -> Optional[int]:
        """The bound API port (resolves ``port=0`` to the real one)."""
        return service_api.bound_port(self._server)

    @property
    def url(self) -> str:
        """Base URL of the running API."""
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------
    # Operations used by the API handler
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> JobRecord:
        """Validate *payload* and enqueue it; returns the new record.

        An optional ``job_id`` field is a client idempotency key:
        resubmitting the same id returns the original record instead
        of enqueueing a duplicate, which makes the submit safe to
        retry over a flaky network.

        Optional ``depends_on`` (a list of parent job ids) holds the
        job in the ``blocked`` state until every parent is terminal;
        ``dep_policy`` chooses what a failed/cancelled parent does to
        it (``cascade``, the default, or ``run``).

        Raises :class:`repro.service.jobs.ValidationError` (HTTP 400)
        or :class:`repro.service.store.QueueFull` (HTTP 429).
        """
        requested_id = None
        depends_on = None
        dep_policy = None
        if isinstance(payload, dict):
            payload = dict(payload)
            if "job_id" in payload:
                requested_id = protocol.parse_job_id(payload.pop("job_id"))
            if "depends_on" in payload:
                depends_on = protocol.parse_depends_on(
                    payload.pop("depends_on")
                )
            dep_policy = protocol.parse_dep_policy(
                payload.pop("dep_policy", None)
            )
        spec = JobSpec.from_payload(payload)
        try:
            job_id = self.store.submit(
                spec.to_payload(),
                job_id=requested_id,
                depends_on=depends_on,
                dep_policy=dep_policy or DepPolicy.CASCADE,
            )
        except DuplicateJob as exc:
            return self.store.get(exc.job_id)
        except UnknownJob as exc:
            raise ValidationError(
                f"unknown dependency job {exc.args[0]!r}"
            ) from None
        obs_counters.increment("service.jobs_accepted")
        return self.store.get(job_id)

    def submit_campaign(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/campaigns``: compile a scenario and enqueue its
        units as ordinary jobs.

        The payload names a bundled scenario (``{"scenario": "fig1"}``)
        or carries an inline document (``{"spec": {...}}``), plus
        optional ``quick`` / ``jobs`` / ``cache`` / ``format``
        overrides.  Compilation runs here — schema violations and
        unreadable trace files are 400s with the field-qualified
        one-line message, before anything is enqueued.  The response
        carries a campaign id (pollable at ``GET /v1/campaigns/{id}``),
        the scenario's canonical-spec SHA-256, and one job record per
        compiled unit.

        An ``adaptive`` field turns the campaign over to the
        server-side controller: ``true`` (or an object overriding
        ``max_trials`` / ``batch_size`` / ``ci_rel_threshold`` /
        ``refine_depth``) submits every study cell as a
        dependency-chained batch sequence and early-stops / refines
        per cell; ``false`` forces a plain exhaustive campaign even
        when the spec carries an ``[adaptive]`` section; omitted, the
        spec's own ``[adaptive]`` section decides.
        """
        from dataclasses import replace as dc_replace

        from repro.experiments.entry import FORMATS
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.errors import ScenarioError
        from repro.scenarios.library import load_named
        from repro.scenarios.schema import parse_scenario

        if not isinstance(payload, dict):
            raise ValidationError("campaign payload must be a JSON object")
        data = dict(payload)
        name = data.pop("scenario", None)
        inline = data.pop("spec", None)
        quick = data.pop("quick", False)
        jobs = data.pop("jobs", 1)
        cache = data.pop("cache", True)
        fmt = data.pop("format", None)
        adaptive_field = data.pop("adaptive", None)
        if data:
            raise ValidationError(
                f"unknown campaign field {sorted(data)[0]!r}"
            )
        if (name is None) == (inline is None):
            raise ValidationError(
                "provide exactly one of 'scenario' (a bundled name) or "
                "'spec' (an inline scenario document)"
            )
        if name is not None and not isinstance(name, str):
            raise ValidationError("field 'scenario' must be a string")
        if not isinstance(quick, bool):
            raise ValidationError("field 'quick' must be a boolean")
        if fmt is not None and fmt not in FORMATS:
            raise ValidationError(
                f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})"
            )
        if adaptive_field is not None and not isinstance(
            adaptive_field, (bool, dict)
        ):
            raise ValidationError(
                "field 'adaptive' must be a boolean or an object"
            )
        try:
            if name is not None:
                spec = load_named(name)
            else:
                spec = parse_scenario(inline, source="<request>")
        except ScenarioError as exc:
            raise ValidationError(str(exc)) from None

        adaptive_cfg: Optional[AdaptiveConfig] = None
        if adaptive_field is not False:
            wants_adaptive = (
                adaptive_field is not None or spec.adaptive is not None
            )
            if wants_adaptive:
                defaults = AdaptiveConfig.from_spec(spec.adaptive)
                adaptive_cfg = (
                    AdaptiveConfig.from_payload(adaptive_field, defaults)
                    if isinstance(adaptive_field, dict)
                    else defaults
                )
        if adaptive_cfg is not None:
            if quick:
                raise ValidationError(
                    "'quick' cannot combine with an adaptive campaign "
                    "(the controller manages trial budgets itself)"
                )
            if fmt is not None:
                raise ValidationError(
                    "'format' cannot combine with an adaptive campaign "
                    "(batch results are always JSON; render the table "
                    "from campaign status)"
                )
            return self._submit_adaptive_campaign(
                spec, adaptive_cfg, jobs=jobs, cache=cache
            )

        try:
            campaign = compile_scenario(spec, quick=quick)
        except ScenarioError as exc:
            raise ValidationError(str(exc)) from None
        campaign_id = uuid.uuid4().hex
        units = []
        static_units = []
        for unit in campaign.units:
            request = (
                unit.request
                if fmt is None
                else dc_replace(unit.request, format=fmt)
            )
            job_id = self._submit_request(
                request, jobs=jobs, cache=cache
            )
            static_units.append({"label": unit.label, "job_id": job_id})
            units.append(
                {
                    "label": unit.label,
                    "job": self.store.get(job_id).to_payload(),
                }
            )
        self.campaigns.add(
            Campaign(
                campaign_id,
                campaign.spec,
                campaign.sha256,
                campaign.notes,
                adaptive=None,
                static_units=static_units,
            )
        )
        obs_counters.increment("service.campaigns_accepted")
        self.hub.publish(
            "campaign.submitted",
            campaign_id=campaign_id,
            data={
                "scenario": campaign.spec.scenario.name,
                "adaptive": False,
                "units": len(units),
            },
        )
        return {
            "id": campaign_id,
            "scenario": campaign.spec.scenario.name,
            "spec_sha256": campaign.sha256,
            "notes": list(campaign.notes),
            "units": units,
        }

    def _submit_adaptive_campaign(
        self,
        spec: Any,
        cfg: AdaptiveConfig,
        jobs: int = 1,
        cache: bool = True,
    ) -> Dict[str, Any]:
        """Plan and enqueue one adaptive campaign: the base wave of
        dependency-chained batch jobs, rolled back wholesale when the
        queue cannot take it."""
        from repro.scenarios.compiler import scenario_analytic_reason
        from repro.scenarios.errors import ScenarioError
        from repro.scenarios.spec import spec_sha256

        if spec.failures.regime == "trace":
            raise ValidationError(
                "adaptive campaigns cannot compose with trace replay "
                "(replay forces trials = 1; there is nothing to adapt)"
            )
        notes = []
        reason = scenario_analytic_reason(spec)
        if reason is not None:
            notes.append(f"analytic model bypassed: {reason}")
        notes.append(
            f"adaptive campaign: up to {cfg.max_trials} trials per cell "
            f"in batches of {cfg.batch_size}, CI threshold "
            f"{cfg.ci_rel_threshold:g}, refine depth {cfg.refine_depth}"
        )
        campaign_id = uuid.uuid4().hex
        try:
            campaign = Campaign(
                campaign_id,
                spec,
                spec_sha256(spec),
                notes,
                adaptive=cfg,
            )
        except ScenarioError as exc:
            raise ValidationError(str(exc)) from None

        def submit(request: StudyRequest, parents: Optional[List[str]]) -> str:
            return self._submit_request(
                request, jobs=jobs, cache=cache, depends_on=parents
            )

        try:
            campaign.submit_base_wave(submit)
        except Exception:
            for job_id in campaign.all_job_ids():
                try:
                    self.store.cancel(job_id)
                except KeyError:
                    pass
            raise
        self.campaigns.add(campaign)
        obs_counters.increment("service.campaigns_accepted")
        obs_counters.increment("service.campaigns_adaptive")
        self.hub.publish(
            "campaign.submitted",
            campaign_id=campaign_id,
            data={
                "scenario": spec.scenario.name,
                "adaptive": True,
                "cells": len(campaign.cells),
            },
        )
        return {
            "id": campaign_id,
            "scenario": spec.scenario.name,
            "spec_sha256": campaign.sha256,
            "notes": list(campaign.notes),
            "adaptive": cfg.to_payload(),
            "units": [],
            "cells": len(campaign.cells),
            "jobs": len(campaign.all_job_ids()),
        }

    def _submit_request(
        self,
        request: StudyRequest,
        jobs: int = 1,
        cache: bool = True,
        depends_on: Optional[List[str]] = None,
    ) -> str:
        """Enqueue one study request as a job (optionally blocked on
        *depends_on* parents) and return its id."""
        job_payload = request.to_payload()
        job_payload["jobs"] = jobs
        job_payload["cache"] = cache
        job_spec = JobSpec.from_payload(job_payload)
        job_id = self.store.submit(
            job_spec.to_payload(), depends_on=depends_on
        )
        obs_counters.increment("service.jobs_accepted")
        return job_id

    def campaign_status(self, campaign_id: str) -> Dict[str, Any]:
        """``GET /v1/campaigns/{id}`` body; raises
        :class:`repro.campaigns.controller.UnknownCampaign` (404)."""
        return self.campaigns.status(campaign_id, self.store)

    def _controller_loop(self) -> None:
        """The adaptive-campaign controller thread: one
        :meth:`CampaignRegistry.step_all` tick per poll interval."""

        def submit(request: StudyRequest, parents: Optional[List[str]]) -> str:
            return self._submit_request(request, depends_on=parents)

        while not self._controller_stop.wait(self.config.poll_interval_s):
            if not self.campaigns.pending():
                continue
            try:
                self.campaigns.step_all(
                    self.store, submit, notify=self.hub.campaign_notify
                )
            except Exception as exc:  # pragma: no cover - defensive
                print(f"[campaigns] controller tick failed: {exc}", file=sys.stderr)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel *job_id* (see :meth:`JobStore.cancel`)."""
        record = self.store.cancel(job_id)
        if record.state == "cancelled":
            obs_counters.increment("service.jobs_cancelled")
        return record

    # ------------------------------------------------------------------
    # Fleet operations (sites + batch claim/complete, used by agents)
    # ------------------------------------------------------------------

    def register_site(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/sites``: register (or re-activate) an agent site."""
        registration = protocol.parse_site_registration(payload)
        record = self.store.register_site(registration.name, registration.meta)
        obs_counters.increment("service.sites_registered")
        return record.to_payload()

    def heartbeat_site(self, name: str) -> Dict[str, Any]:
        """``POST /v1/sites/{name}/heartbeat``: liveness ping; the
        response tells the agent whether the site is draining."""
        record = self.store.heartbeat_site(name)
        return {
            "site": record.to_payload(),
            "drain": record.state == "draining",
        }

    def drain_site(self, name: str) -> Dict[str, Any]:
        """``POST /v1/sites/{name}/drain``: stop handing this site
        work; its agents finish in-flight jobs and exit."""
        record = self.store.drain_site(name)
        return record.to_payload()

    def sites_payload(self) -> Dict[str, Any]:
        """``GET /v1/sites`` body."""
        return {
            "sites": [record.to_payload() for record in self.store.list_sites()]
        }

    def claim_jobs(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/jobs/claim``: lease a batch of runnable jobs.

        A claim doubles as a site heartbeat.  A draining site gets an
        empty batch plus ``draining: true`` so its agents wind down.
        """
        request = protocol.parse_claim_request(payload)
        site = self.store.heartbeat_site(request.site)
        if site.state == "draining":
            return {"jobs": [], "draining": True}
        batch = self.store.claim_batch(
            request.worker,
            request.lease_s,
            limit=request.limit,
            site=request.site,
        )
        if batch:
            obs_counters.increment("service.jobs_claimed_remote", len(batch))
        return {
            "jobs": [record.to_payload() for record in batch],
            # The subset of this batch that SSE consumers are watching:
            # the agent forwards live simulation events for exactly
            # these (everything else serialises no events).
            "watched": [
                record.id
                for record in batch
                if self.hub.is_watched(record.id)
            ],
            "draining": False,
        }

    def ingest_site_events(self, name: str, payload: Any) -> Dict[str, Any]:
        """``POST /v1/sites/{name}/events``: accept a batch of events
        forwarded by a remote agent into the telemetry ring.

        The push doubles as a site heartbeat (an agent shipping events
        is alive); an unknown site is a 404, a malformed batch a 400.
        """
        events = protocol.parse_site_events(payload)
        self.store.heartbeat_site(name)
        accepted = self.hub.ingest(name, events)
        if accepted:
            obs_counters.increment("service.events_ingested", accepted)
        return {"accepted": accepted}

    def complete_jobs(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/jobs/complete``: push a batch of job outcomes.

        Lease-holder-only and idempotent per item: a push from a
        worker that lost its lease (or retried a push that already
        landed) is answered ``accepted: false`` with the job's actual
        terminal state, never an error — so stale or duplicate agents
        stay harmless.
        """
        worker, items = protocol.parse_complete_request(payload)
        results = []
        for item in items:
            try:
                if item.ok:
                    accepted = self.store.complete(
                        item.job_id, worker, item.result
                    )
                else:
                    accepted = self.store.fail(item.job_id, worker, item.error)
                state = self.store.get(item.job_id).state
            except KeyError:
                accepted, state = False, "unknown"
            if accepted:
                if not item.ok:
                    obs_counters.increment("service.jobs_failed")
                elif state == JobState.CANCELLED:
                    obs_counters.increment("service.jobs_cancelled")
                else:
                    obs_counters.increment("service.jobs_completed")
                if item.ok and item.counters:
                    # Fold the agent's job scope into the fleet totals,
                    # once: only the first push is accepted above.
                    for key, n in item.counters.items():
                        if key.startswith(PUSHED_COUNTER_NAMESPACES):
                            obs_counters.increment(key, n)
            results.append(
                {"id": item.job_id, "accepted": accepted, "state": state}
            )
        return {"results": results}

    def renew_jobs(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/jobs/renew``: batch lease renewal (heartbeat)."""
        worker, ids, lease_s = protocol.parse_renew_request(payload)
        return {
            "renewed": [
                {"id": job_id, "ok": self.store.renew(job_id, worker, lease_s)}
                for job_id in ids
            ]
        }

    def release_jobs(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/jobs/release``: return claimed-but-unstarted
        jobs to the queue (the agent drain path)."""
        worker, ids = protocol.parse_release_request(payload)
        released = []
        for job_id in ids:
            try:
                ok = self.store.release(job_id, worker)
            except KeyError:
                ok = False
            released.append({"id": job_id, "ok": ok})
        return {"released": released}

    def health_payload(self) -> Dict[str, Any]:
        """``GET /v1/healthz`` body."""
        return {
            "status": "ok",
            "version": _package_version(),
            "workers": self.config.workers,
            "protocol": protocol.PROTOCOL_VERSION,
        }

    def metrics_payload(self) -> Dict[str, Any]:
        """``GET /v1/metrics`` body: queue depth, job counts, and the
        counter registry, both as the cache/executor/grid views (which
        count in-process workers and remote agents alike) and as the
        full snapshot."""
        counts = self.store.counts()
        counters = obs_counters.snapshot()
        fleet = ExecutorMetrics.from_counters(counters)
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "queue": {
                "depth": counts.get("queued", 0),
                "limit": self.config.queue_limit,
                "running": counts.get("running", 0),
            },
            "jobs": {
                "by_state": counts,
                "accepted": counters.get("service.jobs_accepted", 0),
                "completed": counters.get("service.jobs_completed", 0),
                "failed": counters.get("service.jobs_failed", 0),
                "cancelled": counters.get("service.jobs_cancelled", 0),
            },
            "cache": {
                "hits": fleet.cache_hits,
                "computed": fleet.cells_computed,
                "hit_rate": fleet.hit_rate,
            },
            "executor": {
                "cells_done": fleet.cells_done,
                "trials_done": fleet.trials_done,
                "trials_per_sec": fleet.trials_per_sec,
                "wall_s": fleet.wall_s,
            },
            "grid": {
                # Fleet-wide cumulative grid accounting, folded from
                # every grid-scenario cell this control plane has run
                # or accepted from an agent (integer micro-USD /
                # milligram / joule counters rendered in SI units).
                "cost_usd": counters.get("grid.cost_microusd", 0) / 1e6,
                "carbon_g": counters.get("grid.carbon_mg", 0) / 1e3,
                "energy_kwh": counters.get("grid.energy_j", 0) / 3.6e6,
                "cells_accounted": counters.get("grid.cells_accounted", 0),
            },
            "sites": self._sites_metrics(),
            "campaigns": self.campaigns.summary(),
            "telemetry": self.hub.stats(),
            "counters": counters,
            "uptime_s": uptime,
        }

    def _sites_metrics(self) -> Dict[str, Dict[str, Any]]:
        """Per-site fleet health: the job ledger of every site that
        ever claimed work, joined with registration state and the age
        of the last heartbeat."""
        stats = self.store.site_stats()
        now = self.store.clock()
        sites: Dict[str, Dict[str, Any]] = {}
        for record in self.store.list_sites():
            ledger = stats.get(
                record.name,
                {"completed": 0, "failed": 0, "inflight": 0, "cancelled": 0},
            )
            sites[record.name] = {
                **ledger,
                "state": record.state,
                "last_heartbeat_age_s": max(0.0, now - record.last_heartbeat),
            }
        for name, ledger in stats.items():
            sites.setdefault(name, dict(ledger))
        return sites

    def log_http(self, client: str, message: str) -> None:
        """HTTP request log hook (stderr when enabled)."""
        if self.config.log_requests:
            print(f"[http {client}] {message}", file=sys.stderr)


def _package_version() -> str:
    """The installed ``repro`` version string."""
    from repro import __version__

    return __version__


def default_db_path() -> Path:
    """The default on-disk store location, creating its directory."""
    path = Path(ServiceConfig.db_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path
