"""Wire protocol of the control-plane <-> agent fleet exchange.

The remote worker agents talk to the control plane over four POST
routes — site registration, batch claim, batch completion, and batch
lease renewal — plus release and forwarded-event batches.  This module
defines those request bodies: the payload classes the agent builds and
their strict parsers, which the HTTP API runs on the way in, so a
payload an agent sends is exactly a payload the server accepts.

Every parser reads its body with the :class:`repro.inputs.Fields`
cursor all input boundaries share (closed keys, typed takes, finite
numbers); errors are :class:`~repro.service.jobs.ValidationError` with
a one-line field-qualified message (HTTP 400).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.inputs import Fields
from repro.service.jobs import ValidationError  # noqa: F401 (re-exported)

#: Version stamp carried in site registrations and ``/v1/healthz`` so
#: mismatched fleet deployments are visible at registration time.
#: Version 2 added the claim's ``wait_s`` (a closed key set, so a
#: version-1 server would answer every claim with a 400).
PROTOCOL_VERSION = 2

#: Site names appear in URL paths (``/v1/sites/{name}/heartbeat``).
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,99}")

#: Largest batch one claim may lease (keeps one transaction bounded).
MAX_CLAIM_LIMIT = 64

#: Longest lease a remote agent may request, in seconds.
MAX_LEASE_S = 3600.0

#: Longest a claim may wait for claimable work, in seconds (one HTTP
#: request thread is held for the wait).
MAX_CLAIM_WAIT_S = 10.0

#: Largest forwarded-event batch one ``POST /v1/sites/{name}/events``
#: may carry (the agent-side forwarder flushes in batches of 256).
MAX_EVENT_BATCH = 512

#: Event kinds look like ``job.done`` / ``sim.FailureInjected``.
_KIND_RE = re.compile(r"[a-z]+\.[A-Za-z0-9_.]{1,64}")


@dataclass(frozen=True)
class SiteRegistration:
    """``POST /v1/sites`` body: a named site plus free-form metadata
    (hostname, worker count, ...)."""

    name: str
    meta: Dict[str, Any] = field(default_factory=dict)
    protocol: int = PROTOCOL_VERSION

    def to_payload(self) -> Dict[str, Any]:
        """The request body an agent sends to register."""
        return {"name": self.name, "meta": self.meta, "protocol": self.protocol}


def parse_site_registration(payload: Any) -> SiteRegistration:
    """Strictly parse a ``POST /v1/sites`` body (name, optional meta,
    protocol version must match this server's)."""
    fields = Fields(payload)
    registration = SiteRegistration(
        name=fields.take("name", "str", required=True, pattern=_NAME_RE),
        meta=fields.take("meta", "mapping", {}),
        protocol=fields.take("protocol", "int", PROTOCOL_VERSION),
    )
    fields.finish()
    if registration.protocol != PROTOCOL_VERSION:
        fields.fail(
            "protocol",
            f"unsupported version {registration.protocol} "
            f"(this server speaks {PROTOCOL_VERSION})",
        )
    return registration


@dataclass(frozen=True)
class ClaimRequest:
    """``POST /v1/jobs/claim`` body: lease up to *limit* jobs to
    *worker* on behalf of *site*, waiting up to *wait_s* seconds for
    one when none is claimable (0 answers at once)."""

    site: str
    worker: str
    limit: int = 1
    lease_s: float = 300.0
    wait_s: float = 0.0

    def to_payload(self) -> Dict[str, Any]:
        """The request body an agent sends to claim a batch."""
        return {
            "site": self.site,
            "worker": self.worker,
            "limit": self.limit,
            "lease_s": self.lease_s,
            "wait_s": self.wait_s,
        }


def parse_claim_request(payload: Any) -> ClaimRequest:
    """Strictly parse a ``POST /v1/jobs/claim`` body, bounding the
    batch size, lease duration and wait."""
    fields = Fields(payload)
    request = ClaimRequest(
        site=fields.take("site", "str", required=True, pattern=_NAME_RE),
        worker=fields.take("worker", "id", required=True),
        limit=fields.take("limit", "int", 1, lo=1, hi=MAX_CLAIM_LIMIT),
        lease_s=fields.take("lease_s", "float", 300.0, lo=1.0, hi=MAX_LEASE_S),
        wait_s=fields.take(
            "wait_s", "float", 0.0, lo=0.0, hi=MAX_CLAIM_WAIT_S
        ),
    )
    fields.finish()
    return request


@dataclass(frozen=True)
class CompletionItem:
    """One job outcome in a ``POST /v1/jobs/complete`` batch: a result
    body on success, an error line on failure.

    ``counters`` optionally carries the job's counter scope (see
    :mod:`repro.obs.counters`), so fleet-wide totals survive the process
    boundary between a remote agent and the control plane.
    """

    job_id: str
    ok: bool
    result: str = ""
    error: str = ""
    counters: Optional[Dict[str, int]] = None

    def to_payload(self) -> Dict[str, Any]:
        """One entry of a completion request's ``results`` list."""
        item: Dict[str, Any] = {"id": self.job_id, "ok": self.ok}
        if self.ok:
            item["result"] = self.result
        else:
            item["error"] = self.error
        if self.counters:
            item["counters"] = dict(self.counters)
        return item


def parse_complete_request(payload: Any) -> Tuple[str, List[CompletionItem]]:
    """Strictly parse a ``POST /v1/jobs/complete`` body; returns
    ``(worker, items)`` where each item carries a result or an error."""
    fields = Fields(payload)
    worker = fields.take("worker", "id", required=True)
    entries = fields.take("results", "list[table]", required=True, lo=1)
    fields.finish()
    items: List[CompletionItem] = []
    for entry in entries:
        job_id = entry.take("id", "id", required=True)
        ok = entry.take("ok", "bool", required=True)
        body = entry.take("result" if ok else "error", "str", "")
        counters = entry.take("counters", "map[int]")
        entry.finish()
        items.append(
            CompletionItem(
                job_id=job_id,
                ok=ok,
                result=body if ok else "",
                error="" if ok else body,
                counters=counters,
            )
        )
    return worker, items


def parse_renew_request(payload: Any) -> Tuple[str, List[str], float]:
    """``POST /v1/jobs/renew`` body: extend *worker*'s leases on *ids*
    by *lease_s* seconds; returns ``(worker, ids, lease_s)``."""
    fields = Fields(payload)
    worker = fields.take("worker", "id", required=True)
    ids = fields.take("ids", "list[id]", required=True, lo=1)
    lease_s = fields.take("lease_s", "float", 300.0, lo=1.0, hi=MAX_LEASE_S)
    fields.finish()
    return worker, ids, lease_s


def parse_release_request(payload: Any) -> Tuple[str, List[str]]:
    """``POST /v1/jobs/release`` body: return *worker*'s
    claimed-but-unstarted jobs *ids* to the queue (the agent drain
    path); returns ``(worker, ids)``."""
    fields = Fields(payload)
    worker = fields.take("worker", "id", required=True)
    ids = fields.take("ids", "list[id]", required=True, lo=1)
    fields.finish()
    return worker, ids


def parse_site_events(payload: Any) -> List[Dict[str, Any]]:
    """Strictly parse a ``POST /v1/sites/{name}/events`` body: a
    bounded ``events`` list of ``{kind, job_id?, data?}`` objects
    forwarded by an agent's :class:`repro.telemetry.forwarder
    .EventForwarder`; returns the normalized entries."""
    fields = Fields(payload)
    entries = fields.take(
        "events", "list[table]", required=True, lo=1, hi=MAX_EVENT_BATCH
    )
    fields.finish()
    parsed: List[Dict[str, Any]] = []
    for entry in entries:
        item: Dict[str, Any] = {
            "kind": entry.take("kind", "str", required=True, pattern=_KIND_RE)
        }
        job_id = entry.take("job_id", "id")
        if job_id is not None:
            item["job_id"] = job_id
        data = entry.take("data", "mapping")
        if data:
            item["data"] = data
        entry.finish()
        parsed.append(item)
    return parsed
