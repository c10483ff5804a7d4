"""Wire protocol of the control-plane <-> agent fleet exchange.

The remote worker agents talk to the control plane over four POST
routes — site registration, batch claim, batch completion, and batch
lease renewal.  This module is the single strict parser for those
request bodies, used by the HTTP API on the way in and mirrored by the
agent when it builds them, so a payload an agent sends is exactly a
payload the server accepts.

All validation errors raise :class:`repro.service.jobs
.ValidationError` with a one-line field-qualified message (HTTP 400).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.service.jobs import ValidationError

#: Version stamp carried in site registrations and ``/v1/healthz`` so
#: mismatched fleet deployments are visible at registration time.
PROTOCOL_VERSION = 1

#: Site names appear in URL paths (``/v1/sites/{name}/heartbeat``).
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")

#: Largest batch one claim may lease (keeps one transaction bounded).
MAX_CLAIM_LIMIT = 64

#: Longest lease a remote agent may request, in seconds.
MAX_LEASE_S = 3600.0

#: Largest forwarded-event batch one ``POST /v1/sites/{name}/events``
#: may carry (the agent-side forwarder flushes in batches of 256).
MAX_EVENT_BATCH = 512

#: Event kinds look like ``job.done`` / ``sim.FailureInjected``.
_KIND_RE = re.compile(r"^[a-z]+\.[A-Za-z0-9_.]{1,64}$")


def _require_str(payload: Dict[str, Any], field_name: str) -> str:
    value = payload.pop(field_name, None)
    if not isinstance(value, str) or not value:
        raise ValidationError(
            f"field {field_name!r} must be a non-empty string, got {value!r}"
        )
    return value


def _check_no_extras(payload: Dict[str, Any], what: str) -> None:
    if payload:
        raise ValidationError(
            f"unknown {what} field {sorted(payload)[0]!r}"
        )


def validate_site_name(name: str) -> str:
    """A site name usable in a URL path; raises on anything else."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(
            f"site name must match {_NAME_RE.pattern} "
            f"(letters, digits, '.', '_', '-'), got {name!r}"
        )
    return name


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
    if not isinstance(payload, dict):
        raise ValidationError("site registration must be a JSON object")
    data = dict(payload)
    name = validate_site_name(data.pop("name", None))
    meta = data.pop("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError(f"field 'meta' must be an object, got {meta!r}")
    protocol = data.pop("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        raise ValidationError(
            f"unsupported protocol version {protocol!r} "
            f"(this server speaks {PROTOCOL_VERSION})"
        )
    _check_no_extras(data, "site registration")
    return SiteRegistration(name=name, meta=meta, protocol=protocol)


@dataclass(frozen=True)
class ClaimRequest:
    """``POST /v1/jobs/claim`` body: lease up to *limit* jobs to
    *worker* on behalf of *site*."""

    site: str
    worker: str
    limit: int = 1
    lease_s: float = 300.0

    def to_payload(self) -> Dict[str, Any]:
        """The request body an agent sends to claim a batch."""
        return {
            "site": self.site,
            "worker": self.worker,
            "limit": self.limit,
            "lease_s": self.lease_s,
        }


def parse_claim_request(payload: Any) -> ClaimRequest:
    """Strictly parse a ``POST /v1/jobs/claim`` body, bounding the
    batch size and lease duration."""
    if not isinstance(payload, dict):
        raise ValidationError("claim request must be a JSON object")
    data = dict(payload)
    site = validate_site_name(data.pop("site", None))
    worker = _require_str(data, "worker")
    limit = data.pop("limit", 1)
    if (
        isinstance(limit, bool)
        or not isinstance(limit, int)
        or not 1 <= limit <= MAX_CLAIM_LIMIT
    ):
        raise ValidationError(
            f"field 'limit' must be an integer in [1, {MAX_CLAIM_LIMIT}], "
            f"got {limit!r}"
        )
    lease_s = data.pop("lease_s", 300.0)
    if (
        isinstance(lease_s, bool)
        or not isinstance(lease_s, (int, float))
        or not 1.0 <= float(lease_s) <= MAX_LEASE_S
    ):
        raise ValidationError(
            f"field 'lease_s' must be a number in [1, {MAX_LEASE_S:g}], "
            f"got {lease_s!r}"
        )
    _check_no_extras(data, "claim request")
    return ClaimRequest(
        site=site, worker=worker, limit=limit, lease_s=float(lease_s)
    )


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
    if not isinstance(payload, dict):
        raise ValidationError("completion request must be a JSON object")
    data = dict(payload)
    worker = _require_str(data, "worker")
    results = data.pop("results", None)
    if not isinstance(results, list) or not results:
        raise ValidationError(
            "field 'results' must be a non-empty list of job outcomes"
        )
    _check_no_extras(data, "completion request")
    items: List[CompletionItem] = []
    for index, entry in enumerate(results):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"results[{index}] must be an object, got {entry!r}"
            )
        entry = dict(entry)
        job_id = _require_str(entry, "id")
        ok = entry.pop("ok", None)
        if not isinstance(ok, bool):
            raise ValidationError(
                f"results[{index}].ok must be a boolean, got {ok!r}"
            )
        body = entry.pop("result" if ok else "error", "")
        if not isinstance(body, str):
            raise ValidationError(
                f"results[{index}].{'result' if ok else 'error'} "
                f"must be a string"
            )
        counters = entry.pop("counters", None)
        if counters is not None:
            if not isinstance(counters, dict) or not all(
                isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
                for k, v in counters.items()
            ):
                raise ValidationError(
                    f"results[{index}].counters must map counter names "
                    f"to integers"
                )
        _check_no_extras(entry, f"results[{index}]")
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
    if not isinstance(payload, dict):
        raise ValidationError("renew request must be a JSON object")
    data = dict(payload)
    worker = _require_str(data, "worker")
    ids = data.pop("ids", None)
    if (
        not isinstance(ids, list)
        or not ids
        or not all(isinstance(i, str) and i for i in ids)
    ):
        raise ValidationError(
            "field 'ids' must be a non-empty list of job id strings"
        )
    lease_s = data.pop("lease_s", 300.0)
    if (
        isinstance(lease_s, bool)
        or not isinstance(lease_s, (int, float))
        or not 1.0 <= float(lease_s) <= MAX_LEASE_S
    ):
        raise ValidationError(
            f"field 'lease_s' must be a number in [1, {MAX_LEASE_S:g}], "
            f"got {lease_s!r}"
        )
    _check_no_extras(data, "renew request")
    return worker, list(ids), float(lease_s)


def parse_release_request(payload: Any) -> Tuple[str, List[str]]:
    """``POST /v1/jobs/release`` body: return *worker*'s
    claimed-but-unstarted jobs *ids* to the queue (the agent drain
    path); returns ``(worker, ids)``."""
    if not isinstance(payload, dict):
        raise ValidationError("release request must be a JSON object")
    data = dict(payload)
    worker = _require_str(data, "worker")
    ids = data.pop("ids", None)
    if (
        not isinstance(ids, list)
        or not ids
        or not all(isinstance(i, str) and i for i in ids)
    ):
        raise ValidationError(
            "field 'ids' must be a non-empty list of job id strings"
        )
    _check_no_extras(data, "release request")
    return worker, list(ids)


def parse_site_events(payload: Any) -> List[Dict[str, Any]]:
    """Strictly parse a ``POST /v1/sites/{name}/events`` body: a
    bounded ``events`` list of ``{kind, job_id?, data?}`` objects
    forwarded by an agent's :class:`repro.telemetry.forwarder
    .EventForwarder`; returns the normalized entries."""
    if not isinstance(payload, dict):
        raise ValidationError("event batch must be a JSON object")
    data = dict(payload)
    events = data.pop("events", None)
    if not isinstance(events, list) or not events:
        raise ValidationError(
            "field 'events' must be a non-empty list of event objects"
        )
    if len(events) > MAX_EVENT_BATCH:
        raise ValidationError(
            f"field 'events' may carry at most {MAX_EVENT_BATCH} entries, "
            f"got {len(events)}"
        )
    _check_no_extras(data, "event batch")
    parsed: List[Dict[str, Any]] = []
    for index, entry in enumerate(events):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"events[{index}] must be an object, got {entry!r}"
            )
        entry = dict(entry)
        kind = entry.pop("kind", None)
        if not isinstance(kind, str) or not _KIND_RE.match(kind):
            raise ValidationError(
                f"events[{index}].kind must match {_KIND_RE.pattern}, "
                f"got {kind!r}"
            )
        job_id = entry.pop("job_id", None)
        if job_id is not None and (
            not isinstance(job_id, str) or not job_id
        ):
            raise ValidationError(
                f"events[{index}].job_id must be a non-empty string"
            )
        event_data = entry.pop("data", None)
        if event_data is not None and not isinstance(event_data, dict):
            raise ValidationError(
                f"events[{index}].data must be an object, got {event_data!r}"
            )
        _check_no_extras(entry, f"events[{index}]")
        item: Dict[str, Any] = {"kind": kind}
        if job_id is not None:
            item["job_id"] = job_id
        if event_data:
            item["data"] = event_data
        parsed.append(item)
    return parsed


def parse_job_id(value: Any) -> Optional[str]:
    """An optional client-supplied idempotency key for ``POST
    /v1/jobs`` (resubmitting the same ``job_id`` returns the original
    record instead of enqueueing a duplicate)."""
    if value is None:
        return None
    if (
        not isinstance(value, str)
        or not re.match(r"^[A-Za-z0-9._-]{8,64}$", value)
    ):
        raise ValidationError(
            "field 'job_id' must be 8-64 characters of letters, digits, "
            f"'.', '_', '-', got {value!r}"
        )
    return value


def parse_depends_on(value: Any) -> Optional[List[str]]:
    """The optional ``depends_on`` list of a ``POST /v1/jobs`` body:
    parent job ids this submission must wait for (the job enters the
    ``blocked`` state until every parent is terminal)."""
    if value is None:
        return None
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(i, str) and i for i in value)
    ):
        raise ValidationError(
            "field 'depends_on' must be a non-empty list of job id "
            f"strings, got {value!r}"
        )
    return list(value)


def parse_dep_policy(value: Any) -> str:
    """The optional ``dep_policy`` field of a ``POST /v1/jobs`` body:
    what a failed or cancelled parent does to this job (``cascade``,
    the default, propagates; ``run`` releases the job regardless)."""
    from repro.service.store import DepPolicy

    if value is None:
        return DepPolicy.CASCADE
    if not isinstance(value, str) or value not in DepPolicy.ALL:
        raise ValidationError(
            f"field 'dep_policy' must be one of {', '.join(DepPolicy.ALL)}, "
            f"got {value!r}"
        )
    return value
