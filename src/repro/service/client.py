"""Client SDK for the repro service (stdlib ``urllib`` only).

Example::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8642")
    job = client.submit(experiment="fig1", quick=True, format="json")
    record = client.wait(job["id"], timeout=600)
    print(client.result(job["id"]))

Every HTTP error becomes a :class:`ServiceError` carrying the status
code and the server's one-line message, so callers never parse error
bodies themselves.

Resilience: the client retries with capped jittered exponential
backoff (:class:`RetryPolicy`).  A ``429 Too Many Requests`` is
retried on every verb, honouring the server's ``Retry-After`` header
— queue-full rejection happens atomically before anything is
enqueued, so re-sending is always safe.  Connection-level failures
(refused, reset, timed out) are retried only for *idempotent* calls:
GETs, the lease-based fleet verbs, and submits that carry a
client-supplied ``job_id`` idempotency key.  A bare submit without a
``job_id`` is never retried on a connection error, because the first
attempt may have landed.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


class ServiceError(RuntimeError):
    """An HTTP-level failure: ``status`` plus the server's message."""

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header (seconds), when the server
        #: sent one.
        self.retry_after = retry_after


@dataclass(frozen=True)
class RetryPolicy:
    """Capped jittered exponential backoff for transient failures.

    ``attempts`` counts total tries (1 = no retries).  The *n*-th
    backoff is ``backoff_s * 2**n`` capped at ``backoff_cap_s``, with
    up to ``jitter`` fraction of itself added so a fleet of agents
    never retries in lockstep.  A server ``Retry-After`` overrides the
    computed backoff, capped at ``retry_after_cap_s``.
    """

    attempts: int = 4
    backoff_s: float = 0.2
    backoff_cap_s: float = 5.0
    jitter: float = 0.5
    retry_after_cap_s: float = 30.0

    def delay(self, attempt: int, rng: Callable[[], float]) -> float:
        """Backoff before retry number *attempt* (0-based)."""
        base = min(self.backoff_s * (2.0 ** attempt), self.backoff_cap_s)
        return base * (1.0 + self.jitter * rng())


#: Retries disabled (used by the load generator to measure the
#: server's raw accept/reject behaviour).
NO_RETRY = RetryPolicy(attempts=1)


class ServiceClient:
    """Talks to one service instance at *base_url*.

    *retry* configures transient-failure handling (pass
    :data:`NO_RETRY` to disable).  *sleep* and *rng* are injectable
    for tests.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._rng = rng

    # ------------------------------------------------------------------
    # Raw transport
    # ------------------------------------------------------------------

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> tuple:
        """One round-trip; returns ``(status, content_type, body_bytes)``."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return (
                    resp.status,
                    resp.headers.get("Content-Type", ""),
                    resp.read(),
                )
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw).get("error", raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                message = raw.decode("utf-8", "replace")
            raise ServiceError(
                exc.code, message, retry_after=_retry_after(exc)
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: {exc.reason}")

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        idempotent: Optional[bool] = None,
    ) -> tuple:
        """Round-trip with the retry policy applied.

        429s are retried for every verb (rejection is pre-enqueue and
        atomic), honouring ``Retry-After``.  Connection-level failures
        (``status == 0`` — refused, reset, DNS, timeout) are retried
        only when *idempotent* (defaults to ``method == "GET"``).
        """
        if idempotent is None:
            idempotent = method == "GET"
        policy = self.retry
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                retriable = exc.status == 429 or (
                    exc.status == 0 and idempotent
                )
                if not retriable or attempt >= policy.attempts - 1:
                    raise
                delay = policy.delay(attempt, self._rng)
                if exc.status == 429 and exc.retry_after is not None:
                    delay = min(exc.retry_after, policy.retry_after_cap_s)
                self._sleep(delay)
                attempt += 1
            except (ConnectionError, TimeoutError) as exc:
                # urllib raises some mid-response failures raw (e.g.
                # RemoteDisconnected is a ConnectionResetError).
                if not idempotent or attempt >= policy.attempts - 1:
                    raise ServiceError(
                        0, f"cannot reach {self.base_url}: {exc}"
                    ) from exc
                self._sleep(policy.delay(attempt, self._rng))
                attempt += 1

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        idempotent: Optional[bool] = None,
    ) -> Dict[str, Any]:
        _, _, body = self._request(method, path, payload, idempotent=idempotent)
        return json.loads(body)

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._json("GET", "/v1/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics``."""
        return self._json("GET", "/v1/metrics")

    def submit(
        self,
        payload: Optional[Dict[str, Any]] = None,
        *,
        job_id: Optional[str] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """``POST /v1/jobs``: submit a flat job spec.

        Pass the spec as a dict or as keyword arguments
        (``submit(experiment="fig1", quick=True)``); returns the job
        status payload (its ``id`` names the job from now on).

        *job_id* is an optional client-chosen idempotency key (8-64
        chars of ``[A-Za-z0-9._-]``): resubmitting the same key
        returns the original record instead of a duplicate, which also
        makes the submit safe to retry on connection errors.
        """
        spec = dict(payload or {})
        spec.update(fields)
        if job_id is not None:
            spec["job_id"] = job_id
        return self._json(
            "POST", "/v1/jobs", spec, idempotent=job_id is not None
        )

    def submit_campaign(
        self, payload: Optional[Dict[str, Any]] = None, **fields: Any
    ) -> Dict[str, Any]:
        """``POST /v1/campaigns``: compile a scenario into jobs.

        Pass ``scenario="fig1"`` for a bundled scenario or
        ``spec={...}`` for an inline document, plus optional ``quick``
        / ``jobs`` / ``cache`` / ``format`` overrides.  Returns the
        campaign payload: the canonical-spec SHA-256, compiler notes,
        and one job record per compiled unit (wait on each
        ``unit["job"]["id"]`` as with :meth:`submit`).
        """
        body = dict(payload or {})
        body.update(fields)
        return self._json("POST", "/v1/campaigns", body)

    def campaign_status(self, campaign_id: str) -> Dict[str, Any]:
        """``GET /v1/campaigns/{id}``: campaign lifecycle — per-cell
        convergence, refinement intervals, trial counters, and (once
        ``state`` is ``done``) the rendered winning-technique table."""
        return self._json("GET", f"/v1/campaigns/{campaign_id}")

    def wait_campaign(
        self,
        campaign_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll :meth:`campaign_status` until ``state`` is ``done``;
        raises :class:`TimeoutError` when *timeout* elapses first."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.campaign_status(campaign_id)
            if status["state"] == "done":
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {status['state']} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll_s)

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}``."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def list_jobs(
        self, state: Optional[str] = None, limit: int = 100
    ) -> Dict[str, Any]:
        """``GET /v1/jobs`` (optionally filtered by state)."""
        query = f"?limit={limit}" + (f"&state={state}" if state else "")
        return self._json("GET", f"/v1/jobs{query}")

    def result(self, job_id: str) -> str:
        """``GET /v1/jobs/{id}/result``: the artifact text, verbatim."""
        _, _, body = self._request("GET", f"/v1/jobs/{job_id}/result")
        return body.decode("utf-8")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /v1/jobs/{id}``."""
        return self._json("DELETE", f"/v1/jobs/{job_id}")

    def iter_events(
        self,
        job_id: Optional[str] = None,
        last_event_id: Optional[int] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Follow the live SSE event feed as parsed frames.

        With *job_id*, streams ``GET /v1/jobs/{id}/events`` — a
        ``snapshot`` frame, then that job's events, then an ``end``
        frame, after which the generator returns.  Without it, streams
        the global ``GET /v1/events`` feed indefinitely.

        Yields ``{"event": name, "data": payload, "id": seq_or_None}``
        dicts.  Disconnects reconnect under the client's
        :class:`RetryPolicy`, resuming from the last delivered
        sequence number (the server answers a resume past an eviction
        with a ``gap`` frame, so consumers see losses rather than
        silence); the retry budget resets whenever a frame arrives.
        *last_event_id* starts the first connection at a known
        position instead of the live edge.
        """
        path = (
            f"/v1/jobs/{job_id}/events"
            if job_id is not None
            else "/v1/events"
        )
        policy = self.retry
        attempt = 0
        cursor = last_event_id
        while True:
            headers = {"Accept": "text/event-stream"}
            if cursor is not None:
                headers["Last-Event-ID"] = str(cursor)
            request = urllib.request.Request(
                self.base_url + path, headers=headers
            )
            response = None
            try:
                response = urllib.request.urlopen(
                    request, timeout=self.timeout
                )
                event_name, event_id, data_lines = "message", None, []
                for raw in response:
                    line = raw.decode("utf-8").rstrip("\r\n")
                    if not line:
                        if data_lines:
                            frame = {
                                "event": event_name,
                                "data": json.loads("\n".join(data_lines)),
                                "id": event_id,
                            }
                            if event_id is not None:
                                cursor = event_id
                            attempt = 0
                            yield frame
                            if event_name == "end":
                                return
                        event_name, event_id, data_lines = "message", None, []
                    elif line.startswith(":"):
                        attempt = 0  # heartbeats prove liveness too
                    elif line.startswith("id:"):
                        try:
                            event_id = int(line[3:].strip())
                        except ValueError:
                            event_id = None
                    elif line.startswith("event:"):
                        event_name = line[6:].strip()
                    elif line.startswith("data:"):
                        data_lines.append(line[5:].strip())
                # Clean EOF (server wound the stream down): fall
                # through to reconnect-with-resume.
            except urllib.error.HTTPError as exc:
                raw = exc.read()
                try:
                    message = json.loads(raw).get(
                        "error", raw.decode("utf-8")
                    )
                except (json.JSONDecodeError, UnicodeDecodeError):
                    message = raw.decode("utf-8", "replace")
                if exc.code != 429:
                    raise ServiceError(exc.code, message) from exc
            except (urllib.error.URLError, ConnectionError, TimeoutError, OSError):
                pass
            finally:
                if response is not None:
                    response.close()
            if attempt >= policy.attempts - 1:
                raise ServiceError(
                    0, f"event stream to {self.base_url} lost"
                )
            self._sleep(policy.delay(attempt, self._rng))
            attempt += 1

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state.

        Returns the final status payload (check ``state`` — a failed
        or cancelled job is a normal return, not an exception).  Raises
        :class:`TimeoutError` when *timeout* elapses first.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout:g}s"
                )
            time.sleep(poll_s)

    # ------------------------------------------------------------------
    # Fleet surface (what remote agents drive)
    # ------------------------------------------------------------------
    # All of these are lease-based and therefore idempotent: a retried
    # claim hands back jobs this worker already leases, a retried
    # completion is answered "already terminal", so connection-error
    # retries are safe.

    def register_site(
        self, name: str, meta: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """``POST /v1/sites``: register (or re-activate) a site."""
        from repro.service.protocol import PROTOCOL_VERSION

        payload = {
            "name": name,
            "meta": meta or {},
            "protocol": PROTOCOL_VERSION,
        }
        return self._json("POST", "/v1/sites", payload, idempotent=True)

    def list_sites(self) -> Dict[str, Any]:
        """``GET /v1/sites``."""
        return self._json("GET", "/v1/sites")

    def site_heartbeat(self, name: str) -> Dict[str, Any]:
        """``POST /v1/sites/{name}/heartbeat``: liveness ping; the
        response's ``drain`` flag asks the agent to wind down."""
        return self._json(
            "POST", f"/v1/sites/{name}/heartbeat", {}, idempotent=True
        )

    def drain_site(self, name: str) -> Dict[str, Any]:
        """``POST /v1/sites/{name}/drain``: stop handing the site work."""
        return self._json(
            "POST", f"/v1/sites/{name}/drain", {}, idempotent=True
        )

    def claim_jobs(
        self,
        site: str,
        worker: str,
        limit: int = 1,
        lease_s: float = 300.0,
        wait_s: float = 0.0,
    ) -> Dict[str, Any]:
        """``POST /v1/jobs/claim``: lease up to *limit* runnable jobs,
        the server waiting up to *wait_s* seconds for one when none is
        claimable."""
        payload = {
            "site": site,
            "worker": worker,
            "limit": limit,
            "lease_s": lease_s,
            "wait_s": wait_s,
        }
        return self._json("POST", "/v1/jobs/claim", payload, idempotent=True)

    def complete_jobs(
        self, worker: str, results: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """``POST /v1/jobs/complete``: push a batch of outcomes.

        Each entry is ``{"id", "ok", "result"|"error"}``; the response
        carries per-item ``accepted`` + final ``state``.
        """
        payload = {"worker": worker, "results": results}
        return self._json(
            "POST", "/v1/jobs/complete", payload, idempotent=True
        )

    def renew_jobs(
        self, worker: str, ids: List[str], lease_s: float = 300.0
    ) -> Dict[str, Any]:
        """``POST /v1/jobs/renew``: batch lease renewal (heartbeat)."""
        payload = {"worker": worker, "ids": ids, "lease_s": lease_s}
        return self._json("POST", "/v1/jobs/renew", payload, idempotent=True)

    def release_jobs(self, worker: str, ids: List[str]) -> Dict[str, Any]:
        """``POST /v1/jobs/release``: return unstarted claims to the
        queue (the agent drain path)."""
        payload = {"worker": worker, "ids": ids}
        return self._json(
            "POST", "/v1/jobs/release", payload, idempotent=True
        )

    def post_site_events(
        self, site: str, events: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """``POST /v1/sites/{name}/events``: forward a batch of live
        telemetry events.  Deliberately *not* retried on connection
        errors — the feed is best-effort, and a dropped batch beats a
        duplicated one (the forwarder counts the loss)."""
        payload = {"events": events}
        return self._json(
            "POST", f"/v1/sites/{site}/events", payload, idempotent=False
        )


def _retry_after(exc: urllib.error.HTTPError) -> Optional[float]:
    """Parse a ``Retry-After`` header (seconds form only)."""
    value = exc.headers.get("Retry-After") if exc.headers else None
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
