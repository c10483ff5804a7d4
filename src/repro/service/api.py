"""The HTTP JSON API (stdlib ``http.server``, threading).

Routes (all JSON unless noted):

- ``POST /v1/jobs`` — submit a job (a flat :class:`JobSpec` payload);
  201 with the job status, 400 on a malformed spec, 429 when the
  queue is at its depth bound.
- ``POST /v1/campaigns`` — compile a scenario (``{"scenario": name}``
  for a bundled one, or ``{"spec": {...}}`` inline) and enqueue its
  units as jobs; 201 with a campaign id, the spec SHA-256, and one
  job record per unit, 400 with the field-qualified one-line message
  on a schema violation, 429 when the queue cannot take the units.
  An ``adaptive`` field (boolean or config object) hands the campaign
  to the server-side controller, which submits dependency-chained
  trial batches per study cell, early-stops on CI convergence, and
  refines technique crossovers.
- ``GET /v1/campaigns/{id}`` — campaign lifecycle: per-cell
  convergence status, refinement intervals, trial-reduction counters,
  and (once done) the rendered winning-technique table.
- ``GET /v1/jobs`` — recent jobs (``?state=`` filter, ``?limit=``).
- ``GET /v1/jobs/{id}`` — job status.
- ``GET /v1/jobs/{id}/result`` — the rendered artifact, as raw text
  (``application/json`` when the job's format was ``json``); 409
  while the job is still active or was cancelled, 500 when it failed.
- ``DELETE /v1/jobs/{id}`` — cancel.
- ``GET /v1/metrics`` — service counters (queue depth, job counts,
  cache hit rate, per-site fleet health, telemetry ring occupancy,
  :mod:`repro.obs` counter snapshot).
- ``GET /v1/healthz`` — liveness.

Streaming routes (``text/event-stream`` over chunked HTTP/1.1):

- ``GET /`` — the dependency-free HTML/JS fleet status dashboard.
- ``GET /v1/events`` — the global live event feed (job lifecycle,
  forwarded agent events, watched jobs' simulation events, campaign
  progress).  ``Last-Event-ID`` (header or ``?last_event_id=``)
  resumes from the telemetry ring; resuming past an eviction gap
  yields a ``gap`` marker event, idle streams carry heartbeat
  comments.
- ``GET /v1/jobs/{id}/events`` — one job's stream: a ``snapshot``
  event with the current record, then that job's events as they
  happen, an ``end`` event after the terminal transition.  Opening
  the stream registers a *watch*, which turns on live
  simulation-event streaming for that job (locally and, via the
  claim response, on remote agents).
- ``GET /v1/metrics/stream`` — a ``metrics`` event with the
  ``/v1/metrics`` payload on an interval (what the dashboard polls).
- ``POST /v1/sites/{name}/events`` — forwarded agent event batches
  (the remote half of simulation-event streaming).

Fleet routes (what remote ``repro agent`` processes drive):

- ``POST /v1/sites`` — register a worker site; 201, idempotent.
- ``GET /v1/sites`` — every registered site.
- ``POST /v1/sites/{name}/heartbeat`` — liveness ping; the response's
  ``drain`` flag tells the agent to wind down.
- ``POST /v1/sites/{name}/drain`` — stop handing the site work.
- ``POST /v1/jobs/claim`` — atomically lease a batch of runnable jobs.
- ``POST /v1/jobs/complete`` — push a batch of outcomes
  (lease-holder-only, idempotent per item).
- ``POST /v1/jobs/renew`` — batch lease renewal.
- ``POST /v1/jobs/release`` — return unstarted claims to the queue.

Every request body is read by one strict path: a bad
``Content-Length``, invalid UTF-8, broken or over-deep JSON, and any
field the route's parser rejects get a 400 with a one-line JSON
``error`` — never a dropped connection.

The handler is deliberately thin: every decision lives in
:class:`repro.service.app.ReproService`, which the server object
carries; request threads only parse, dispatch, and serialize.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.campaigns.controller import UnknownCampaign
from repro.inputs import decode_json, quote
from repro.service.jobs import ValidationError
from repro.service.store import JobState, QueueFull, UnknownJob, UnknownSite
from repro.telemetry import TERMINAL_KINDS

#: Largest request body accepted (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 64 * 1024

#: Batch completion bodies carry rendered results; give them room.
MAX_COMPLETE_BODY_BYTES = 8 * 1024 * 1024

#: A sentinel sequence far beyond any real one: ``wait_for`` against
#: it is an interruptible sleep that wakes on ring close (shutdown).
_NEVER_SEQ = 2**62


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that carries the owning service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: Any) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the owning :class:`ReproService`."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet by default; the service decides whether to log."""
        self.server.service.log_http(self.address_string(), format % args)

    def _send_bytes(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        self._send_bytes(status, body, "application/json")

    def _read_json_body(
        self, max_bytes: int = MAX_BODY_BYTES, optional: bool = False
    ) -> Any:
        """The decoded JSON request body.  An empty body is an error,
        or ``{}`` when *optional* (routes that need no payload)."""
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= max_bytes:
            # The unread body would otherwise be parsed as the next
            # request on this connection.
            self.close_connection = True
            raise ValidationError(
                f"Content-Length must be 0 to {max_bytes} bytes, "
                f"got {quote(header)}"
            )
        if not length:
            if optional:
                return {}
            raise ValidationError("missing request body (expected a JSON object)")
        return decode_json(self.rfile.read(length), "request body")

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:
        """Dispatch GET routes."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        service = self.server.service
        if not parts:
            self._send_dashboard()
            return
        if parts == ["v1", "healthz"]:
            self._send_json(200, service.health_payload())
            return
        if parts == ["v1", "metrics"]:
            self._send_json(200, service.metrics_payload())
            return
        if parts == ["v1", "metrics", "stream"]:
            self._stream_metrics()
            return
        if parts == ["v1", "events"]:
            self._stream_global_events(url)
            return
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "events"
        ):
            self._stream_job_events(parts[2], url)
            return
        if parts == ["v1", "sites"]:
            self._send_json(200, service.sites_payload())
            return
        if parts == ["v1", "jobs"]:
            query = parse_qs(url.query)
            state = query.get("state", [None])[0]
            if state is not None and state not in JobState.ALL:
                self._send_json(400, {"error": f"unknown state {state!r}"})
                return
            try:
                limit = int(query.get("limit", ["100"])[0])
            except ValueError:
                self._send_json(400, {"error": "limit must be an integer"})
                return
            # SQLite reads a negative LIMIT as "no limit", and cannot
            # bind an integer beyond 64 bits.
            if not 1 <= limit < 2**63:
                self._send_json(
                    400, {"error": f"limit must be 1 to {2**63 - 1}"}
                )
                return
            records = service.store.list_jobs(state=state, limit=limit)
            self._send_json(
                200, {"jobs": [r.to_payload() for r in records]}
            )
            return
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._with_job(parts[2], self._send_status)
            return
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            self._with_job(parts[2], self._send_result)
            return
        if len(parts) == 3 and parts[:2] == ["v1", "campaigns"]:
            try:
                self._send_json(200, service.campaign_status(parts[2]))
            except UnknownCampaign:
                self._send_json(
                    404, {"error": f"no campaign {parts[2]!r}"}
                )
            return
        self._send_json(404, {"error": f"no route for {url.path}"})

    def do_POST(self) -> None:
        """Dispatch POST routes."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        service = self.server.service
        status, max_bytes = 201, MAX_BODY_BYTES
        if parts == ["v1", "jobs"]:
            handler = lambda payload: service.submit(payload).to_payload()  # noqa: E731
        elif parts == ["v1", "campaigns"]:
            handler = service.submit_campaign
        elif parts == ["v1", "sites"]:
            handler = service.register_site
        elif parts == ["v1", "jobs", "claim"]:
            handler, status = service.claim_jobs, 200
        elif parts == ["v1", "jobs", "complete"]:
            handler, status = service.complete_jobs, 200
            max_bytes = MAX_COMPLETE_BODY_BYTES
        elif parts == ["v1", "jobs", "renew"]:
            handler, status = service.renew_jobs, 200
        elif parts == ["v1", "jobs", "release"]:
            handler, status = service.release_jobs, 200
        elif (
            len(parts) == 4
            and parts[:2] == ["v1", "sites"]
            and parts[3] == "events"
        ):
            site_name = parts[2]
            handler, status = (
                lambda payload: service.ingest_site_events(  # noqa: E731
                    site_name, payload
                ),
                200,
            )
        elif (
            len(parts) == 4
            and parts[:2] == ["v1", "sites"]
            and parts[3] in ("heartbeat", "drain")
        ):
            site_name = parts[2]
            site_action = (
                service.heartbeat_site
                if parts[3] == "heartbeat"
                else service.drain_site
            )
            handler, status = (
                lambda payload: site_action(site_name),  # noqa: E731
                200,
            )
        else:
            self._send_json(404, {"error": f"no route for {url.path}"})
            return
        try:
            payload = self._read_json_body(max_bytes, optional=status != 201)
            response = handler(payload)
        except ValidationError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except UnknownSite as exc:
            self._send_json(404, {"error": f"no site {exc.args[0]!r}"})
            return
        except QueueFull as exc:
            self.send_response(429)
            self.send_header("Retry-After", "1")
            body = json.dumps({"error": str(exc)}, sort_keys=True).encode() + b"\n"
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._send_json(status, response)

    def do_DELETE(self) -> None:
        """Dispatch DELETE routes (job cancellation)."""
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._with_job(parts[2], self._cancel_job)
            return
        self._send_json(404, {"error": f"no route for {self.path}"})

    # -- job helpers ---------------------------------------------------

    def _with_job(self, job_id: str, action) -> None:
        try:
            action(job_id)
        except UnknownJob:
            self._send_json(404, {"error": f"no job {job_id!r}"})

    def _send_status(self, job_id: str) -> None:
        record = self.server.service.store.get(job_id)
        self._send_json(200, record.to_payload())

    def _cancel_job(self, job_id: str) -> None:
        record = self.server.service.cancel(job_id)
        self._send_json(200, record.to_payload())

    def _send_result(self, job_id: str) -> None:
        record = self.server.service.store.get(job_id)
        if record.state == JobState.DONE:
            content_type = (
                "application/json"
                if record.spec.get("format") == "json"
                else "text/plain; charset=utf-8"
            )
            self._send_bytes(
                200, (record.result or "").encode("utf-8"), content_type
            )
            return
        if record.state == JobState.FAILED:
            self._send_json(
                500, {"error": record.error or "job failed", "state": record.state}
            )
            return
        self._send_json(
            409,
            {
                "error": f"job is {record.state}, no result available",
                "state": record.state,
            },
        )

    # -- dashboard -----------------------------------------------------

    def _send_dashboard(self) -> None:
        """``GET /``: the dependency-free HTML/JS status page."""
        from repro.telemetry.dashboard import DASHBOARD_HTML

        self._send_bytes(
            200, DASHBOARD_HTML.encode("utf-8"), "text/html; charset=utf-8"
        )

    # -- SSE streaming -------------------------------------------------
    #
    # Streams run on the request's own daemon thread and never block
    # the workers: they only read the telemetry ring (appends there
    # never wait for consumers).  Shutdown closes the ring, which
    # wakes every blocked stream so it winds down before the listener
    # goes away; a disconnected client surfaces as a broken pipe on
    # the next write and just ends the stream.

    def _last_event_id(self, url: Any) -> Optional[int]:
        """The resume position: the ``Last-Event-ID`` header (what
        ``EventSource`` reconnects send) or a ``?last_event_id=``
        query parameter; None to start at the live edge."""
        raw = self.headers.get("Last-Event-ID")
        if raw is None:
            raw = parse_qs(url.query).get("last_event_id", [None])[0]
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            value = -1
        if value < 0:
            raise ValidationError(
                f"Last-Event-ID must be a non-negative integer, got {raw!r}"
            )
        return value

    def _sse_begin(self) -> None:
        """Open a chunked ``text/event-stream`` response.  The
        ``Connection: close`` header also tells the base handler not
        to expect another request on this socket."""
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()

    def _sse_chunk(self, data: bytes) -> None:
        self.wfile.write(b"%X\r\n" % len(data) + data + b"\r\n")
        self.wfile.flush()

    def _sse_end(self) -> None:
        """The terminating zero-length chunk of a finished stream."""
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    def _sse_event(
        self,
        event: str,
        payload: Dict[str, Any],
        event_id: Optional[int] = None,
    ) -> None:
        """One SSE frame; *event_id* feeds the client's
        ``Last-Event-ID`` resume cursor (synthetic frames like
        ``snapshot`` and ``gap`` carry none, so they never become a
        resume position)."""
        lines = []
        if event_id is not None:
            lines.append(f"id: {event_id}")
        lines.append(f"event: {event}")
        lines.append("data: " + json.dumps(payload, sort_keys=True))
        self._sse_chunk(("\n".join(lines) + "\n\n").encode("utf-8"))

    def _sse_comment(self, text: str) -> None:
        """A comment frame (the idle-stream heartbeat)."""
        self._sse_chunk(f": {text}\n\n".encode("utf-8"))

    def _stream_global_events(self, url: Any) -> None:
        """``GET /v1/events``: follow the whole telemetry ring."""
        service = self.server.service
        ring = service.hub.ring
        try:
            resume = self._last_event_id(url)
        except ValidationError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        last_seq = resume if resume is not None else ring.last_seq
        heartbeat_s = service.config.sse_heartbeat_s
        try:
            self._sse_begin()
            while True:
                events, missed = ring.read_since(last_seq)
                if missed:
                    self._sse_event(
                        "gap", {"missed": missed, "after_seq": last_seq}
                    )
                    last_seq += missed
                for event in events:
                    last_seq = event.seq
                    self._sse_event(
                        "event", event.to_payload(), event_id=event.seq
                    )
                if not ring.wait_for(last_seq, heartbeat_s):
                    if ring.closed:
                        break
                    self._sse_comment("heartbeat")
            self._sse_end()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _stream_job_events(self, job_id: str, url: Any) -> None:
        """``GET /v1/jobs/{id}/events``: one job's slice of the feed.

        Opens with a ``snapshot`` of the current record, then follows
        the ring filtered to this job, and closes with an ``end``
        frame once the job's terminal transition has streamed.  The
        open stream registers a refcounted *watch*, so the job's
        in-flight simulation events are streamed too — a watch must
        exist when the job starts executing for those to appear
        (lifecycle events always stream).
        """
        service = self.server.service
        hub = service.hub
        ring = hub.ring
        try:
            resume = self._last_event_id(url)
        except ValidationError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        # Read the cursor before the record: a transition landing
        # between the two reads then streams after the stale snapshot
        # instead of being skipped.
        last_seq = resume if resume is not None else ring.last_seq
        try:
            record = service.store.get(job_id)
        except UnknownJob:
            self._send_json(404, {"error": f"no job {job_id!r}"})
            return
        heartbeat_s = service.config.sse_heartbeat_s
        hub.watch(job_id)
        watching = True

        def end(payload: Dict[str, Any]) -> None:
            # Drop the watch first: a client that has read the end
            # frame must not still see it in /v1/metrics.
            nonlocal watching
            hub.unwatch(job_id)
            watching = False
            self._sse_event("end", payload)
            self._sse_end()

        try:
            self._sse_begin()
            self._sse_event("snapshot", record.to_payload())
            if resume is None and record.state in JobState.TERMINAL:
                end({"state": record.state})
                return
            while True:
                events, missed = ring.read_since(last_seq)
                if missed:
                    self._sse_event(
                        "gap", {"missed": missed, "after_seq": last_seq}
                    )
                    last_seq += missed
                for event in events:
                    last_seq = event.seq
                    if event.job_id != job_id:
                        continue
                    self._sse_event(
                        "event", event.to_payload(), event_id=event.seq
                    )
                    if event.kind in TERMINAL_KINDS:
                        end({"kind": event.kind, "seq": event.seq})
                        return
                if not ring.wait_for(last_seq, heartbeat_s):
                    if ring.closed:
                        self._sse_end()
                        return
                    # Idle: heartbeat, and re-check the record in case
                    # the terminal event was evicted before we read it
                    # (possible only after a gap).
                    try:
                        state = service.store.get(job_id).state
                    except UnknownJob:  # pragma: no cover - jobs persist
                        state = "unknown"
                    if state in JobState.TERMINAL:
                        end({"state": state})
                        return
                    self._sse_comment("heartbeat")
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            if watching:
                hub.unwatch(job_id)

    def _stream_metrics(self) -> None:
        """``GET /v1/metrics/stream``: periodic ``metrics`` frames
        with the ``/v1/metrics`` payload (the dashboard's feed)."""
        service = self.server.service
        ring = service.hub.ring
        interval = service.config.metrics_stream_interval_s
        try:
            self._sse_begin()
            while True:
                self._sse_event("metrics", service.metrics_payload())
                ring.wait_for(_NEVER_SEQ, interval)
                if ring.closed:
                    break
            self._sse_end()
        except (BrokenPipeError, ConnectionResetError):
            pass


def make_server(
    host: str, port: int, service: Any
) -> ServiceHTTPServer:
    """Bind the API server (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), service)


def bound_port(server: Optional[ServiceHTTPServer]) -> Optional[int]:
    """The actually-bound port of *server* (None when not started)."""
    if server is None:
        return None
    return server.server_address[1]
