"""Live telemetry: ring-buffer event feed, SSE streaming, dashboard.

The subsystem that makes long service runs observable *while they
run* (ROADMAP open item 1; monitoring is a first-class resilience
pattern alongside checkpointing and replication in the HPC pattern
literature):

- :mod:`repro.telemetry.ring` — the bounded, thread-safe event ring
  with monotonic sequence numbers and dropped-event accounting;
- :mod:`repro.telemetry.hub` — the control-plane hub: the ring, the
  per-job watch registry, and the publish surface the other layers
  feed (the job store narrates every transition it commits into it,
  whether the in-process pool or the remote fleet drove it);
- :mod:`repro.telemetry.forwarder` — the agent-side bounded buffer
  batching events back over ``POST /v1/sites/{name}/events``;
- :mod:`repro.telemetry.dashboard` — the dependency-free HTML/JS
  status page served at ``GET /``.

Streaming never perturbs results: live simulation-event sinks attach
only to *watched* jobs' trials (via :mod:`repro.obs.live`), so every
other simulation serialises no events, and sinks are passive observers
that never change the execution path, so watched runs stay
byte-identical too.
See ``docs/OBSERVABILITY.md`` (streaming section) and
``docs/SERVICE.md`` (API table).
"""

from repro.telemetry.forwarder import EventForwarder, ForwardingTelemetry
from repro.telemetry.hub import SKIP_SIM_EVENTS, TERMINAL_KINDS, TelemetryHub
from repro.telemetry.ring import TelemetryEvent, TelemetryRing

__all__ = [
    "EventForwarder",
    "ForwardingTelemetry",
    "SKIP_SIM_EVENTS",
    "TERMINAL_KINDS",
    "TelemetryEvent",
    "TelemetryHub",
    "TelemetryRing",
]
