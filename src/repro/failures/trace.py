"""Failure traces: record once, replay everywhere.

The paper compares techniques "using the same sets of arriving
applications" (Sec. VI); the analogous variance-reduction device for
the Sec. V studies is to expose every technique to the *same failure
realization*.  A :class:`FailureTrace` stores failures in a
technique-independent form — absolute time, location as a uniform [0,1)
draw (scaled to whatever node count the consumer uses), and severity —
so one trace drives Checkpoint Restart and Redundancy alike even though
they occupy different numbers of physical nodes.

Used by :func:`repro.core.paired.paired_compare` for common-random-
numbers comparisons, by the scenario engine's trace-replay failure
regime, and handy for regression debugging (replay the exact failure
sequence that produced an anomaly).

Traces round-trip through a versioned JSON-Lines file format
(:func:`save_trace` / :func:`load_trace`): one header record naming the
format, version, unit rate, and horizon, then one record per failure.
Floats serialise with full ``repr`` precision, so a loaded trace
replays bit-identically to the recorded one at any node count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.failures.generator import Failure
from repro.failures.severity import SeverityModel
from repro.inputs import Fields, InputError, VersionedJsonl
from repro.rng.distributions import exponential


@dataclass(frozen=True)
class TracedFailure:
    """One technique-independent failure record."""

    time: float
    location_u: float  # uniform [0, 1) draw; scaled by the consumer
    severity: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if not 0.0 <= self.location_u < 1.0:
            raise ValueError(f"location_u must be in [0, 1), got {self.location_u}")
        if self.severity < 1:
            raise ValueError(f"severity must be >= 1, got {self.severity}")

    def materialize(self, nodes: int) -> Failure:
        """Bind the failure to an allocation of *nodes* physical nodes."""
        if nodes <= 0:
            raise ValueError(f"nodes must be > 0, got {nodes}")
        return Failure(
            time=self.time,
            node_id=int(self.location_u * nodes),
            severity=self.severity,
        )


@dataclass(frozen=True)
class FailureTrace:
    """An ordered failure realization over ``[0, horizon_s)``.

    The per-node rate is part of the trace's identity: a trace recorded
    at ``unit_rate`` failures/second *per node* is replayed against a
    ``nodes``-node allocation by time-scaling — a Poisson process of
    rate ``n * r`` is a rate-``r`` process with time compressed by
    ``n`` — so the same realization drives allocations of any size.
    """

    unit_rate: float  # failures per second per node
    horizon_s: float  # horizon in *unit* (single-node) time
    failures: Tuple[TracedFailure, ...]

    def __post_init__(self) -> None:
        if self.unit_rate <= 0:
            raise ValueError(f"unit_rate must be > 0, got {self.unit_rate}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {self.horizon_s}")
        times = [f.time for f in self.failures]
        if times != sorted(times):
            raise ValueError("failures must be in non-decreasing time order")
        if times and times[-1] >= self.horizon_s:
            raise ValueError("failures must fall inside the horizon")

    def __len__(self) -> int:
        return len(self.failures)

    def scaled(self, nodes: int) -> Iterator[Failure]:
        """Failures bound to a *nodes*-node allocation, with times
        compressed by the node count (rate ``nodes * unit_rate``)."""
        if nodes <= 0:
            raise ValueError(f"nodes must be > 0, got {nodes}")
        for traced in self.failures:
            yield Failure(
                time=traced.time / nodes,
                node_id=int(traced.location_u * nodes),
                severity=traced.severity,
            )

    def scaled_horizon(self, nodes: int) -> float:
        """The replay horizon for a *nodes*-node allocation."""
        return self.horizon_s / nodes


def record_trace(
    rng: np.random.Generator,
    node_mtbf_s: float,
    horizon_s: float,
    severity: Optional[SeverityModel] = None,
) -> FailureTrace:
    """Sample a single-node failure realization over ``[0, horizon_s)``.

    ``horizon_s`` is in *single-node* time; when replayed against an
    ``n``-node allocation it covers ``horizon_s / n`` seconds of
    simulated time (see :meth:`FailureTrace.scaled`).
    """
    if node_mtbf_s <= 0:
        raise ValueError(f"node_mtbf_s must be > 0, got {node_mtbf_s}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
    severity = severity if severity is not None else SeverityModel.default()
    rate = 1.0 / node_mtbf_s
    failures: List[TracedFailure] = []
    t = exponential(rng, rate)
    while t < horizon_s:
        failures.append(
            TracedFailure(
                time=t,
                location_u=float(rng.random()),
                severity=severity.sample(rng),
            )
        )
        t += exponential(rng, rate)
    return FailureTrace(
        unit_rate=rate, horizon_s=horizon_s, failures=tuple(failures)
    )


# ---------------------------------------------------------------------------
# Versioned JSONL persistence
# ---------------------------------------------------------------------------

#: Format marker in the header record of every trace file.
TRACE_FORMAT = "repro-failure-trace"

#: Bumped whenever the on-disk layout changes; mismatches are errors,
#: never silent misreads.
TRACE_FORMAT_VERSION = 1


class TraceFormatError(InputError):
    """A malformed or version-skewed trace file; one-line message."""


def _record(fields: Fields) -> TracedFailure:
    return TracedFailure(
        time=fields.take("t", "float", required=True),
        location_u=fields.take("u", "float", required=True),
        severity=fields.take("s", "int", required=True),
    )


def _build(header: Fields, failures: List[TracedFailure]) -> FailureTrace:
    return FailureTrace(
        unit_rate=header.take("unit_rate", "float", required=True),
        horizon_s=header.take("horizon_s", "float", required=True),
        failures=tuple(failures),
    )


_JSONL = VersionedJsonl(
    TRACE_FORMAT,
    TRACE_FORMAT_VERSION,
    "failures",
    "trace",
    TraceFormatError,
    _record,
    _build,
)


def trace_to_jsonl(trace: FailureTrace) -> str:
    """The canonical JSONL text of *trace* (what :func:`save_trace`
    writes); stable byte-for-byte for equal traces."""
    return _JSONL.dumps(
        {"unit_rate": trace.unit_rate, "horizon_s": trace.horizon_s},
        [{"t": f.time, "u": f.location_u, "s": f.severity} for f in trace.failures],
    )


def trace_digest(trace: FailureTrace) -> str:
    """SHA-256 of the canonical JSONL text — the trace's identity for
    cache keys and provenance stamps."""
    return _JSONL.digest(trace_to_jsonl(trace))


def save_trace(trace: FailureTrace, path: "os.PathLike | str") -> None:
    """Write *trace* to *path* in the versioned JSONL format."""
    _JSONL.save(trace_to_jsonl(trace), path)


def trace_from_jsonl(text: str, source: str = "<trace>") -> FailureTrace:
    """Parse the JSONL text of a trace (inverse of
    :func:`trace_to_jsonl`).

    Raises :class:`TraceFormatError` with a one-line message on any
    malformed header, record, or version mismatch (the scenario
    validator surfaces it field-qualified); *source* names the origin
    in the message.
    """
    return _JSONL.loads(text, source)


def load_trace(path: "os.PathLike | str") -> FailureTrace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`TraceFormatError` with a one-line message on any
    unreadable file or malformed content.
    """
    return _JSONL.load(path)
