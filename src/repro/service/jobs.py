"""Job specifications: what one service job runs, and how.

A :class:`JobSpec` is a validated :class:`repro.experiments.entry
.StudyRequest` plus the executor settings the worker should use
(worker-process count and cache policy).  The wire format is a flat
JSON object — the request fields at top level next to ``jobs`` /
``cache`` — and :meth:`JobSpec.from_payload` is the single strict
parser used by the HTTP API, the CLI's ``repro submit``, and the
store's rehydration path, so a spec that was accepted always
re-parses.  It reads the payload with the :class:`repro.inputs.Fields`
cursor every input boundary shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.experiments.entry import StudyOutcome, StudyRequest, run_request
from repro.experiments.parallel import ExecutorMetrics, ExecutorOptions
from repro.inputs import Fields, InputError

#: The service's name for the toolkit's base error: whatever the
#: boundary (job, campaign, scenario, trace or curve), malformed input
#: is an HTTP 400 with the one-line message.
ValidationError = InputError


@dataclass(frozen=True)
class JobSpec:
    """One job: the artifact request plus executor settings.

    ``jobs`` is the per-job worker-process fan-out (forwarded to
    :class:`ExecutorOptions`; results are bit-identical for any
    value), ``cache`` enables the shared on-disk result cache (on by
    default, so re-submitting the same request is a cache hit).
    """

    request: StudyRequest
    jobs: int = 1
    cache: bool = True

    def to_payload(self) -> Dict[str, Any]:
        """Flat JSON-safe dict (inverse of :meth:`from_payload`)."""
        payload = self.request.to_payload()
        payload["jobs"] = self.jobs
        payload["cache"] = self.cache
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Parse and validate a wire payload; raises
        :class:`ValidationError` with a one-line message on any
        unknown field, wrong type, or out-of-range value."""
        fields = Fields(payload)
        spec = cls.from_fields(fields)
        fields.finish()
        return spec

    @classmethod
    def from_fields(cls, fields: Fields) -> "JobSpec":
        """Take a job's keys off *fields* (the caller finishes the
        cursor, so an envelope such as ``POST /v1/jobs`` can add its
        own keys to the same closed set)."""
        return cls(
            jobs=fields.take("jobs", "int", cls.jobs, lo=1),
            cache=fields.take("cache", "bool", cls.cache),
            request=StudyRequest.from_fields(fields),
        )

    def execute(
        self,
        metrics: Optional[ExecutorMetrics] = None,
        cache_dir: Optional[Any] = None,
    ) -> StudyOutcome:
        """Run this job through the shared experiment entrypoint.

        *metrics* accumulates this job's executor counters (the agent
        passes a fresh one per job); *cache_dir* overrides the
        result-cache location (the service forwards its configured
        directory).  Execution is a pure function of the spec, so the
        rendered text is byte-identical to the direct CLI invocation of
        the same request.
        """
        options = ExecutorOptions(
            jobs=self.jobs,
            cache=self.cache,
            cache_dir=cache_dir,
            metrics=metrics,
        )
        return run_request(self.request, options=options)
