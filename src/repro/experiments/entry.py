"""One shared entrypoint for every paper artifact.

Historically each artifact was runnable only through the CLI's
``__main__`` plumbing; the job service (:mod:`repro.service`) needs the
same runs callable as a library function with *identical* output bytes.
This module is that single code path: :class:`StudyRequest` names an
artifact plus its parameters, :func:`run_request` executes it through
:func:`repro.experiments.parallel.run_cells` and renders it, and both
the CLI and the service worker call nothing else — so a job submitted
over HTTP is guaranteed byte-identical to the equivalent direct CLI
invocation (same seeds, same cache keys, same serializer).

Request validation is strict and raises :class:`RequestError` (an
:class:`~repro.inputs.InputError`) with a one-line message; the CLI
turns that into exit 2 and the HTTP API into a 400 response.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.experiments.parallel import ExecutorOptions
from repro.inputs import Fields, InputError

#: Figure drivers that produce a :class:`ScalingStudyResult`.
SCALING_FIGS = ("fig1", "fig2", "fig3")

#: Figure drivers that produce a :class:`DatacenterStudyResult`.
DATACENTER_FIGS = ("fig4", "fig5")

#: Parameter sweeps runnable as jobs (see :mod:`repro.experiments.sweep`).
SWEEPS = ("severity_pmf", "recovery_parallelism", "checkpoint_interval")

#: Every artifact name accepted by :func:`run_request`.  ``scenario``
#: is the generic scenario-engine artifact: its parameters live in the
#: request's embedded canonical-JSON spec rather than in flat fields.
EXPERIMENTS = (
    ("table1", "table2")
    + SCALING_FIGS
    + DATACENTER_FIGS
    + ("regime-map", "sweep", "scenario")
)

#: Output formats for the figure drivers.
FORMATS = ("table", "barchart", "csv", "json")

#: Default value grids for the ``sweep`` artifact, per sweep name.
SWEEP_GRIDS: Dict[str, Tuple] = {
    "severity_pmf": ((1.0, 0.0, 0.0), (0.65, 0.20, 0.15), (0.4, 0.35, 0.25)),
    "recovery_parallelism": (1.0, 2.0, 5.0, 10.0),
    "checkpoint_interval": (0.5, 1.0, 2.0),
}


class RequestError(InputError):
    """A structurally invalid :class:`StudyRequest` (bad name, range,
    or combination); the message is a single human-readable line."""


@dataclass(frozen=True)
class StudyRequest:
    """One artifact request: which experiment, at which parameters.

    The defaults mirror the CLI's defaults, so
    ``StudyRequest("fig1")`` is exactly ``repro fig1``.
    """

    experiment: str
    format: str = "table"
    trials: int = 200
    patterns: int = 50
    quick: bool = False
    fraction: float = 1.0
    mtbf_years: float = 10.0
    sweep: str = "checkpoint_interval"
    #: Canonical-JSON scenario spec (experiment ``"scenario"`` only).
    scenario: Optional[str] = None
    #: Embedded failure-trace JSONL for trace-replay scenarios; carried
    #: in the request so a job is self-contained (no path resolution on
    #: the worker) and CLI/service runs stay byte-identical.
    trace: Optional[str] = None
    #: Embedded grid trace curves (experiment ``"scenario"`` with a
    #: ``[grid]`` block only): a JSON object mapping curve role
    #: (``"price"`` / ``"carbon"``) to the curve's canonical JSONL
    #: text, for the same self-containment reason as ``trace``.
    grid_traces: Optional[str] = None
    #: First trial index of this request's batch (experiment
    #: ``"scenario"`` only): trials ``[offset, offset + trials)`` are
    #: run, reproducing exactly that slice of an exhaustive run.  The
    #: adaptive campaign controller sets this on follow-up batches.
    trial_offset: int = 0

    def validate(self) -> None:
        """Raise :class:`RequestError` on any out-of-range field."""
        if self.experiment not in EXPERIMENTS:
            raise RequestError(
                f"unknown experiment {self.experiment!r} "
                f"(choose from {', '.join(EXPERIMENTS)})"
            )
        if self.format not in FORMATS:
            raise RequestError(
                f"unknown format {self.format!r} "
                f"(choose from {', '.join(FORMATS)})"
            )
        if self.trials < 1:
            raise RequestError(f"trials must be >= 1, got {self.trials}")
        if self.patterns < 1:
            raise RequestError(f"patterns must be >= 1, got {self.patterns}")
        if not 0.0 < self.fraction <= 1.0:
            raise RequestError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )
        if self.mtbf_years <= 0:
            raise RequestError(
                f"mtbf-years must be > 0, got {self.mtbf_years}"
            )
        if self.experiment == "sweep" and self.sweep not in SWEEPS:
            raise RequestError(
                f"unknown sweep {self.sweep!r} "
                f"(choose from {', '.join(SWEEPS)})"
            )
        if self.experiment == "scenario":
            if self.scenario is None:
                raise RequestError(
                    "experiment 'scenario' requires the 'scenario' field "
                    "(the canonical JSON spec)"
                )
            from repro.scenarios.schema import scenario_from_json

            spec = scenario_from_json(self.scenario, source="scenario")
            if spec.failures.regime == "trace" and self.trace is None:
                raise RequestError(
                    "trace-replay scenarios require the embedded 'trace' "
                    "field (compile the scenario rather than building the "
                    "request by hand)"
                )
            grid = spec.grid
            needs_curves = grid is not None and any(
                curve is not None and curve.kind == "trace"
                for curve in (grid.price, grid.carbon)
            )
            if needs_curves and self.grid_traces is None:
                raise RequestError(
                    "scenarios with trace grid curves require the embedded "
                    "'grid_traces' field (compile the scenario rather than "
                    "building the request by hand)"
                )
            if self.grid_traces is not None and grid is None:
                raise RequestError(
                    "field 'grid_traces' is only valid for scenarios "
                    "with a [grid] block"
                )
        elif (
            self.scenario is not None
            or self.trace is not None
            or self.grid_traces is not None
        ):
            raise RequestError(
                "fields 'scenario', 'trace', and 'grid_traces' are only "
                "valid for experiment 'scenario'"
            )
        if self.trial_offset < 0:
            raise RequestError(
                f"trial_offset must be >= 0, got {self.trial_offset}"
            )
        if self.trial_offset and self.experiment != "scenario":
            raise RequestError(
                "field 'trial_offset' is only valid for experiment 'scenario'"
            )

    def to_payload(self) -> Dict[str, Any]:
        """Plain-dict form (the service stores this in the job row).

        ``scenario``/``trace`` only appear when set, so payloads from
        older jobs (and payload-shape tests) are unchanged for the
        flat experiments."""
        payload = {
            "experiment": self.experiment,
            "format": self.format,
            "trials": self.trials,
            "patterns": self.patterns,
            "quick": self.quick,
            "fraction": self.fraction,
            "mtbf_years": self.mtbf_years,
            "sweep": self.sweep,
        }
        if self.scenario is not None:
            payload["scenario"] = self.scenario
        if self.trace is not None:
            payload["trace"] = self.trace
        if self.grid_traces is not None:
            payload["grid_traces"] = self.grid_traces
        if self.trial_offset:
            payload["trial_offset"] = self.trial_offset
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "StudyRequest":
        """Build and validate a request from a plain dict; unknown keys
        and mistyped values raise :class:`RequestError`."""
        fields = Fields(payload, error=RequestError)
        request = cls.from_fields(fields)
        fields.finish()
        return request

    @classmethod
    def from_fields(cls, fields: Fields) -> "StudyRequest":
        """Take a request's keys off *fields* (the caller finishes the
        cursor) and validate it.  The embedded trace and grid-curve
        documents are decoded here too, so a request accepted at a
        boundary also loads on the worker that runs it."""
        request = cls(
            experiment=fields.take("experiment", "str", required=True),
            format=fields.take("format", "str", cls.format),
            trials=fields.take("trials", "int", cls.trials),
            patterns=fields.take("patterns", "int", cls.patterns),
            quick=fields.take("quick", "bool", cls.quick),
            fraction=fields.take("fraction", "float", cls.fraction),
            mtbf_years=fields.take("mtbf_years", "float", cls.mtbf_years),
            sweep=fields.take("sweep", "str", cls.sweep),
            scenario=fields.take("scenario", "str"),
            trace=fields.take("trace", "str"),
            grid_traces=fields.take("grid_traces", "str"),
            trial_offset=fields.take("trial_offset", "int", cls.trial_offset),
        )
        request.validate()
        if request.trace is not None:
            from repro.failures.trace import trace_from_jsonl

            trace_from_jsonl(request.trace, source="trace")
        if request.grid_traces is not None:
            from repro.scenarios.compiler import decode_grid_traces

            decode_grid_traces(request.grid_traces)
        return request


@dataclass
class StudyOutcome:
    """What one request produced: the rendered text plus (for figures)
    the in-memory result object, for observability writers."""

    text: str
    #: The study result object for figs 1-5 (None for tables/analysis).
    result: Any = None
    #: Extra metadata lines (kept separate so ``text`` stays exactly
    #: the machine-readable artifact).
    notes: Dict[str, Any] = field(default_factory=dict)


def _effective_scaling_config(module, request: StudyRequest):
    """The figure config implied by *request* (quick caps trials)."""
    cfg = module.config(trials=request.trials)
    if request.quick:
        cfg = cfg.quick(trials=min(request.trials, 10))
    return cfg


def _effective_datacenter_config(module, request: StudyRequest):
    """The datacenter config implied by *request*."""
    cfg = module.config(patterns=request.patterns)
    if request.quick:
        cfg = cfg.quick()
    return cfg


def _run_scaling(module, request, options, observe) -> StudyOutcome:
    from repro.experiments.barchart import scaling_barchart
    from repro.experiments.export import scaling_to_csv, scaling_to_json

    cfg = _effective_scaling_config(module, request)
    result = module.run(cfg, options=options, observe=observe)
    if request.format == "table":
        text = module.render(result)
    elif request.format == "barchart":
        text = scaling_barchart(result, title=module.TITLE)
    elif request.format == "csv":
        text = scaling_to_csv(result)
    else:
        text = scaling_to_json(result)
    return StudyOutcome(text=text, result=result)


def _run_datacenter(module, request, options, observe) -> StudyOutcome:
    from repro.experiments.export import datacenter_to_csv, datacenter_to_json

    cfg = _effective_datacenter_config(module, request)
    result = module.run(cfg, options=options, observe=observe)
    if request.format == "table":
        text = module.render(result)
    elif request.format == "barchart":
        from repro.experiments.barchart import datacenter_barchart
        from repro.rm.registry import manager_names

        text = datacenter_barchart(
            result,
            rm_names=manager_names(),
            selector_names=module.SELECTOR_ORDER,
            title=module.TITLE,
        )
    elif request.format == "csv":
        text = datacenter_to_csv(result)
    else:
        text = datacenter_to_json(result)
    return StudyOutcome(text=text, result=result)


def _run_regime_map(request: StudyRequest) -> StudyOutcome:
    from repro.analysis.regimes import (
        crossover_fraction,
        render_selection_map,
        selection_map,
    )
    from repro.constants import SCALING_STUDY_FRACTIONS
    from repro.platform.presets import exascale_system
    from repro.units import years
    from repro.workload.synthetic import APP_TYPES

    system = exascale_system()
    mtbf = years(request.mtbf_years)
    mapping = selection_map(system, mtbf, SCALING_STUDY_FRACTIONS)
    lines = [
        f"Analytic technique-selection map (node MTBF {request.mtbf_years:g} y):",
        render_selection_map(mapping, SCALING_STUDY_FRACTIONS),
        "",
        "ML -> PR crossover per type (fraction of system):",
    ]
    for type_name in sorted(APP_TYPES):
        cross = crossover_fraction(type_name, system, mtbf)
        label = f"{100 * cross:.2f}%" if cross is not None else "never"
        lines.append(f"  {type_name}: {label}")
    return StudyOutcome(text="\n".join(lines))


def _run_sweep(request: StudyRequest, options) -> StudyOutcome:
    from repro.experiments import sweep as sweep_mod

    trials = min(request.trials, 10) if request.quick else request.trials
    grid = SWEEP_GRIDS[request.sweep]
    if request.sweep == "severity_pmf":
        rows = sweep_mod.severity_pmf_sweep_sim(
            grid, trials=trials, options=options
        )
        title = "Sweep — multilevel efficiency vs. severity PMF"
    elif request.sweep == "recovery_parallelism":
        rows = sweep_mod.recovery_parallelism_sweep_sim(
            grid, trials=trials, options=options
        )
        title = "Sweep — parallel recovery efficiency vs. sigma"
    else:
        rows = sweep_mod.checkpoint_interval_sweep_sim(
            grid, trials=trials, options=options
        )
        title = "Sweep — checkpoint restart efficiency vs. interval scale"
    return StudyOutcome(text=sweep_mod.render_sweep(rows, title))


def run_request(
    request: StudyRequest,
    options: Optional[ExecutorOptions] = None,
    observe: bool = False,
) -> StudyOutcome:
    """Execute one :class:`StudyRequest` and render its artifact.

    ``options`` carries worker count, caching, and the metrics sink
    exactly as for :func:`repro.experiments.parallel.run_cells`;
    ``observe=True`` (figures only) collects the domain-event stream on
    ``outcome.result``.  The output text is a pure function of the
    request (and the package version) — serial, parallel, cached, CLI,
    and service executions all render identical bytes.
    """
    request.validate()
    if request.experiment == "table1":
        from repro.experiments import tables

        return StudyOutcome(text=tables.render_table1())
    if request.experiment == "table2":
        from repro.experiments import tables

        return StudyOutcome(text=tables.render_table2(fraction=request.fraction))
    if request.experiment == "regime-map":
        return _run_regime_map(request)
    if request.experiment == "sweep":
        return _run_sweep(request, options)
    if request.experiment == "scenario":
        from repro.scenarios.runtime import run_scenario_request

        return run_scenario_request(request, options)
    from repro.experiments import fig1, fig2, fig3, fig4, fig5

    modules = {
        "fig1": fig1,
        "fig2": fig2,
        "fig3": fig3,
        "fig4": fig4,
        "fig5": fig5,
    }
    module = modules[request.experiment]
    if request.experiment in SCALING_FIGS:
        return _run_scaling(module, request, options, observe)
    return _run_datacenter(module, request, options, observe)


def quick_variant(request: StudyRequest) -> StudyRequest:
    """The CI-sized version of *request* (used by smoke tooling)."""
    return replace(request, quick=True)
