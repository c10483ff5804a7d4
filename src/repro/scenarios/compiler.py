"""Scenario -> study-request lowering.

:func:`compile_scenario` turns one validated :class:`ScenarioSpec`
into a :class:`CompiledCampaign`: a list of
:class:`~repro.experiments.entry.StudyRequest` units plus notes about
the lowering.  Two paths exist:

- **Paper-exact lowering.**  A scenario whose parameters coincide with
  one of the five paper figures compiles to that figure's plain
  request (``StudyRequest("fig1", ...)``), so running the scenario
  goes through *exactly* the figure code path — the rendered artifact
  is byte-identical to ``repro fig1`` at the same trials/format, which
  the parity test enforces.
- **Generic lowering.**  Anything else (custom MTBF or fractions,
  Weibull/lognormal/burst/trace regimes, sweeps) compiles to one
  self-contained ``experiment="scenario"`` request embedding the
  canonical spec JSON (and, for trace replay, the trace JSONL), which
  :mod:`repro.scenarios.runtime` resolves into study points and runs
  through the figures' scaling-study pipeline (observation included).

Compilation also resolves and validates the trace file for trace
scenarios and names the analytic-model bypass reason for non-Poisson
regimes, so ``repro scenario validate`` catches everything before any
simulation runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import product
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.constants import (
    EXASCALE_NODES,
    SCALING_STUDY_FRACTIONS,
    SCALING_STUDY_TRIALS,
)
from repro.experiments.config import ScalingStudyConfig
from repro.experiments.entry import StudyRequest
from repro.experiments.runner import StudyPoint
from repro.failures.burst import BurstModel
from repro.failures.generator import LognormalInterarrivals, WeibullInterarrivals
from repro.failures.trace import TraceFormatError, load_trace, trace_to_jsonl
from repro.inputs import Fields, decode_json
from repro.scenarios.errors import ScenarioError
from repro.scenarios.spec import (
    ScenarioSpec,
    SweepSpec,
    canonical_json,
    spec_sha256,
)
from repro.units import years

if TYPE_CHECKING:
    from repro.grid.curves import TraceCurve

#: (app_type, mtbf_years) pairs that are one of the paper's scaling
#: figures when every other knob is at its paper default.
_PAPER_SCALING_FIGS = {
    ("A32", 10.0): "fig1",
    ("D64", 10.0): "fig2",
    ("D64", 2.5): "fig3",
}

#: Datacenter modes -> their paper figure.
_PAPER_DATACENTER_FIGS = {"techniques": "fig4", "selection": "fig5"}


@dataclass(frozen=True)
class CampaignUnit:
    """One runnable study of a campaign."""

    label: str
    request: StudyRequest


@dataclass(frozen=True)
class CompiledCampaign:
    """The executable form of one scenario."""

    spec: ScenarioSpec
    sha256: str
    units: Tuple[CampaignUnit, ...]
    #: Human-readable lowering facts: which figure a unit lowered to,
    #: why the analytic model is bypassed, etc.
    notes: Tuple[str, ...]
    #: The analytic-model bypass reason (None when the paper's Poisson
    #: assumptions hold and analytic prediction stays valid).
    analytic_bypass: Optional[str] = None


def scenario_analytic_reason(spec: ScenarioSpec) -> Optional[str]:
    """Why the first-order analytic model cannot predict *spec*
    (None when it can).  Mirrors
    :func:`repro.analysis.validation.analytic_inapplicability` at the
    scenario level, before any simulation objects exist."""
    failures = spec.failures
    if failures.regime == "trace":
        return (
            "trace replay drives the simulation with one recorded failure "
            "realization, not a Poisson ensemble; only simulation-backed "
            "estimates are meaningful"
        )
    if failures.regime in ("weibull", "lognormal"):
        return (
            f"{failures.regime} failure interarrivals are not exponential, "
            "so the renewal-reward model's memorylessness assumption "
            "fails; falling back to simulation-backed prediction"
        )
    if failures.burst_mean_width is not None and failures.burst_mean_width > 1.0:
        return (
            "burst failures violate the independent single-node failure "
            "assumption of the analytic model; falling back to "
            "simulation-backed prediction"
        )
    if spec.sweep is not None and spec.sweep.axis == "burst_mean_width":
        return (
            "burst failures violate the independent single-node failure "
            "assumption of the analytic model; falling back to "
            "simulation-backed prediction"
        )
    return None


def _paper_scaling_fig(spec: ScenarioSpec) -> Optional[str]:
    """The scaling figure *spec* coincides with, or None."""
    if spec.workload.study != "scaling":
        return None
    if spec.failures.regime != "poisson":
        return None
    f = spec.failures
    if (
        f.burst_mean_width is not None
        or f.severity_pmf is not None
        or spec.workload.fractions is not None
        or spec.techniques is not None
        or spec.sweep is not None
        or spec.platform.total_nodes is not None
        or spec.run.seed != 2017
        or spec.grid is not None  # figures carry no cost columns
    ):
        return None
    return _PAPER_SCALING_FIGS.get((spec.workload.app_type, f.mtbf_years))


def _load_grid_traces(spec: ScenarioSpec) -> Optional[str]:
    """Load and embed the grid's trace-curve files, if any.

    Returns a JSON object mapping curve role (``price`` / ``carbon``)
    to the curve's canonical JSONL text, so the request stays
    self-contained (no path resolution on a service worker); None when
    no grid curve replays a trace.  Raises :class:`ScenarioError`
    field-qualified on unreadable or malformed curve files.
    """
    import json

    from repro.grid.curves import CurveFormatError, curve_to_jsonl, load_curve

    assert spec.grid is not None
    out = {}
    base = spec.base_dir if spec.base_dir is not None else "."
    for role, curve in (("price", spec.grid.price), ("carbon", spec.grid.carbon)):
        if curve is None or curve.kind != "trace":
            continue
        path = os.path.join(base, curve.trace_file)
        try:
            out[role] = curve_to_jsonl(load_curve(path))
        except CurveFormatError as exc:
            raise ScenarioError(f"grid.{role}.trace_file", str(exc)) from None
    if not out:
        return None
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def decode_grid_traces(text: str) -> Dict[str, "TraceCurve"]:
    """The curves of an embedded ``grid_traces`` object (the inverse of
    :func:`_load_grid_traces`), by role.  Raises
    :class:`~repro.inputs.InputError` on anything malformed."""
    from repro.grid.curves import curve_from_jsonl

    fields = Fields(decode_json(text, "grid_traces"), "grid_traces")
    curves = {}
    for role in ("price", "carbon"):
        body = fields.take(role, "str")
        if body is not None:
            curves[role] = curve_from_jsonl(body, source=f"grid_traces.{role}")
    fields.finish()
    return curves


def compile_scenario(
    spec: ScenarioSpec, quick: bool = False
) -> CompiledCampaign:
    """Lower *spec* to runnable study requests.

    Raises :class:`ScenarioError` for problems only visible at compile
    time (an unreadable or malformed trace file).
    """
    sha = spec_sha256(spec)
    notes = []
    reason = scenario_analytic_reason(spec)
    if reason is not None:
        notes.append(f"analytic model bypassed: {reason}")

    if spec.workload.study == "datacenter":
        fig = _PAPER_DATACENTER_FIGS[spec.workload.mode]
        request = StudyRequest(
            experiment=fig,
            format=spec.run.format,
            patterns=spec.workload.patterns
            if spec.workload.patterns is not None
            else 50,
            quick=quick,
        )
        notes.append(
            f"lowered to {fig} (the datacenter study runs the paper's "
            "environment)"
        )
        return CompiledCampaign(
            spec=spec,
            sha256=sha,
            units=(CampaignUnit(label=spec.scenario.name, request=request),),
            notes=tuple(notes),
            analytic_bypass=reason,
        )

    fig = _paper_scaling_fig(spec)
    if fig is not None:
        request = StudyRequest(
            experiment=fig,
            format=spec.run.format,
            trials=spec.run.trials
            if spec.run.trials is not None
            else SCALING_STUDY_TRIALS,
            quick=quick,
        )
        notes.append(f"lowered to {fig} (paper-exact parameters)")
        return CompiledCampaign(
            spec=spec,
            sha256=sha,
            units=(CampaignUnit(label=spec.scenario.name, request=request),),
            notes=tuple(notes),
            analytic_bypass=reason,
        )

    trace_text: Optional[str] = None
    if spec.failures.regime == "trace":
        base = spec.base_dir if spec.base_dir is not None else "."
        path = os.path.join(base, spec.failures.trace_file)
        try:
            trace = load_trace(path)
        except TraceFormatError as exc:
            raise ScenarioError("failures.trace_file", str(exc)) from None
        trace_text = trace_to_jsonl(trace)
        notes.append(
            f"trace replay: {len(trace)} recorded failures "
            f"from {spec.failures.trace_file}"
        )

    grid_traces_text: Optional[str] = None
    if spec.grid is not None:
        grid_traces_text = _load_grid_traces(spec)
        objective = spec.grid.objective
        curves = ", ".join(
            f"{role} {curve.kind}"
            for role, curve in (
                ("price", spec.grid.price),
                ("carbon", spec.grid.carbon),
            )
            if curve is not None
        )
        notes.append(f"grid accounting: objective={objective} ({curves})")

    if spec.failures.regime == "trace":
        default_trials = 1
    else:
        default_trials = SCALING_STUDY_TRIALS
    request = StudyRequest(
        experiment="scenario",
        format=spec.run.format,
        trials=spec.run.trials
        if spec.run.trials is not None
        else default_trials,
        quick=quick,
        scenario=canonical_json(spec),
        trace=trace_text,
        grid_traces=grid_traces_text,
    )
    notes.append("lowered to the generic scenario runtime")
    return CompiledCampaign(
        spec=spec,
        sha256=sha,
        units=(CampaignUnit(label=spec.scenario.name, request=request),),
        notes=tuple(notes),
        analytic_bypass=reason,
    )


# ---------------------------------------------------------------------------
# Adaptive wave planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """One grid point of an adaptive campaign: a (sweep-axis value,
    system fraction, technique) triple whose trial budget the
    controller manages independently."""

    axis_value: Optional[float]
    fraction: float
    technique: str


def scenario_grid(
    spec: ScenarioSpec,
) -> Tuple[Tuple[Optional[float], ...], Tuple[float, ...], Tuple[str, ...]]:
    """*spec*'s study grid with its defaults filled in: the sweep-axis
    values (``(None,)`` without a sweep), the system fractions and the
    technique names.  The generic runtime and :func:`scenario_cells`
    both enumerate it, axis value outermost and technique innermost, so
    an adaptive campaign's cells are exactly an exhaustive run's."""
    from repro.resilience.registry import scaling_study_techniques

    if spec.workload.study != "scaling":
        raise ScenarioError(
            "workload.study", "only scaling studies have a cell grid"
        )
    return (
        spec.sweep.values if spec.sweep is not None else (None,),
        spec.workload.fractions
        if spec.workload.fractions is not None
        else SCALING_STUDY_FRACTIONS,
        spec.techniques
        if spec.techniques is not None
        else tuple(t.name for t in scaling_study_techniques()),
    )


def scenario_point(
    spec: ScenarioSpec, value: Optional[float] = None, trials: int = 1
) -> StudyPoint:
    """*spec* at one sweep-axis value (None without a sweep): the MTBF,
    severity, system size, fractions and seed of the point's config,
    and its burst and interarrival models (None = width-1 failures and
    Poisson arrivals).  The generic runtime, the campaign controller's
    refinement prior and the analytic ``grid``/``energy`` views all
    resolve a spec through this one function."""
    failures = spec.failures
    axis = spec.sweep.axis if spec.sweep is not None else None

    def knob(name: str):
        return value if axis == name else getattr(failures, name)

    interarrival = None
    if failures.regime == "weibull":
        interarrival = WeibullInterarrivals(shape=knob("shape"))
    elif failures.regime == "lognormal":
        interarrival = LognormalInterarrivals(sigma=knob("sigma"))
    burst_mean = knob("burst_mean_width")
    burst = None
    if burst_mean is not None and burst_mean > 1.0:
        max_width = failures.burst_max_width
        burst = BurstModel.with_mean_width(
            burst_mean, max_width=max_width if max_width is not None else 64
        )
    total_nodes = spec.platform.total_nodes
    config = ScalingStudyConfig(
        app_type=spec.workload.app_type,
        node_mtbf_s=years(knob("mtbf_years")),
        fractions=tuple(scenario_grid(spec)[1]),
        trials=trials,
        system_nodes=total_nodes if total_nodes is not None else EXASCALE_NODES,
        seed=spec.run.seed,
        severity_pmf=failures.severity_pmf,
    )
    label = spec.scenario.name + (f" {axis}={value:g}" if value is not None else "")
    return StudyPoint(config, value, burst, interarrival, label)


def scenario_cells(spec: ScenarioSpec) -> Tuple[CampaignCell, ...]:
    """*spec*'s study grid (:func:`scenario_grid`) as
    :class:`CampaignCell` triples, in the generic runtime's order."""
    return tuple(CampaignCell(*cell) for cell in product(*scenario_grid(spec)))


def cell_scenario(spec: ScenarioSpec, cell: CampaignCell) -> ScenarioSpec:
    """The single-cell scenario derived from *spec* for *cell*.

    Narrowing the grid to one (axis value, fraction, technique) — and
    dropping the trial count and adaptive section, which ride the
    request instead — leaves per-trial randomness untouched: trial
    ``i`` of a cell is a function of the run seed and ``i`` only, so a
    cell job computes exactly the cells of a full grid run.
    """
    sweep = (
        SweepSpec(axis=spec.sweep.axis, values=(cell.axis_value,))
        if spec.sweep is not None
        else None
    )
    return replace(
        spec,
        workload=replace(spec.workload, fractions=(cell.fraction,)),
        techniques=(cell.technique,),
        sweep=sweep,
        run=replace(spec.run, trials=None),
        adaptive=None,
    )


def compile_cell_request(
    spec: ScenarioSpec,
    cell: CampaignCell,
    trials: int,
    trial_offset: int = 0,
) -> StudyRequest:
    """One batch job of an adaptive campaign: trials ``[trial_offset,
    trial_offset + trials)`` of *cell*, rendered as JSON for the
    controller to parse.  Always lowers to the generic scenario
    runtime (a single-cell grid is never a paper figure)."""
    narrowed = cell_scenario(spec, cell)
    return StudyRequest(
        experiment="scenario",
        format="json",
        trials=trials,
        scenario=canonical_json(narrowed),
        trial_offset=trial_offset,
        grid_traces=_load_grid_traces(narrowed)
        if narrowed.grid is not None
        else None,
    )
