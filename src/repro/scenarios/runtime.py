"""Execution of generic (non-paper-exact) scenarios.

:func:`run_scenario_request` is the ``experiment="scenario"`` body of
:func:`repro.experiments.entry.run_request`.  It re-hydrates the
canonical spec (and embedded trace) from the request, expands the
study grid — sweep-axis value x system fraction x technique — into
:class:`~repro.experiments.parallel.CellTask`\\ s, and runs them
through :func:`~repro.experiments.parallel.run_cells`, so scenarios
inherit the executor's parallelism, caching, metrics, and the
engine's failure-horizon fast path unchanged.

Cache keys are rooted in the spec's SHA-256 (plus the per-cell axis
value, fraction, technique, and trial count), and every cache entry
and export carries the provenance stamp — scenario name, spec digest,
package version.

Non-Poisson regimes never receive analytic predictions: the
compile-time bypass reason (see
:func:`repro.scenarios.compiler.scenario_analytic_reason`) is rendered
into the artifact instead of a silently wrong number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import repro
from repro.constants import (
    EXASCALE_NODES,
    SCALING_STUDY_BASELINE_S,
    SCALING_STUDY_FRACTIONS,
)
from repro.core.paired import simulate_with_trace
from repro.core.single_app import SingleAppConfig, run_trials
from repro.energy.model import PowerModel
from repro.grid.accountant import account_execution
from repro.grid.curves import (
    J_PER_KWH,
    UNIT_CARBON,
    UNIT_PRICE,
    Curve,
    FlatCurve,
    PiecewiseCurve,
    SinusoidalCurve,
    TraceCurve,
    curve_digest,
)
from repro.experiments.barchart import scaling_barchart
from repro.experiments.config import ScalingStudyConfig
from repro.experiments.entry import StudyOutcome, StudyRequest
from repro.experiments.parallel import (
    CellTask,
    ExecutorOptions,
    run_cells,
    technique_fingerprint,
)
from repro.experiments.reporting import _row, _rule, render_scaling_study
from repro.experiments.runner import (
    ScalingCell,
    ScalingStudyResult,
    _scaling_cell_body,
)
from repro.experiments.stats import SummaryStats
from repro.failures.burst import BurstModel
from repro.failures.generator import (
    InterarrivalModel,
    LognormalInterarrivals,
    WeibullInterarrivals,
)
from repro.failures.trace import FailureTrace, trace_digest, trace_from_jsonl
from repro.obs import counters as obs_counters
from repro.platform.presets import exascale_system
from repro.resilience.registry import get_technique, scaling_study_techniques
from repro.scenarios.compiler import decode_grid_traces, scenario_analytic_reason
from repro.scenarios.schema import scenario_from_json
from repro.scenarios.spec import ScenarioSpec, spec_sha256, spec_to_dict
from repro.units import MINUTE, years
from repro.workload.synthetic import make_application


def scenario_provenance(spec: ScenarioSpec) -> Dict[str, str]:
    """The provenance stamp recorded on every scenario artifact."""
    return {
        "scenario": spec.scenario.name,
        "spec_sha256": spec_sha256(spec),
        "version": repro.__version__,
    }


def provenance_comment(stamp: Dict[str, str]) -> str:
    """The ``#``-comment form of a provenance stamp (CSV header line)."""
    return (
        f"# scenario={stamp['scenario']} "
        f"spec_sha256={stamp['spec_sha256']} "
        f"version={stamp['version']}"
    )


def _interarrival_for(
    spec: ScenarioSpec, axis: Optional[str], value: Optional[float]
) -> Optional[InterarrivalModel]:
    """The interarrival model of one grid point (None = Poisson)."""
    regime = spec.failures.regime
    if regime == "weibull":
        shape = value if axis == "shape" else spec.failures.shape
        return WeibullInterarrivals(shape=shape)
    if regime == "lognormal":
        sigma = value if axis == "sigma" else spec.failures.sigma
        return LognormalInterarrivals(sigma=sigma)
    return None


def _burst_for(
    spec: ScenarioSpec, axis: Optional[str], value: Optional[float]
) -> Optional[BurstModel]:
    """The burst model of one grid point (None = width-1 failures)."""
    mean = (
        value if axis == "burst_mean_width" else spec.failures.burst_mean_width
    )
    if mean is None or mean <= 1.0:
        return None
    max_width = (
        spec.failures.burst_max_width
        if spec.failures.burst_max_width is not None
        else 64
    )
    return BurstModel.with_mean_width(mean, max_width=max_width)


def _mtbf_years_for(
    spec: ScenarioSpec, axis: Optional[str], value: Optional[float]
) -> float:
    return value if axis == "mtbf_years" else spec.failures.mtbf_years


def _trace_cell_body(app, technique, system, trace, app_config):
    """One trace-replay cell: a single deterministic replay."""
    if not technique.fits(app, system):
        return True, ()
    stats = simulate_with_trace(app, technique, system, trace, app_config)
    return False, (stats.efficiency(),)


# ---------------------------------------------------------------------------
# Grid accounting (the [grid] section)
# ---------------------------------------------------------------------------

#: Document curve times are in hours; the engine clock is seconds.
_HOUR_S = 3600.0


@dataclass(frozen=True)
class GridContext:
    """A spec's ``[grid]`` block materialized for the runtime: actual
    :class:`~repro.grid.curves.Curve` objects (document hours converted
    to engine seconds), the power model, and the clock anchor."""

    objective: str
    power: PowerModel
    price: Optional[Curve]
    carbon: Optional[Curve]
    offset_s: float

    def fingerprint(self) -> Optional[str]:
        """Cache-key component for curve content the spec digest cannot
        see: trace curves name a *file* in the spec, so their replayed
        contents must be pinned by digest (None when no trace curves)."""
        parts = [
            f"{role}:{curve_digest(curve)}"
            for role, curve in (("price", self.price), ("carbon", self.carbon))
            if isinstance(curve, TraceCurve)
        ]
        return ";".join(parts) if parts else None


def _grid_curve(
    cspec, unit: str, traces: Optional[Dict[str, TraceCurve]], role: str
):
    """Build the runtime curve for one ``CurveSpec`` (or None)."""
    if cspec is None:
        return None
    if cspec.kind == "flat":
        return FlatCurve(cspec.level, unit=unit)
    period_h = cspec.period_hours if cspec.period_hours is not None else 24.0
    if cspec.kind == "piecewise":
        return PiecewiseCurve(
            [h * _HOUR_S for h in cspec.hours],
            cspec.levels,
            period_s=period_h * _HOUR_S,
            unit=unit,
        )
    if cspec.kind == "sinusoidal":
        return SinusoidalCurve(
            base=cspec.base,
            amplitude=cspec.amplitude,
            period_s=period_h * _HOUR_S,
            peak_s=(cspec.peak_hour or 0.0) * _HOUR_S,
            amplitude2=cspec.amplitude2 or 0.0,
            peak2_s=(cspec.peak2_hour or 0.0) * _HOUR_S,
            unit=unit,
        )
    # kind == "trace": the compiler embedded the file's canonical JSONL
    # so the request is self-contained on a service worker.
    if traces is None or role not in traces:
        raise ValueError(
            f"scenario grid.{role} replays a trace curve but no "
            f"embedded grid_traces entry was provided for it"
        )
    return traces[role]


def grid_context(
    spec: ScenarioSpec, grid_traces: Optional[str] = None
) -> GridContext:
    """Materialize *spec*'s ``[grid]`` block (which must be present).

    *grid_traces* is the compiler's embedded JSON object mapping curve
    role to canonical JSONL, required exactly when a curve has kind
    ``"trace"``.
    """
    grid = spec.grid
    if grid is None:
        raise ValueError("scenario has no [grid] section")
    traces = decode_grid_traces(grid_traces) if grid_traces is not None else None
    default = PowerModel()
    busy_w = grid.busy_w if grid.busy_w is not None else default.busy_w
    # An explicit busy_w below the default idle draw would otherwise
    # make the default idle_w invalid; scale it under the ceiling.
    idle_w = (
        grid.idle_w if grid.idle_w is not None else min(default.idle_w, busy_w)
    )
    return GridContext(
        objective=grid.objective,
        power=PowerModel(busy_w=busy_w, idle_w=idle_w),
        price=_grid_curve(grid.price, UNIT_PRICE, traces, "price"),
        carbon=_grid_curve(grid.carbon, UNIT_CARBON, traces, "carbon"),
        offset_s=grid.start_hour * _HOUR_S,
    )


@dataclass(frozen=True)
class GridCellAccount:
    """Aggregated grid accounting of one feasible cell: per-trial means
    and across-trial totals of dollars, grams CO2, and kilowatt-hours."""

    mean_usd: float
    mean_g: float
    mean_kwh: float
    total_usd: float
    total_g: float
    total_kwh: float


def _grid_cell_body(app, technique, system, trials, app_config, ctx, first_trial=0):
    """One grid-accounted scaling cell.

    Returns ``(infeasible, efficiencies, samples)`` where *samples*
    holds one ``(usd, gco2, kwh)`` triple per trial — plain data, so
    the payload caches and crosses worker processes like any other
    cell.  Accounting is a pure fold over each trial's final
    :class:`ExecutionStats`, so the efficiencies (and their bytes) are
    identical to the un-accounted cell body's.
    """
    if not technique.fits(app, system):
        return True, (), ()
    trial_set = run_trials(
        app,
        technique,
        system,
        trials,
        app_config,
        keep_stats=True,
        first_trial=first_trial,
    )
    samples = []
    for stats in trial_set.stats:
        cost = account_execution(
            stats,
            power=ctx.power,
            price=ctx.price,
            carbon=ctx.carbon,
            offset_s=ctx.offset_s,
        )
        samples.append((cost.total_usd, cost.total_g, cost.energy_kwh))
    return False, tuple(trial_set.efficiencies), tuple(samples)


def _account_from_samples(samples) -> GridCellAccount:
    usd = [s[0] for s in samples]
    g = [s[1] for s in samples]
    kwh = [s[2] for s in samples]
    n = len(samples)
    return GridCellAccount(
        mean_usd=sum(usd) / n,
        mean_g=sum(g) / n,
        mean_kwh=sum(kwh) / n,
        total_usd=sum(usd),
        total_g=sum(g),
        total_kwh=sum(kwh),
    )


def run_scenario(
    spec: ScenarioSpec,
    trials: int,
    quick: bool = False,
    trace: Optional[FailureTrace] = None,
    options: Optional[ExecutorOptions] = None,
    trial_offset: int = 0,
    grid_traces: Optional[str] = None,
    grid_out: Optional[
        Dict[Tuple[Optional[float], float, str], Optional[GridCellAccount]]
    ] = None,
) -> List[Tuple[Optional[float], ScalingStudyResult]]:
    """Execute *spec*'s grid; one study result per sweep-axis value
    (a single ``(None, result)`` entry without a sweep).

    Results are bit-identical for any ``options.jobs`` — every cell
    derives its randomness from the scenario seed and trial index, the
    same discipline as the figure drivers.  *trial_offset* shifts every
    cell's trial indices to ``[offset, offset + trials)`` so a batch is
    exactly that slice of an exhaustive run (the adaptive campaign
    controller's determinism contract); offset batches get their own
    cache keys.

    Specs with a ``[grid]`` section additionally price every trial
    against the grid curves; pass *grid_out* (an empty dict) to receive
    the per-cell :class:`GridCellAccount` keyed ``(axis_value,
    fraction, technique)`` (None for infeasible cells).  Grid cells use
    a distinct cache namespace, so an accounted and an un-accounted run
    of the same spec never exchange payloads.
    """
    workload = spec.workload
    if workload.study != "scaling":  # pragma: no cover - schema prevents it
        raise ValueError("the generic runtime only executes scaling studies")
    if spec.failures.regime == "trace" and trace is None:
        raise ValueError("trace-replay scenarios need the recorded trace")
    if trial_offset < 0:
        raise ValueError(f"trial_offset must be >= 0, got {trial_offset}")
    if trial_offset and spec.failures.regime == "trace":
        raise ValueError("trace replay is deterministic; trial_offset is meaningless")

    sha = spec_sha256(spec)
    system_nodes = (
        spec.platform.total_nodes
        if spec.platform.total_nodes is not None
        else EXASCALE_NODES
    )
    fractions = (
        workload.fractions
        if workload.fractions is not None
        else SCALING_STUDY_FRACTIONS
    )
    techniques = (
        [get_technique(name) for name in spec.techniques]
        if spec.techniques is not None
        else scaling_study_techniques()
    )
    eff_trials = min(trials, 10) if quick else trials
    if spec.failures.regime == "trace":
        eff_trials = 1
    axis = spec.sweep.axis if spec.sweep is not None else None
    axis_values: Tuple[Optional[float], ...] = (
        spec.sweep.values if spec.sweep is not None else (None,)
    )
    digest = trace_digest(trace) if trace is not None else None
    grid_ctx = grid_context(spec, grid_traces) if spec.grid is not None else None
    grid_fp = grid_ctx.fingerprint() if grid_ctx is not None else None

    system = exascale_system(system_nodes)
    options = options if options is not None else ExecutorOptions()
    options = replace(options, provenance=scenario_provenance(spec))

    tasks: List[CellTask] = []
    meta: List[Tuple[Optional[float], float, str]] = []
    for value in axis_values:
        mtbf_s = years(_mtbf_years_for(spec, axis, value))
        app_config = SingleAppConfig(
            node_mtbf_s=mtbf_s,
            severity_pmf=spec.failures.severity_pmf,
            seed=spec.run.seed,
            burst=_burst_for(spec, axis, value),
            interarrival=_interarrival_for(spec, axis, value),
        )
        for fraction in fractions:
            nodes = system.fraction_to_nodes(fraction)
            app = make_application(
                workload.app_type,
                nodes=nodes,
                time_steps=max(1, round(SCALING_STUDY_BASELINE_S / MINUTE)),
            )
            for technique in techniques:
                if trace is not None:
                    fn = (
                        lambda app=app, technique=technique, cfg=app_config: _trace_cell_body(
                            app, technique, system, trace, cfg
                        )
                    )
                elif grid_ctx is not None:
                    fn = (
                        lambda app=app, technique=technique, cfg=app_config: _grid_cell_body(
                            app,
                            technique,
                            system,
                            eff_trials,
                            cfg,
                            grid_ctx,
                            first_trial=trial_offset,
                        )
                    )
                else:
                    fn = (
                        lambda app=app, technique=technique, cfg=app_config: _scaling_cell_body(
                            app,
                            technique,
                            system,
                            eff_trials,
                            cfg,
                            first_trial=trial_offset,
                        )
                    )
                tasks.append(
                    CellTask(
                        fn=fn,
                        key_parts=(
                            # Grid cells get their own namespace: the
                            # payload shape differs, and trace-curve
                            # contents ride in via the fingerprint.
                            "scenario-grid" if grid_ctx is not None else "scenario",
                            sha,
                            grid_fp if grid_ctx is not None else digest,
                            value,
                            fraction,
                            technique_fingerprint(technique),
                            eff_trials,
                        )
                        + ((trial_offset,) if trial_offset else ()),
                        trials=eff_trials,
                        label=(
                            f"{spec.scenario.name}"
                            + (f" {axis}={value:g}" if value is not None else "")
                            + f" {100 * fraction:g}% {technique.name}"
                        ),
                    )
                )
                meta.append((value, fraction, technique.name))

    outcomes = run_cells(tasks, options)

    results: List[Tuple[Optional[float], ScalingStudyResult]] = []
    by_value: Dict[Optional[float], ScalingStudyResult] = {}
    for value in axis_values:
        cfg = ScalingStudyConfig(
            app_type=workload.app_type,
            node_mtbf_s=years(_mtbf_years_for(spec, axis, value)),
            fractions=tuple(fractions),
            trials=eff_trials,
            system_nodes=system_nodes,
            seed=spec.run.seed,
            severity_pmf=spec.failures.severity_pmf,
        )
        result = ScalingStudyResult(config=cfg)
        by_value[value] = result
        results.append((value, result))
    for (value, fraction, technique_name), outcome in zip(meta, outcomes):
        infeasible, efficiencies = outcome[0], outcome[1]
        by_value[value].cells.append(
            ScalingCell(
                fraction,
                technique_name,
                None if infeasible else SummaryStats.from_samples(efficiencies),
                infeasible,
            )
        )
        if grid_ctx is not None:
            samples = outcome[2]
            account = (
                _account_from_samples(samples)
                if not infeasible and samples
                else None
            )
            if account is not None:
                # Fleet-wide cumulative telemetry: counters are ints,
                # so dollars ride as micro-USD, grams as milligrams,
                # kilowatt-hours as joules.  Incremented here (not in
                # the cell body) so cache hits still count.
                obs_counters.increment(
                    "grid.cost_microusd", int(round(account.total_usd * 1e6))
                )
                obs_counters.increment(
                    "grid.carbon_mg", int(round(account.total_g * 1e3))
                )
                obs_counters.increment(
                    "grid.energy_j", int(round(account.total_kwh * J_PER_KWH))
                )
                obs_counters.increment("grid.cells_accounted")
            if grid_out is not None:
                grid_out[(value, fraction, technique_name)] = account
    return results


def _scenario_title(spec: ScenarioSpec) -> str:
    if spec.scenario.title:
        return f"Scenario {spec.scenario.name} — {spec.scenario.title}"
    return f"Scenario {spec.scenario.name}"


#: Per-cell grid accounts keyed (axis_value, fraction, technique).
GridAccounts = Dict[Tuple[Optional[float], float, str], Optional[GridCellAccount]]


def _objective_key(account: GridCellAccount, objective: str) -> float:
    return account.mean_g if objective == "carbon" else account.mean_usd


def grid_selection(
    value: Optional[float],
    result: ScalingStudyResult,
    grid: GridAccounts,
    objective: str,
) -> List[Dict[str, object]]:
    """Per-fraction winners of one study: the technique the paper's
    metric picks (highest mean efficiency) next to the one the grid
    objective picks (lowest mean $ or gCO2 per run; every run completes
    the same work, so per-run cost ranks cost per completed work).
    ``flip`` marks fractions where the two disagree — the scheduling
    decision the efficiency-only view gets wrong.  Ties keep the
    first-listed technique, matching ``ScalingStudyResult.best_technique``.
    """
    rows: List[Dict[str, object]] = []
    for fraction in result.config.fractions:
        feasible = [
            c
            for c in result.cells
            if c.fraction == fraction and not c.infeasible
        ]
        if not feasible:
            rows.append(
                {
                    "fraction": fraction,
                    "best_efficiency": None,
                    "best_objective": None,
                    "flip": False,
                }
            )
            continue
        best_eff = max(feasible, key=lambda c: c.mean_efficiency).technique
        if objective == "efficiency":
            best_obj = best_eff
        else:
            best, best_key = None, None
            for c in feasible:
                account = grid.get((value, c.fraction, c.technique))
                if account is None:
                    continue
                key = _objective_key(account, objective)
                if best_key is None or key < best_key:
                    best, best_key = c.technique, key
            best_obj = best if best is not None else best_eff
        rows.append(
            {
                "fraction": fraction,
                "best_efficiency": best_eff,
                "best_objective": best_obj,
                "flip": best_obj != best_eff,
            }
        )
    return rows


def _curve_label(curve: Optional[Curve]) -> str:
    return f"{curve.kind} ({curve.unit})" if curve is not None else "---"


def _render_grid_block(
    value: Optional[float],
    result: ScalingStudyResult,
    grid: GridAccounts,
    ctx: GridContext,
) -> str:
    """The plain-text grid-accounting table appended to one study."""
    techniques = result.techniques()
    header = ["size%", "technique", "$/run", "gCO2/run", "kWh/run"]
    widths = [6, max(20, max(len(t) for t in techniques) + 2), 14, 14, 14]
    lines = [
        (
            f"Grid accounting — objective={ctx.objective}, "
            f"start_hour={ctx.offset_s / _HOUR_S:g}, "
            f"busy_w={ctx.power.busy_w:g}, idle_w={ctx.power.idle_w:g}"
        ),
        f"price: {_curve_label(ctx.price)}   carbon: {_curve_label(ctx.carbon)}",
        _row(header, widths),
        _rule(widths),
    ]
    for fraction in result.config.fractions:
        for name in techniques:
            account = grid.get((value, fraction, name))
            if account is None:
                row = [f"{100 * fraction:.0f}", name, "---", "---", "---"]
            else:
                row = [
                    f"{100 * fraction:.0f}",
                    name,
                    f"{account.mean_usd:,.2f}",
                    f"{account.mean_g:,.0f}",
                    f"{account.mean_kwh:,.1f}",
                ]
            lines.append(_row(row, widths))
    lines.append(_rule(widths))
    for sel in grid_selection(value, result, grid, ctx.objective):
        if sel["best_efficiency"] is None:
            continue
        line = (
            f"{100 * sel['fraction']:.0f}%: best by efficiency = "
            f"{sel['best_efficiency']}, best by {ctx.objective} = "
            f"{sel['best_objective']}"
        )
        if sel["flip"]:
            line += "  [flip]"
        lines.append(line)
    return "\n".join(lines)


def _render_table(
    spec: ScenarioSpec,
    results: List[Tuple[Optional[float], ScalingStudyResult]],
    reason: Optional[str],
    chart: bool = False,
    grid: Optional[GridAccounts] = None,
    grid_ctx: Optional[GridContext] = None,
) -> str:
    axis = spec.sweep.axis if spec.sweep is not None else None
    blocks: List[str] = []
    for value, result in results:
        title = _scenario_title(spec)
        if value is not None:
            title += f" [{axis} = {value:g}]"
        if chart:
            blocks.append(scaling_barchart(result, title=title))
        else:
            blocks.append(render_scaling_study(result, title))
        if grid is not None and grid_ctx is not None:
            blocks.append(_render_grid_block(value, result, grid, grid_ctx))
    text = "\n\n".join(blocks)
    if reason is not None:
        text += f"\n\nanalytic model bypassed: {reason}"
    return text


def _render_csv(
    spec: ScenarioSpec,
    results: List[Tuple[Optional[float], ScalingStudyResult]],
    stamp: Dict[str, str],
    grid: Optional[GridAccounts] = None,
) -> str:
    axis = spec.sweep.axis if spec.sweep is not None else ""
    header = (
        "axis,axis_value,app_type,fraction,technique,"
        "mean_efficiency,std_efficiency,trials,infeasible"
    )
    if grid is not None:
        # Appended only for grid scenarios, so every pre-grid export
        # stays byte-identical.
        header += ",mean_energy_kwh,mean_cost_usd,mean_carbon_g"
    lines = [provenance_comment(stamp), header]
    for value, result in results:
        for cell in result.cells:
            fields = [
                axis,
                f"{value:g}" if value is not None else "",
                result.config.app_type,
                repr(cell.fraction),
                cell.technique,
                repr(cell.mean_efficiency),
                repr(cell.stats.std if cell.stats else 0.0),
                str(cell.stats.n if cell.stats else 0),
                str(cell.infeasible),
            ]
            if grid is not None:
                account = grid.get((value, cell.fraction, cell.technique))
                fields.extend(
                    [
                        repr(account.mean_kwh if account else 0.0),
                        repr(account.mean_usd if account else 0.0),
                        repr(account.mean_g if account else 0.0),
                    ]
                )
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _render_json(
    spec: ScenarioSpec,
    results: List[Tuple[Optional[float], ScalingStudyResult]],
    stamp: Dict[str, str],
    reason: Optional[str],
    grid: Optional[GridAccounts] = None,
    grid_ctx: Optional[GridContext] = None,
) -> str:
    import json

    axis = spec.sweep.axis if spec.sweep is not None else None

    def cell_doc(value, result, cell):
        doc = {
            "app_type": result.config.app_type,
            "fraction": cell.fraction,
            "technique": cell.technique,
            "mean_efficiency": cell.mean_efficiency,
            "std_efficiency": cell.stats.std if cell.stats else 0.0,
            "trials": cell.stats.n if cell.stats else 0,
            "infeasible": cell.infeasible,
        }
        if grid is not None:
            account = grid.get((value, cell.fraction, cell.technique))
            doc["mean_energy_kwh"] = account.mean_kwh if account else 0.0
            doc["mean_cost_usd"] = account.mean_usd if account else 0.0
            doc["mean_carbon_g"] = account.mean_g if account else 0.0
        return doc

    payload = {
        "provenance": stamp,
        "scenario": spec_to_dict(spec),
        "analytic_bypass": reason,
        "results": [
            {
                "axis": axis,
                "axis_value": value,
                "cells": [
                    cell_doc(value, result, cell) for cell in result.cells
                ],
            }
            for value, result in results
        ],
    }
    if grid is not None and grid_ctx is not None:
        accounts = [a for a in grid.values() if a is not None]
        payload["grid"] = {
            "objective": grid_ctx.objective,
            "start_hour": grid_ctx.offset_s / _HOUR_S,
            "power": {
                "busy_w": grid_ctx.power.busy_w,
                "idle_w": grid_ctx.power.idle_w,
            },
            "curves": {
                "price": grid_ctx.price.to_dict()
                if grid_ctx.price is not None
                else None,
                "carbon": grid_ctx.carbon.to_dict()
                if grid_ctx.carbon is not None
                else None,
            },
            "totals": {
                "cost_usd": sum(a.total_usd for a in accounts),
                "carbon_g": sum(a.total_g for a in accounts),
                "energy_kwh": sum(a.total_kwh for a in accounts),
                "cells_accounted": len(accounts),
            },
            "selection": [
                {
                    "axis_value": value,
                    **sel,
                }
                for value, result in results
                for sel in grid_selection(
                    value, result, grid, grid_ctx.objective
                )
            ],
        }
    return json.dumps(payload, indent=2, sort_keys=True)


def run_scenario_request(
    request: StudyRequest,
    options: Optional[ExecutorOptions] = None,
) -> StudyOutcome:
    """Entry body for ``experiment="scenario"`` requests.

    The request is self-contained (canonical spec JSON plus any
    embedded trace), so this runs identically from the CLI and from a
    service worker — same seeds, same cache keys, same rendered bytes.
    """
    spec = scenario_from_json(request.scenario)
    trace = (
        trace_from_jsonl(request.trace, source="<request>")
        if request.trace is not None
        else None
    )
    reason = scenario_analytic_reason(spec)
    stamp = scenario_provenance(spec)
    grid: Optional[GridAccounts] = {} if spec.grid is not None else None
    grid_ctx = (
        grid_context(spec, request.grid_traces)
        if spec.grid is not None
        else None
    )
    results = run_scenario(
        spec,
        trials=request.trials,
        quick=request.quick,
        trace=trace,
        options=options,
        trial_offset=request.trial_offset,
        grid_traces=request.grid_traces,
        grid_out=grid,
    )
    if request.format == "csv":
        text = _render_csv(spec, results, stamp, grid=grid)
    elif request.format == "json":
        text = _render_json(
            spec, results, stamp, reason, grid=grid, grid_ctx=grid_ctx
        )
    elif request.format == "barchart":
        text = _render_table(
            spec, results, reason, chart=True, grid=grid, grid_ctx=grid_ctx
        )
    else:
        text = _render_table(
            spec, results, reason, grid=grid, grid_ctx=grid_ctx
        )
    notes: Dict[str, object] = dict(stamp)
    if reason is not None:
        notes["analytic_bypass"] = reason
    if spec.grid is not None:
        notes["grid_objective"] = spec.grid.objective
    return StudyOutcome(text=text, result=results, notes=notes)
