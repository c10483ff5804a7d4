"""Execution of generic (non-paper-exact) scenarios.

:func:`run_scenario_request` is the ``experiment="scenario"`` body of
:func:`repro.experiments.entry.run_request`.  It re-hydrates the
canonical spec (and embedded trace) from the request, resolves each
sweep-axis value into a :class:`~repro.experiments.runner.StudyPoint`
(:func:`~repro.scenarios.compiler.scenario_point`), and runs them
through the one scaling-study pipeline, :func:`~repro.experiments.runner.run_scaling_points` — the
same cells, cache, observation and fast path as Figs. 1-3 — so
scenarios inherit the executor's parallelism, caching, metrics and the
observability sinks unchanged.

Cache keys are rooted in the spec's SHA-256 (plus the embedded trace or
grid-curve digests, and the per-cell axis value, fraction, technique,
trial count and first trial), and every cache entry and export carries
the provenance stamp — scenario name, spec digest, package version.

Non-Poisson regimes never receive analytic predictions: the
compile-time bypass reason (see
:func:`repro.scenarios.compiler.scenario_analytic_reason`) is rendered
into the artifact instead of a silently wrong number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import repro
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
from repro.experiments.entry import StudyOutcome, StudyRequest
from repro.experiments.export import SCALING_FIELDS, scaling_rows
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.reporting import _row, _rule, render_scaling_study
from repro.experiments.runner import ScalingStudyResult, run_scaling_points
from repro.failures.trace import FailureTrace, trace_digest, trace_from_jsonl
from repro.obs import counters as obs_counters
from repro.resilience.registry import by_name
from repro.scenarios.compiler import (
    decode_grid_traces,
    scenario_analytic_reason,
    scenario_grid,
    scenario_point,
)
from repro.scenarios.schema import scenario_from_json
from repro.scenarios.spec import ScenarioSpec, spec_sha256, spec_to_dict

#: One scenario run: a study result per sweep-axis value, in axis order.
ScenarioResults = List[Tuple[Optional[float], ScalingStudyResult]]


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


# ---------------------------------------------------------------------------
# Grid accounting (the [grid] section)
# ---------------------------------------------------------------------------

#: Document curve times are in hours; the engine clock is seconds.
_HOUR_S = 3600.0


@dataclass(frozen=True)
class GridCellAccount:
    """Grid accounting of one feasible cell: across-trial totals of
    dollars, grams CO2 and kilowatt-hours, and their per-trial means."""

    total_usd: float
    total_g: float
    total_kwh: float
    trials: int

    @property
    def mean_usd(self) -> float:
        """Dollars per run."""
        return self.total_usd / self.trials

    @property
    def mean_g(self) -> float:
        """Grams CO2 per run."""
        return self.total_g / self.trials

    @property
    def mean_kwh(self) -> float:
        """Kilowatt-hours per run."""
        return self.total_kwh / self.trials

    def count(self) -> None:
        """Add this cell to the fleet-wide cumulative counters.  They
        are ints, so dollars ride as micro-USD, grams as milligrams and
        kilowatt-hours as joules."""
        obs_counters.increment("grid.cost_microusd", int(round(self.total_usd * 1e6)))
        obs_counters.increment("grid.carbon_mg", int(round(self.total_g * 1e3)))
        obs_counters.increment("grid.energy_j", int(round(self.total_kwh * J_PER_KWH)))
        obs_counters.increment("grid.cells_accounted")


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

    def account(self, stats) -> GridCellAccount:
        """Price each trial's final :class:`ExecutionStats` of one cell.
        Accounting is a pure fold over the stats, so it leaves the
        efficiencies (and their bytes) untouched."""
        costs = [
            account_execution(
                s,
                power=self.power,
                price=self.price,
                carbon=self.carbon,
                offset_s=self.offset_s,
            )
            for s in stats
        ]
        return GridCellAccount(
            total_usd=sum(c.total_usd for c in costs),
            total_g=sum(c.total_g for c in costs),
            total_kwh=sum(c.energy_kwh for c in costs),
            trials=len(costs),
        )


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


def run_scenario(
    spec: ScenarioSpec,
    trials: int,
    quick: bool = False,
    trace: Optional[FailureTrace] = None,
    options: Optional[ExecutorOptions] = None,
    trial_offset: int = 0,
    grid_traces: Optional[str] = None,
    observe: bool = False,
) -> ScenarioResults:
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
    against the grid curves (*grid_traces* embeds their trace curves);
    each feasible cell's :class:`GridCellAccount` rides on its
    ``ScalingCell.grid``.  *observe* collects each axis value's event
    stream and metrics, as for the figures.
    """
    if spec.failures.regime == "trace":
        if trace is None:
            raise ValueError("trace-replay scenarios need the recorded trace")
        if trial_offset:
            raise ValueError(
                "trace replay is deterministic; trial_offset is meaningless"
            )
        trials = 1
    elif quick:
        trials = min(trials, 10)
    values, _, names = scenario_grid(spec)
    grid = grid_context(spec, grid_traces) if spec.grid is not None else None
    stamp = scenario_provenance(spec)
    options = replace(
        options if options is not None else ExecutorOptions(), provenance=stamp
    )
    table = by_name()
    results = run_scaling_points(
        [scenario_point(spec, value, trials) for value in values],
        [table[name] for name in names],
        options=options,
        observe=observe,
        key=(
            stamp["spec_sha256"],
            trace_digest(trace) if trace is not None else None,
            grid.fingerprint() if grid is not None else None,
        ),
        trace=trace,
        grid=grid,
        first_trial=trial_offset,
    )
    return list(zip(values, results))


def grid_selection(
    result: ScalingStudyResult, objective: str
) -> List[Dict[str, object]]:
    """Per-fraction winners of one priced study: the technique the
    paper's metric picks (highest mean efficiency) next to the one the
    grid objective picks (lowest mean $ or gCO2 per run; every run
    completes the same work, so per-run cost ranks cost per completed
    work).  ``flip`` marks fractions where the two disagree — the
    scheduling decision the efficiency-only view gets wrong.  Ties keep
    the first-listed technique, matching
    ``ScalingStudyResult.best_technique``.
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
        best_obj = best_eff
        if objective != "efficiency":
            priced = [c for c in feasible if c.grid is not None]
            if priced:
                best_obj = min(
                    priced,
                    key=lambda c: c.grid.mean_g
                    if objective == "carbon"
                    else c.grid.mean_usd,
                ).technique
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


def _render_grid_block(result: ScalingStudyResult, ctx: GridContext) -> str:
    """The plain-text grid-accounting table appended to one study."""
    header = ["size%", "technique", "$/run", "gCO2/run", "kWh/run"]
    widths = [6, max(20, max(len(t) for t in result.techniques()) + 2), 14, 14, 14]
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
    for cell in result.cells:
        account = cell.grid
        row = [f"{100 * cell.fraction:.0f}", cell.technique, "---", "---", "---"]
        if account is not None:
            row[2:] = [
                f"{account.mean_usd:,.2f}",
                f"{account.mean_g:,.0f}",
                f"{account.mean_kwh:,.1f}",
            ]
        lines.append(_row(row, widths))
    lines.append(_rule(widths))
    for sel in grid_selection(result, ctx.objective):
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
    results: ScenarioResults,
    reason: Optional[str],
    chart: bool,
    grid: Optional[GridContext],
) -> str:
    axis = spec.sweep.axis if spec.sweep is not None else None
    title = f"Scenario {spec.scenario.name}"
    if spec.scenario.title:
        title += f" — {spec.scenario.title}"
    blocks: List[str] = []
    for value, result in results:
        point_title = title + (f" [{axis} = {value:g}]" if value is not None else "")
        if chart:
            blocks.append(scaling_barchart(result, title=point_title))
        else:
            blocks.append(render_scaling_study(result, point_title))
        if grid is not None:
            blocks.append(_render_grid_block(result, grid))
    text = "\n\n".join(blocks)
    if reason is not None:
        text += f"\n\nanalytic model bypassed: {reason}"
    return text


#: Columns a priced scenario appends to every cell row.
GRID_FIELDS = ("mean_energy_kwh", "mean_cost_usd", "mean_carbon_g")


def _cell_rows(result: ScalingStudyResult, priced: bool) -> List[Dict]:
    """One study's cell rows: :func:`scaling_rows` plus, for a priced
    scenario, each cell's mean energy, dollars and grams (0.0 when
    unpriced)."""
    rows = scaling_rows(result)
    if priced:
        for cell, row in zip(result.cells, rows):
            account = cell.grid
            row["mean_energy_kwh"] = account.mean_kwh if account else 0.0
            row["mean_cost_usd"] = account.mean_usd if account else 0.0
            row["mean_carbon_g"] = account.mean_g if account else 0.0
    return rows


def _render_csv(
    spec: ScenarioSpec,
    results: ScenarioResults,
    stamp: Dict[str, str],
    priced: bool,
) -> str:
    axis = spec.sweep.axis if spec.sweep is not None else ""
    # The grid columns are appended only for grid scenarios, so every
    # pre-grid export stays byte-identical.
    header = ["axis", "axis_value", *SCALING_FIELDS, *(GRID_FIELDS if priced else ())]
    lines = [provenance_comment(stamp), ",".join(header)]
    for value, result in results:
        for row in _cell_rows(result, priced):
            # str() of a float is its repr, of a bool "True"/"False".
            lines.append(
                ",".join(
                    [axis, f"{value:g}" if value is not None else ""]
                    + [str(field) for field in row.values()]
                )
            )
    return "\n".join(lines) + "\n"


def _render_json(
    spec: ScenarioSpec,
    results: ScenarioResults,
    stamp: Dict[str, str],
    reason: Optional[str],
    grid: Optional[GridContext],
) -> str:
    axis = spec.sweep.axis if spec.sweep is not None else None
    payload = {
        "provenance": stamp,
        "scenario": spec_to_dict(spec),
        "analytic_bypass": reason,
        "results": [
            {
                "axis": axis,
                "axis_value": value,
                "cells": _cell_rows(result, grid is not None),
            }
            for value, result in results
        ],
    }
    if grid is not None:
        accounts = [
            cell.grid
            for _, result in results
            for cell in result.cells
            if cell.grid is not None
        ]
        payload["grid"] = {
            "objective": grid.objective,
            "start_hour": grid.offset_s / _HOUR_S,
            "power": {"busy_w": grid.power.busy_w, "idle_w": grid.power.idle_w},
            "curves": {
                role: curve.to_dict() if curve is not None else None
                for role, curve in (("price", grid.price), ("carbon", grid.carbon))
            },
            "totals": {
                "cost_usd": sum(a.total_usd for a in accounts),
                "carbon_g": sum(a.total_g for a in accounts),
                "energy_kwh": sum(a.total_kwh for a in accounts),
                "cells_accounted": len(accounts),
            },
            "selection": [
                {"axis_value": value, **sel}
                for value, result in results
                for sel in grid_selection(result, grid.objective)
            ],
        }
    return json.dumps(payload, indent=2, sort_keys=True)


def run_scenario_request(
    request: StudyRequest,
    options: Optional[ExecutorOptions] = None,
    observe: bool = False,
) -> StudyOutcome:
    """Entry body for ``experiment="scenario"`` requests.

    The request is self-contained (canonical spec JSON plus any
    embedded trace), so this runs identically from the CLI and from a
    service worker — same seeds, same cache keys, same rendered bytes.
    ``observe=True`` collects the event stream and metrics of every
    axis value on ``outcome.result``.
    """
    spec = scenario_from_json(request.scenario)
    trace = (
        trace_from_jsonl(request.trace, source="<request>")
        if request.trace is not None
        else None
    )
    reason = scenario_analytic_reason(spec)
    stamp = scenario_provenance(spec)
    grid = (
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
        observe=observe,
    )
    if request.format == "csv":
        text = _render_csv(spec, results, stamp, grid is not None)
    elif request.format == "json":
        text = _render_json(spec, results, stamp, reason, grid)
    else:
        text = _render_table(
            spec, results, reason, request.format == "barchart", grid
        )
    notes: Dict[str, object] = dict(stamp)
    if reason is not None:
        notes["analytic_bypass"] = reason
    if spec.grid is not None:
        notes["grid_objective"] = spec.grid.objective
    return StudyOutcome(text=text, result=results, notes=notes)
