"""The validated scenario document, as frozen dataclasses.

A :class:`ScenarioSpec` is the in-memory form of one scenario file:
what platform to simulate, under which failure regime, running which
workload with which techniques, swept over which axis, at which trial
count and seed.  Instances are produced by
:func:`repro.scenarios.schema.parse_scenario` (which enforces the
schema) and consumed by :func:`repro.scenarios.compiler.compile_scenario`.

Identity is textual: :func:`canonical_json` renders a spec to one
deterministic compact JSON document (sorted keys, no ambient state),
and :func:`spec_sha256` hashes it.  That digest is the scenario's
fingerprint everywhere — result-cache keys, provenance stamps on
exports, campaign responses — so two specs compare equal exactly when
their canonical JSON bytes do.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Failure-interarrival regimes a scenario can select.
REGIMES = ("poisson", "weibull", "lognormal", "trace")

#: Workload studies a scenario can run.
STUDIES = ("scaling", "datacenter")

#: Datacenter modes: fixed-technique columns (Fig. 4) or the adaptive
#: selection study (Fig. 5).
DATACENTER_MODES = ("techniques", "selection")

#: Sweepable failure-axis names.
SWEEP_AXES = ("mtbf_years", "shape", "sigma", "burst_mean_width")

#: Objectives a ``[grid]`` block can rank techniques by.
GRID_OBJECTIVES = ("efficiency", "cost", "carbon")

#: Curve kinds a ``[grid.price]`` / ``[grid.carbon]`` table can select.
CURVE_KINDS = ("flat", "piecewise", "sinusoidal", "trace")


@dataclass(frozen=True)
class ScenarioMeta:
    """The ``[scenario]`` section: naming and intent."""

    name: str
    title: str = ""
    description: str = ""


@dataclass(frozen=True)
class PlatformSpec:
    """The ``[platform]`` section.

    ``preset`` names a platform builder (only ``"exascale"`` today);
    ``total_nodes`` overrides the preset's machine size.
    """

    preset: str = "exascale"
    total_nodes: Optional[int] = None


@dataclass(frozen=True)
class FailureSpec:
    """The ``[failures]`` section: the failure environment.

    ``regime`` picks the interarrival model; ``shape`` (Weibull) and
    ``sigma`` (lognormal) are that regime's parameter.  ``trace_file``
    (regime ``"trace"``) replays a recorded realization instead of
    sampling; it is resolved relative to the spec file.  Burst storms
    (``burst_mean_width`` > 1) compose with any sampled regime.
    """

    regime: str = "poisson"
    mtbf_years: float = 10.0
    shape: Optional[float] = None
    sigma: Optional[float] = None
    burst_mean_width: Optional[float] = None
    burst_max_width: Optional[int] = None
    trace_file: Optional[str] = None
    severity_pmf: Optional[Tuple[float, float, float]] = None


@dataclass(frozen=True)
class WorkloadSpec:
    """The ``[workload]`` section: what runs on the machine."""

    study: str = "scaling"
    app_type: str = "A32"
    fractions: Optional[Tuple[float, ...]] = None
    mode: str = "techniques"
    patterns: Optional[int] = None


@dataclass(frozen=True)
class SweepSpec:
    """The ``[sweep]`` section: one failure axis crossed with the grid."""

    axis: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class RunSpec:
    """The ``[run]`` section: statistical effort and rendering."""

    trials: Optional[int] = None
    seed: int = 2017
    format: str = "table"


@dataclass(frozen=True)
class AdaptiveSpec:
    """The ``[adaptive]`` section: campaign-controller knobs.

    ``max_trials`` caps each cell's trial budget, submitted in
    ``batch_size`` waves; a cell stops early once its 95% CI half-width
    falls below ``ci_rel_threshold`` of the mean, and up to
    ``refine_depth`` rounds of bisection probe technique-crossover
    boundaries between adjacent fractions.  Meaningful only when the
    campaign is submitted adaptively (``repro scenario submit
    --adaptive`` / the ``adaptive`` key of ``POST /v1/campaigns``).
    """

    max_trials: int = 200
    batch_size: int = 25
    ci_rel_threshold: float = 0.02
    refine_depth: int = 1

    def batch_sizes(self) -> List[int]:
        """Trial counts of the batch chain covering ``max_trials``
        (all ``batch_size`` except a possibly short last batch)."""
        sizes = [self.batch_size] * (self.max_trials // self.batch_size)
        rest = self.max_trials % self.batch_size
        if rest:
            sizes.append(rest)
        return sizes


@dataclass(frozen=True)
class CurveSpec:
    """One curve table (``[grid.price]`` / ``[grid.carbon]``).

    ``kind`` selects the model; the other fields are that kind's
    parameters (times in **hours** in the document, converted to
    seconds when the runtime builds the actual
    :class:`repro.grid.curves.Curve`).  ``trace_file`` (kind
    ``"trace"``) replays a recorded curve, resolved relative to the
    spec file like ``failures.trace_file``.
    """

    kind: str
    level: Optional[float] = None
    hours: Optional[Tuple[float, ...]] = None
    levels: Optional[Tuple[float, ...]] = None
    period_hours: Optional[float] = None
    base: Optional[float] = None
    amplitude: Optional[float] = None
    peak_hour: Optional[float] = None
    amplitude2: Optional[float] = None
    peak2_hour: Optional[float] = None
    trace_file: Optional[str] = None


@dataclass(frozen=True)
class GridSpec:
    """The ``[grid]`` section: curves, objective, and anchoring.

    ``objective`` picks what the grid report ranks techniques by
    (``cost`` needs a price curve, ``carbon`` a carbon curve;
    ``efficiency`` reports costs but ranks by the paper's metric).
    ``start_hour`` anchors simulation time 0 on the curves' daily
    clock; ``busy_w``/``idle_w`` override the default power model.
    """

    objective: str = "efficiency"
    start_hour: float = 0.0
    busy_w: Optional[float] = None
    idle_w: Optional[float] = None
    price: Optional[CurveSpec] = None
    carbon: Optional[CurveSpec] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully parsed scenario document."""

    scenario: ScenarioMeta
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    failures: FailureSpec = field(default_factory=FailureSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    techniques: Optional[Tuple[str, ...]] = None
    sweep: Optional[SweepSpec] = None
    run: RunSpec = field(default_factory=RunSpec)
    adaptive: Optional[AdaptiveSpec] = None
    grid: Optional[GridSpec] = None
    #: Directory of the source file, for resolving ``trace_file``;
    #: *not* part of the canonical form (two copies of one spec in
    #: different directories are the same scenario).
    base_dir: Optional[str] = None


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """The canonical plain-dict form of *spec*.

    Only semantically meaningful fields appear — ``base_dir`` and
    unset optionals are dropped — so the dict (and everything derived
    from it) is a pure function of the scenario's meaning.
    """

    def prune(mapping: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v for k, v in mapping.items() if v is not None}

    doc: Dict[str, Any] = {
        "scenario": prune(
            {
                "name": spec.scenario.name,
                "title": spec.scenario.title or None,
                "description": spec.scenario.description or None,
            }
        ),
        "platform": prune(
            {
                "preset": spec.platform.preset,
                "total_nodes": spec.platform.total_nodes,
            }
        ),
        "failures": prune(
            {
                "regime": spec.failures.regime,
                "mtbf_years": spec.failures.mtbf_years,
                "shape": spec.failures.shape,
                "sigma": spec.failures.sigma,
                "burst_mean_width": spec.failures.burst_mean_width,
                "burst_max_width": spec.failures.burst_max_width,
                "trace_file": spec.failures.trace_file,
                "severity_pmf": list(spec.failures.severity_pmf)
                if spec.failures.severity_pmf is not None
                else None,
            }
        ),
        "workload": prune(
            {
                "study": spec.workload.study,
                "app_type": spec.workload.app_type
                if spec.workload.study == "scaling"
                else None,
                "fractions": list(spec.workload.fractions)
                if spec.workload.fractions is not None
                else None,
                "mode": spec.workload.mode
                if spec.workload.study == "datacenter"
                else None,
                "patterns": spec.workload.patterns,
            }
        ),
        "run": prune(
            {
                "trials": spec.run.trials,
                "seed": spec.run.seed,
                "format": spec.run.format,
            }
        ),
    }
    if spec.techniques is not None:
        doc["techniques"] = {"names": list(spec.techniques)}
    if spec.sweep is not None:
        doc["sweep"] = {
            "axis": spec.sweep.axis,
            "values": list(spec.sweep.values),
        }
    if spec.adaptive is not None:
        doc["adaptive"] = {
            "max_trials": spec.adaptive.max_trials,
            "batch_size": spec.adaptive.batch_size,
            "ci_rel_threshold": spec.adaptive.ci_rel_threshold,
            "refine_depth": spec.adaptive.refine_depth,
        }
    if spec.grid is not None:
        # Emitted only when the section is present, so the canonical
        # JSON (and spec_sha256) of every pre-grid scenario is unchanged.
        def curve_doc(curve: Optional[CurveSpec]) -> Optional[Dict[str, Any]]:
            if curve is None:
                return None
            return prune(
                {
                    "kind": curve.kind,
                    "level": curve.level,
                    "hours": list(curve.hours)
                    if curve.hours is not None
                    else None,
                    "levels": list(curve.levels)
                    if curve.levels is not None
                    else None,
                    "period_hours": curve.period_hours,
                    "base": curve.base,
                    "amplitude": curve.amplitude,
                    "peak_hour": curve.peak_hour,
                    "amplitude2": curve.amplitude2,
                    "peak2_hour": curve.peak2_hour,
                    "trace_file": curve.trace_file,
                }
            )

        doc["grid"] = prune(
            {
                "objective": spec.grid.objective,
                "start_hour": spec.grid.start_hour,
                "busy_w": spec.grid.busy_w,
                "idle_w": spec.grid.idle_w,
                "price": curve_doc(spec.grid.price),
                "carbon": curve_doc(spec.grid.carbon),
            }
        )
    return doc


def canonical_json(spec: ScenarioSpec) -> str:
    """Deterministic compact JSON text of *spec* (sorted keys)."""
    return json.dumps(
        spec_to_dict(spec), sort_keys=True, separators=(",", ":")
    )


def spec_sha256(spec: ScenarioSpec) -> str:
    """SHA-256 of :func:`canonical_json` — the scenario's identity for
    cache keys, provenance stamps, and campaign responses."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()
