"""Scenario schema: strict parsing of TOML/JSON scenario documents.

:func:`load_scenario` reads a file (TOML by default, JSON for
``.json``); :func:`parse_scenario` validates a plain mapping.  The
schema is *closed*: every unknown section or key is an error naming
the full field path, so a typo like ``[failurs]`` or
``burst_mean_witdh`` fails loudly instead of silently running the
default.  Cross-field rules (a Weibull ``shape`` under a Poisson
regime, a sweep over a trace replay, a datacenter study outside the
paper's failure environment) are enforced here too — the compiler and
runtime may assume a parsed spec is coherent.

Both steps of reading the untrusted document come from the shared
toolkit :mod:`repro.inputs`: its decoders turn invalid UTF-8, syntax
errors and over-deep nesting into one error, and every section is read
off its closed-key :class:`~repro.inputs.Fields` cursor, whose number
kinds reject NaN and infinities.  :func:`parse_adaptive` is the one
parser of adaptive-campaign settings, used for the ``[adaptive]``
section and for the ``adaptive`` override of ``POST /v1/campaigns``.

Error style follows the service conventions: a single
:class:`~repro.scenarios.errors.ScenarioError` line, qualified with
the dotted field path and the accepted values.
"""

from __future__ import annotations

import os
import re
from typing import Any, Optional, Tuple, Union

from repro.inputs import Fields, decode_json, decode_toml, read_text
from repro.scenarios.errors import ScenarioError
from repro.scenarios.spec import (
    CURVE_KINDS,
    DATACENTER_MODES,
    GRID_OBJECTIVES,
    REGIMES,
    STUDIES,
    SWEEP_AXES,
    AdaptiveSpec,
    CurveSpec,
    FailureSpec,
    GridSpec,
    PlatformSpec,
    RunSpec,
    ScenarioMeta,
    ScenarioSpec,
    SweepSpec,
    WorkloadSpec,
)

#: Output formats a scenario can request (mirrors the study entrypoint).
SCENARIO_FORMATS = ("table", "barchart", "csv", "json")

#: Platform presets a scenario can name.
PLATFORM_PRESETS = ("exascale",)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _parse_meta(data: Any) -> ScenarioMeta:
    section = Fields(data, "scenario", ScenarioError)
    meta = ScenarioMeta(
        name=section.take("name", "str", required=True, pattern=_NAME_RE),
        title=section.take("title", "str", ""),
        description=section.take("description", "str", ""),
    )
    section.finish()
    return meta


def _parse_platform(data: Any) -> PlatformSpec:
    if data is None:
        return PlatformSpec()
    section = Fields(data, "platform", ScenarioError)
    preset = section.take("preset", "str", "exascale", choices=PLATFORM_PRESETS)
    total_nodes = section.take("total_nodes", "int", lo=2)
    section.finish()
    return PlatformSpec(preset=preset, total_nodes=total_nodes)


def _parse_failures(data: Any) -> FailureSpec:
    if data is None:
        return FailureSpec()
    section = Fields(data, "failures", ScenarioError)
    regime = section.take("regime", "str", "poisson", choices=REGIMES)
    mtbf_years = section.take("mtbf_years", "float", 10.0)
    if mtbf_years <= 0:
        raise ScenarioError(
            "failures.mtbf_years", f"must be > 0, got {mtbf_years:g}"
        )
    shape = section.take("shape", "float")
    if shape is not None:
        if regime != "weibull":
            raise ScenarioError(
                "failures.shape",
                f"only valid for regime 'weibull' (regime is {regime!r})",
            )
        if shape <= 0:
            raise ScenarioError("failures.shape", f"must be > 0, got {shape:g}")
    sigma = section.take("sigma", "float")
    if sigma is not None:
        if regime != "lognormal":
            raise ScenarioError(
                "failures.sigma",
                f"only valid for regime 'lognormal' (regime is {regime!r})",
            )
        if sigma <= 0:
            raise ScenarioError("failures.sigma", f"must be > 0, got {sigma:g}")
    burst_mean_width = section.take("burst_mean_width", "float")
    burst_max_width = section.take("burst_max_width", "int")
    if burst_mean_width is not None:
        if regime == "trace":
            raise ScenarioError(
                "failures.burst_mean_width",
                "burst storms cannot compose with trace replay "
                "(the trace already fixes every failure)",
            )
        if burst_mean_width < 1.0:
            raise ScenarioError(
                "failures.burst_mean_width",
                f"must be >= 1, got {burst_mean_width:g}",
            )
    if burst_max_width is not None:
        if burst_mean_width is None:
            raise ScenarioError(
                "failures.burst_max_width",
                "requires burst_mean_width to be set",
            )
        if burst_max_width < 1:
            raise ScenarioError(
                "failures.burst_max_width", f"must be >= 1, got {burst_max_width}"
            )
    trace_file = section.take("trace_file", "str")
    if regime == "trace" and trace_file is None:
        raise ScenarioError(
            "failures.trace_file", "required when regime is 'trace'"
        )
    if regime != "trace" and trace_file is not None:
        raise ScenarioError(
            "failures.trace_file",
            f"only valid for regime 'trace' (regime is {regime!r})",
        )
    pmf = section.take("severity_pmf", "list[float]")
    severity_pmf: Optional[Tuple[float, float, float]] = None
    if pmf is not None:
        if len(pmf) != 3:
            raise ScenarioError(
                "failures.severity_pmf",
                f"expected 3 probabilities, got {len(pmf)}",
            )
        if any(p < 0 for p in pmf) or abs(sum(pmf) - 1.0) > 1e-9:
            raise ScenarioError(
                "failures.severity_pmf",
                "probabilities must be >= 0 and sum to 1",
            )
        severity_pmf = (pmf[0], pmf[1], pmf[2])
    section.finish()
    return FailureSpec(
        regime=regime,
        mtbf_years=mtbf_years,
        shape=shape,
        sigma=sigma,
        burst_mean_width=burst_mean_width,
        burst_max_width=burst_max_width,
        trace_file=trace_file,
        severity_pmf=severity_pmf,
    )


def _parse_workload(data: Any) -> WorkloadSpec:
    if data is None:
        return WorkloadSpec()
    section = Fields(data, "workload", ScenarioError)
    study = section.take("study", "str", "scaling", choices=STUDIES)
    app_type = section.take("app_type", "str")
    fractions_raw = section.take("fractions", "list[float]")
    mode = section.take("mode", "str", choices=DATACENTER_MODES)
    patterns = section.take("patterns", "int", lo=1)
    section.finish()

    if study == "scaling":
        if mode is not None:
            raise ScenarioError(
                "workload.mode", "only valid for study 'datacenter'"
            )
        if patterns is not None:
            raise ScenarioError(
                "workload.patterns", "only valid for study 'datacenter'"
            )
        from repro.workload.synthetic import APP_TYPES

        app_type = app_type if app_type is not None else "A32"
        if app_type not in APP_TYPES:
            raise ScenarioError(
                "workload.app_type",
                f"unknown application type {app_type!r} "
                f"(choose from {', '.join(sorted(APP_TYPES))})",
            )
        fractions: Optional[Tuple[float, ...]] = None
        if fractions_raw is not None:
            if not fractions_raw:
                raise ScenarioError(
                    "workload.fractions", "need at least one fraction"
                )
            for i, f in enumerate(fractions_raw):
                if not 0.0 < f <= 1.0:
                    raise ScenarioError(
                        f"workload.fractions[{i}]",
                        f"must be in (0, 1], got {f:g}",
                    )
            fractions = tuple(fractions_raw)
        return WorkloadSpec(study="scaling", app_type=app_type, fractions=fractions)

    # datacenter
    if app_type is not None:
        raise ScenarioError(
            "workload.app_type",
            "only valid for study 'scaling' (the datacenter study draws "
            "its own arrival mix)",
        )
    if fractions_raw is not None:
        raise ScenarioError(
            "workload.fractions", "only valid for study 'scaling'"
        )
    return WorkloadSpec(
        study="datacenter",
        mode=mode if mode is not None else "techniques",
        patterns=patterns,
    )


def _parse_techniques(data: Any) -> Optional[Tuple[str, ...]]:
    if data is None:
        return None
    section = Fields(data, "techniques", ScenarioError)
    names = section.take("names", "list[str]", required=True)
    section.finish()
    if not names:
        raise ScenarioError("techniques.names", "need at least one technique")
    from repro.resilience.registry import by_name

    known = by_name()
    for i, name in enumerate(names):
        if name not in known:
            raise ScenarioError(
                f"techniques.names[{i}]",
                f"unknown technique {name!r} "
                f"(choose from {', '.join(sorted(known))})",
            )
    if len(set(names)) != len(names):
        raise ScenarioError("techniques.names", "technique names must be unique")
    return tuple(names)


def _parse_sweep(data: Any) -> Optional[SweepSpec]:
    if data is None:
        return None
    section = Fields(data, "sweep", ScenarioError)
    axis = section.take("axis", "str", required=True, choices=SWEEP_AXES)
    values = section.take("values", "list[float]", required=True)
    section.finish()
    if not values:
        raise ScenarioError("sweep.values", "need at least one value")
    for i, v in enumerate(values):
        if axis == "burst_mean_width":
            if v < 1.0:
                raise ScenarioError(
                    f"sweep.values[{i}]",
                    f"must be >= 1 for axis 'burst_mean_width', got {v:g}",
                )
        elif v <= 0.0:
            raise ScenarioError(
                f"sweep.values[{i}]", f"must be > 0 for axis {axis!r}, got {v:g}"
            )
    if len(set(values)) != len(values):
        raise ScenarioError("sweep.values", "sweep values must be unique")
    return SweepSpec(axis=axis, values=tuple(values))


def _parse_run(data: Any) -> RunSpec:
    if data is None:
        return RunSpec()
    section = Fields(data, "run", ScenarioError)
    run = RunSpec(
        trials=section.take("trials", "int", lo=1),
        seed=section.take("seed", "int", 2017),
        format=section.take("format", "str", "table", choices=SCENARIO_FORMATS),
    )
    section.finish()
    return run


def parse_adaptive(data: Any, defaults: Optional[AdaptiveSpec] = None) -> AdaptiveSpec:
    """The ``[adaptive]`` section of a scenario — or the ``adaptive``
    override object of a ``POST /v1/campaigns`` body — read over
    *defaults* (the spec's own section there; the schema defaults when
    None), so both inputs obey one set of range rules."""
    base = defaults if defaults is not None else AdaptiveSpec()
    section = Fields(data, "adaptive", ScenarioError)
    max_trials = section.take("max_trials", "int", base.max_trials, lo=2)
    batch_size = section.take("batch_size", "int", base.batch_size, lo=2)
    if batch_size > max_trials:
        raise ScenarioError(
            "adaptive.batch_size",
            f"must be <= max_trials ({max_trials}), got {batch_size}",
        )
    ci_rel_threshold = section.take(
        "ci_rel_threshold", "float", base.ci_rel_threshold
    )
    if not 0.0 < ci_rel_threshold < 1.0:
        raise ScenarioError(
            "adaptive.ci_rel_threshold",
            f"must be in (0, 1), got {ci_rel_threshold:g}",
        )
    refine_depth = section.take("refine_depth", "int", base.refine_depth, lo=0)
    section.finish()
    return AdaptiveSpec(
        max_trials=max_trials,
        batch_size=batch_size,
        ci_rel_threshold=ci_rel_threshold,
        refine_depth=refine_depth,
    )


def _parse_curve(data: Any, path: str) -> CurveSpec:
    """One ``[grid.price]`` / ``[grid.carbon]`` table.

    Validates every kind's parameters with the same rules the curve
    classes enforce, so a spec that parses always builds."""
    section = Fields(data, path, ScenarioError)
    kind = section.take("kind", "str", required=True, choices=CURVE_KINDS)
    level = section.take("level", "float")
    hours = section.take("hours", "list[float]")
    levels = section.take("levels", "list[float]")
    period_hours = section.take("period_hours", "float")
    base = section.take("base", "float")
    amplitude = section.take("amplitude", "float")
    peak_hour = section.take("peak_hour", "float")
    amplitude2 = section.take("amplitude2", "float")
    peak2_hour = section.take("peak2_hour", "float")
    trace_file = section.take("trace_file", "str")
    section.finish()

    by_kind = {
        "flat": ("level",),
        "piecewise": ("hours", "levels", "period_hours"),
        "sinusoidal": (
            "base",
            "amplitude",
            "peak_hour",
            "amplitude2",
            "peak2_hour",
            "period_hours",
        ),
        "trace": ("trace_file",),
    }
    present = {
        "level": level,
        "hours": hours,
        "levels": levels,
        "period_hours": period_hours,
        "base": base,
        "amplitude": amplitude,
        "peak_hour": peak_hour,
        "amplitude2": amplitude2,
        "peak2_hour": peak2_hour,
        "trace_file": trace_file,
    }
    for key, value in present.items():
        if value is not None and key not in by_kind[kind]:
            raise ScenarioError(
                f"{path}.{key}", f"not valid for curve kind {kind!r}"
            )

    if kind == "flat":
        if level is None:
            raise ScenarioError(
                f"{path}.level", "required for curve kind 'flat'"
            )
        if level < 0:
            raise ScenarioError(f"{path}.level", f"must be >= 0, got {level:g}")
        return CurveSpec(kind="flat", level=level)

    if kind == "piecewise":
        if hours is None:
            raise ScenarioError(
                f"{path}.hours", "required for curve kind 'piecewise'"
            )
        if levels is None:
            raise ScenarioError(
                f"{path}.levels", "required for curve kind 'piecewise'"
            )
        if not hours:
            raise ScenarioError(f"{path}.hours", "need at least one segment")
        if len(hours) != len(levels):
            raise ScenarioError(
                f"{path}.levels",
                f"must pair up with hours "
                f"({len(hours)} hours, {len(levels)} levels)",
            )
        if hours[0] != 0.0:
            raise ScenarioError(
                f"{path}.hours", f"the first segment must start at 0, got {hours[0]:g}"
            )
        for i, (a, b) in enumerate(zip(hours, hours[1:]), start=1):
            if b <= a:
                raise ScenarioError(
                    f"{path}.hours[{i}]",
                    f"segment starts must be strictly increasing, "
                    f"got {a:g} then {b:g}",
                )
        for i, v in enumerate(levels):
            if v < 0:
                raise ScenarioError(
                    f"{path}.levels[{i}]", f"must be >= 0, got {v:g}"
                )
        period = period_hours if period_hours is not None else 24.0
        if period <= 0:
            raise ScenarioError(
                f"{path}.period_hours", f"must be > 0, got {period:g}"
            )
        if hours[-1] >= period:
            raise ScenarioError(
                f"{path}.hours[{len(hours) - 1}]",
                f"segment starts must fall inside the period, "
                f"got {hours[-1]:g} >= {period:g}",
            )
        return CurveSpec(
            kind="piecewise",
            hours=tuple(hours),
            levels=tuple(levels),
            period_hours=period,
        )

    if kind == "sinusoidal":
        if base is None:
            raise ScenarioError(
                f"{path}.base", "required for curve kind 'sinusoidal'"
            )
        if amplitude is None:
            raise ScenarioError(
                f"{path}.amplitude", "required for curve kind 'sinusoidal'"
            )
        if amplitude < 0:
            raise ScenarioError(
                f"{path}.amplitude", f"must be >= 0, got {amplitude:g}"
            )
        amp2 = amplitude2 if amplitude2 is not None else 0.0
        if amp2 < 0:
            raise ScenarioError(
                f"{path}.amplitude2", f"must be >= 0, got {amp2:g}"
            )
        if base < amplitude + amp2:
            raise ScenarioError(
                f"{path}.base",
                f"must be >= amplitude + amplitude2 so the curve stays "
                f"nonnegative, got {base:g} < {amplitude + amp2:g}",
            )
        period = period_hours if period_hours is not None else 24.0
        if period <= 0:
            raise ScenarioError(
                f"{path}.period_hours", f"must be > 0, got {period:g}"
            )
        return CurveSpec(
            kind="sinusoidal",
            base=base,
            amplitude=amplitude,
            peak_hour=peak_hour if peak_hour is not None else 0.0,
            amplitude2=amp2,
            peak2_hour=peak2_hour if peak2_hour is not None else 0.0,
            period_hours=period,
        )

    # trace
    if trace_file is None:
        raise ScenarioError(
            f"{path}.trace_file", "required for curve kind 'trace'"
        )
    return CurveSpec(kind="trace", trace_file=trace_file)


def _parse_grid(data: Any) -> Optional[GridSpec]:
    if data is None:
        return None
    section = Fields(data, "grid", ScenarioError)
    objective = section.take(
        "objective", "str", "efficiency", choices=GRID_OBJECTIVES
    )
    start_hour = section.take("start_hour", "float", 0.0)
    if not 0.0 <= start_hour < 24.0:
        raise ScenarioError(
            "grid.start_hour", f"must be in [0, 24), got {start_hour:g}"
        )
    busy_w = section.take("busy_w", "float")
    if busy_w is not None and busy_w <= 0:
        raise ScenarioError("grid.busy_w", f"must be > 0, got {busy_w:g}")
    idle_w = section.take("idle_w", "float")
    if idle_w is not None:
        if idle_w < 0:
            raise ScenarioError("grid.idle_w", f"must be >= 0, got {idle_w:g}")
        ceiling = busy_w if busy_w is not None else 350.0
        if idle_w > ceiling:
            raise ScenarioError(
                "grid.idle_w",
                f"must be <= busy_w ({ceiling:g}), got {idle_w:g}",
            )
    raw_price = section.take("price", "mapping")
    raw_carbon = section.take("carbon", "mapping")
    section.finish()
    price = _parse_curve(raw_price, "grid.price") if raw_price is not None else None
    carbon = (
        _parse_curve(raw_carbon, "grid.carbon") if raw_carbon is not None else None
    )
    if price is None and carbon is None:
        raise ScenarioError(
            "grid", "need at least one curve table ([grid.price] or [grid.carbon])"
        )
    if objective == "cost" and price is None:
        raise ScenarioError(
            "grid.objective", "objective 'cost' requires a [grid.price] curve"
        )
    if objective == "carbon" and carbon is None:
        raise ScenarioError(
            "grid.objective",
            "objective 'carbon' requires a [grid.carbon] curve",
        )
    return GridSpec(
        objective=objective,
        start_hour=start_hour,
        busy_w=busy_w,
        idle_w=idle_w,
        price=price,
        carbon=carbon,
    )


def _cross_validate(spec: ScenarioSpec) -> None:
    """Rules spanning sections; assumes per-section parsing passed."""
    failures, workload, sweep = spec.failures, spec.workload, spec.sweep

    if workload.study == "datacenter":
        # The datacenter injector redraws gaps on every rate change,
        # which is only valid for memoryless (exponential) gaps, and
        # the Fig. 4-5 drivers fix the paper's environment; anything
        # else must be expressed as a scaling study.
        if failures.regime != "poisson":
            raise ScenarioError(
                "failures.regime",
                f"regime {failures.regime!r} is not supported by the "
                "datacenter study: its failure injector redraws "
                "interarrivals on allocation changes, which requires the "
                "memoryless (poisson) regime",
            )
        if failures.burst_mean_width is not None:
            raise ScenarioError(
                "failures.burst_mean_width",
                "burst storms are not supported by the datacenter study",
            )
        if failures.mtbf_years != 10.0:
            raise ScenarioError(
                "failures.mtbf_years",
                "the datacenter study runs the paper's environment "
                "(mtbf_years = 10); vary MTBF with a scaling study",
            )
        if failures.severity_pmf is not None:
            raise ScenarioError(
                "failures.severity_pmf",
                "custom severity PMFs are not supported by the "
                "datacenter study",
            )
        if spec.techniques is not None:
            raise ScenarioError(
                "techniques.names",
                "the datacenter study fixes its technique line-up "
                "(choose workload.mode instead)",
            )
        if sweep is not None:
            raise ScenarioError(
                "sweep.axis", "sweeps are only supported for scaling studies"
            )
        if spec.run.trials is not None:
            raise ScenarioError(
                "run.trials",
                "the datacenter study repeats over arrival patterns; "
                "set workload.patterns instead",
            )
        if spec.run.seed != 2017:
            raise ScenarioError(
                "run.seed",
                "the datacenter study runs the paper's seed (2017)",
            )

    if failures.regime == "weibull" and failures.shape is None:
        if sweep is None or sweep.axis != "shape":
            raise ScenarioError(
                "failures.shape",
                "required for regime 'weibull' (or sweep over axis 'shape')",
            )
    if failures.regime == "lognormal" and failures.sigma is None:
        if sweep is None or sweep.axis != "sigma":
            raise ScenarioError(
                "failures.sigma",
                "required for regime 'lognormal' (or sweep over axis 'sigma')",
            )

    if failures.regime == "trace":
        trials = spec.run.trials
        if trials is not None and trials != 1:
            raise ScenarioError(
                "run.trials",
                f"trace replay is a single recorded realization; trials "
                f"must be 1, got {trials}",
            )
        if sweep is not None:
            raise ScenarioError(
                "sweep.axis", "sweeps cannot compose with trace replay"
            )
        if spec.adaptive is not None:
            raise ScenarioError(
                "adaptive.max_trials",
                "adaptive campaigns cannot compose with trace replay "
                "(replay forces trials = 1; there is nothing to adapt)",
            )

    if spec.adaptive is not None and workload.study == "datacenter":
        raise ScenarioError(
            "adaptive.max_trials",
            "adaptive campaigns are only supported for scaling studies",
        )

    if spec.grid is not None:
        if workload.study != "scaling":
            raise ScenarioError(
                "grid.objective",
                "grid accounting is only supported for scaling studies",
            )
        if failures.regime == "trace":
            raise ScenarioError(
                "grid.objective",
                "grid accounting cannot compose with failure-trace replay "
                "(a single recorded realization has no technique ensemble "
                "to rank; use a sampled regime)",
            )

    if sweep is not None:
        if sweep.axis == "shape" and failures.regime != "weibull":
            raise ScenarioError(
                "sweep.axis",
                f"axis 'shape' requires regime 'weibull' "
                f"(regime is {failures.regime!r})",
            )
        if sweep.axis == "sigma" and failures.regime != "lognormal":
            raise ScenarioError(
                "sweep.axis",
                f"axis 'sigma' requires regime 'lognormal' "
                f"(regime is {failures.regime!r})",
            )
        fixed = {
            "shape": failures.shape,
            "sigma": failures.sigma,
            "burst_mean_width": failures.burst_mean_width,
        }.get(sweep.axis)
        if fixed is not None:
            raise ScenarioError(
                "sweep.axis",
                f"axis {sweep.axis!r} is already fixed in [failures]; "
                "remove one",
            )
        if sweep.axis == "mtbf_years" and failures.mtbf_years != 10.0:
            raise ScenarioError(
                "sweep.axis",
                "axis 'mtbf_years' is already fixed in [failures]; "
                "remove one",
            )


def parse_scenario(
    data: Any,
    source: Optional[str] = None,
    base_dir: Optional[str] = None,
) -> ScenarioSpec:
    """Validate a plain mapping into a :class:`ScenarioSpec`.

    Raises :class:`ScenarioError` (one line, field-path qualified,
    prefixed with *source* when given) on any schema violation.
    """
    try:
        doc = Fields(data, error=ScenarioError)
        adaptive = doc.take("adaptive", "mapping")
        spec = ScenarioSpec(
            scenario=_parse_meta(doc.take("scenario", "mapping", required=True)),
            platform=_parse_platform(doc.take("platform", "mapping")),
            failures=_parse_failures(doc.take("failures", "mapping")),
            workload=_parse_workload(doc.take("workload", "mapping")),
            techniques=_parse_techniques(doc.take("techniques", "mapping")),
            sweep=_parse_sweep(doc.take("sweep", "mapping")),
            run=_parse_run(doc.take("run", "mapping")),
            adaptive=parse_adaptive(adaptive) if adaptive is not None else None,
            grid=_parse_grid(doc.take("grid", "mapping")),
            base_dir=base_dir,
        )
        # Unknown sections are reported before any cross-section rule,
        # which a misspelled section name would otherwise trip first.
        doc.finish()
        _cross_validate(spec)
        return spec
    except ScenarioError as exc:
        raise exc.with_source(source) from None


def scenario_from_json(text: str, source: Optional[str] = None) -> ScenarioSpec:
    """Parse a scenario from its canonical JSON text (the embedded form
    carried by ``StudyRequest.scenario``)."""
    return parse_scenario(decode_json(text, source, ScenarioError), source=source)


def load_scenario(path: Union[str, "os.PathLike"]) -> ScenarioSpec:
    """Read and validate one scenario file.

    ``.json`` files parse as JSON; everything else as TOML.  All
    failures — unreadable file, invalid UTF-8, syntax error, nesting
    too deep, schema violation — raise :class:`ScenarioError` with the
    file name in the message.
    """
    path = os.fspath(path)
    text = read_text(path, "scenario file", ScenarioError)
    decode = decode_json if path.endswith(".json") else decode_toml
    return parse_scenario(
        decode(text, path, ScenarioError),
        source=os.path.basename(path),
        base_dir=os.path.dirname(path) or ".",
    )
