"""Experiment runners: the machinery shared by all figure drivers.

- :func:`run_scaling_points` is the one scaling-study pipeline: a grid
  of (study point x system fraction x technique) mean efficiencies,
  where a point is one sweep-axis value.  :func:`run_scaling_study`
  (one Figs. 1-3 panel) is its one-point case, and the scenario runtime
  (:mod:`repro.scenarios.runtime`) lowers every generic scaling scenario
  onto it.
- :func:`run_datacenter_study` reproduces one group of Figs. 4-5 bars:
  dropped percentages per (resource manager x selector) over a common
  set of arrival patterns (the same patterns are replayed for every
  combination, as the paper prescribes).

Both decompose their grids into independent cells executed through
:class:`repro.experiments.parallel.TrialExecutor`, so passing
``ExecutorOptions(jobs=N)`` fans the grid out over N worker processes
and ``ExecutorOptions(cache=True)`` memoises cells under
``results/.cache/``.  Every cell derives its randomness from the study
seed by name/index (never from execution order), so serial, parallel,
and cached runs produce bit-identical results; the default options
(``jobs=1``, no cache) preserve the historical serial behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.datacenter import (
    DatacenterConfig,
    DatacenterResult,
    run_datacenter_batch,
)
from repro.core.selection import TechniqueSelector
from repro.core.single_app import SingleAppConfig, run_trials
from repro.experiments.config import DatacenterStudyConfig, ScalingStudyConfig
from repro.experiments.parallel import (
    CellTask,
    ExecutorOptions,
    cache_key,
    run_cells,
    technique_fingerprint,
)
from repro.experiments.stats import SummaryStats
from repro.obs.sinks import JsonlExportSink, MetricsSink
from repro.platform.presets import exascale_system
from repro.resilience.base import ResilienceTechnique
from repro.resilience.registry import scaling_study_techniques
from repro.rm.registry import make_manager
from repro.rng.streams import StreamFactory
from repro.units import MINUTE
from repro.workload.patterns import ArrivalPattern, PatternBias, PatternGenerator
from repro.workload.synthetic import make_application

if TYPE_CHECKING:
    from repro.failures.burst import BurstModel
    from repro.failures.generator import InterarrivalModel
    from repro.failures.trace import FailureTrace


def _fractions_equal(a: float, b: float) -> bool:
    """Tolerant fraction comparison: survives floats produced by
    arithmetic (``0.1 + 0.2``) while still separating distinct grid
    points, which differ by far more than the relative tolerance."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@dataclass(frozen=True)
class ScalingCell:
    """One bar of a Figs. 1-3 panel."""

    fraction: float
    technique: str
    stats: Optional[SummaryStats]
    infeasible: bool
    #: With grid accounting: the cell's priced trials (a
    #: :class:`repro.scenarios.runtime.GridCellAccount`; None when the
    #: cell is infeasible or the study is not priced).
    grid: Any = None

    @property
    def mean_efficiency(self) -> float:
        """Mean efficiency of the bar (0 when infeasible)."""
        return 0.0 if (self.infeasible or self.stats is None) else self.stats.mean


@dataclass
class ScalingStudyResult:
    """A full Figs. 1-3 panel."""

    config: ScalingStudyConfig
    cells: List[ScalingCell] = field(default_factory=list)
    #: With ``observe=True``: every domain event of the study as JSON
    #: lines, in deterministic cell-submission/trial order.
    trace_lines: Optional[List[str]] = None
    #: With ``observe=True``: merged :meth:`MetricsSink.to_dict` data.
    metrics: Optional[Dict] = None

    def cell(self, fraction: float, technique: str) -> ScalingCell:
        """The bar at (*fraction*, *technique*); KeyError if absent."""
        for c in self.cells:
            if c.technique == technique and _fractions_equal(c.fraction, fraction):
                return c
        raise KeyError((fraction, technique))

    def series(self, technique: str) -> List[ScalingCell]:
        """One technique's curve, ascending by fraction."""
        out = [c for c in self.cells if c.technique == technique]
        return sorted(out, key=lambda c: c.fraction)

    def techniques(self) -> List[str]:
        """Technique names in first-appearance order."""
        seen: List[str] = []
        for c in self.cells:
            if c.technique not in seen:
                seen.append(c.technique)
        return seen

    def best_technique(self, fraction: float) -> str:
        """Highest mean efficiency at one fraction."""
        at = [c for c in self.cells if _fractions_equal(c.fraction, fraction)]
        return max(at, key=lambda c: c.mean_efficiency).technique


@dataclass(frozen=True)
class StudyPoint:
    """One point of a scaling study (one sweep-axis value): the panel's
    config plus the failure models a :class:`ScalingStudyConfig` does
    not carry."""

    config: ScalingStudyConfig
    #: The sweep-axis value (None without a sweep).
    value: Optional[float] = None
    burst: Optional["BurstModel"] = None
    interarrival: Optional["InterarrivalModel"] = None
    #: Prefix of the point's cell labels (default: the app type).
    label: str = ""

    def app_config(self) -> SingleAppConfig:
        """The single-application environment every cell of the point
        runs in."""
        return SingleAppConfig(
            node_mtbf_s=self.config.node_mtbf_s,
            severity_pmf=self.config.severity_pmf,
            seed=self.config.seed,
            burst=self.burst,
            interarrival=self.interarrival,
        )

    def application(self, system, fraction: float):
        """The point's application at *fraction* of *system*."""
        return make_application(
            self.config.app_type,
            nodes=system.fraction_to_nodes(fraction),
            time_steps=max(1, round(self.config.baseline_s / MINUTE)),
        )


def _cell_body(
    app, technique, system, trials, app_config, trace, grid, observe, first_trial
):
    """Compute one scaling cell; returns plain data (cache payload):
    ``(infeasible, efficiencies, account)``, plus ``(lines, metrics)``
    with *observe*.

    - *trace* replays one recorded failure realization instead of
      sampling ``trials`` trials.
    - *grid* prices each trial's :class:`ExecutionStats` through its
      ``account`` method (the account is None without it).
    - *observe* attaches per-cell export/metrics sinks, whose plain-data
      contents extend the payload; the cell stays a pure function
      returning picklable data, so observation works unchanged across
      worker processes.
    - *first_trial* offsets the trial seed indices (see
      :func:`repro.core.single_app.run_trials`).
    """
    sinks = (JsonlExportSink(), MetricsSink()) if observe else None
    if trace is None:
        trial_set = run_trials(
            app,
            technique,
            system,
            trials,
            app_config,
            keep_stats=grid is not None,
            sinks=sinks,
            first_trial=first_trial,
        )
        infeasible = trial_set.infeasible
        efficiencies, stats = trial_set.efficiencies, trial_set.stats
    else:
        # Imported here: repro.core.paired imports this package.
        from repro.core.paired import simulate_with_trace

        infeasible = not technique.fits(app, system)
        stats = [] if infeasible else [
            simulate_with_trace(
                app, technique, system, trace, app_config, sinks=sinks
            )
        ]
        efficiencies = [s.efficiency() for s in stats]
    account = grid.account(stats) if grid is not None and stats else None
    payload = (infeasible, tuple(efficiencies), account)
    if observe:
        export, metrics = sinks
        payload += (tuple(export.lines), metrics.to_dict())
    return payload


def run_scaling_points(
    points: Sequence[StudyPoint],
    techniques: Optional[Sequence[ResilienceTechnique]] = None,
    progress: Optional[Callable[[str], None]] = None,
    options: Optional[ExecutorOptions] = None,
    observe: bool = False,
    key: Any = None,
    trace: Optional["FailureTrace"] = None,
    grid: Any = None,
    first_trial: int = 0,
) -> List[ScalingStudyResult]:
    """Run a scaling study at every point; one result per point, in
    point order.

    Every (point x fraction x technique) cell runs in one
    :func:`~repro.experiments.parallel.run_cells` call, so results are
    bit-identical for any ``options.jobs``: each trial's seed derives
    from the point's seed and the trial index alone.  The cell options
    (*trace*, *grid*, *observe*, *first_trial*) are those of
    :func:`_cell_body`; a priced cell's account rides on its
    :class:`ScalingCell` and adds to the ``grid.*`` counters here, so
    cache hits count too.

    *key* identifies the study in cell cache keys (default: each
    point's config); it must determine every input the points do not.

    ``observe=True`` additionally collects each point's domain-event
    stream (``result.trace_lines``, JSONL) and merged metrics
    (``result.metrics``).  Observation is passive — the numeric results
    are bit-identical with it on or off — but observing cells bypass
    the cache (their event streams are too heavy to memoise), and the
    line order is deterministic for any ``jobs``.
    """
    techniques = (
        list(techniques) if techniques is not None else scaling_study_techniques()
    )
    fingerprints = [technique_fingerprint(t) for t in techniques]
    studies: List[Tuple[ScalingStudyResult, Optional[MetricsSink]]] = []
    tasks: List[CellTask] = []
    cells: List[Tuple[ScalingStudyResult, Optional[MetricsSink], float, str, str]] = []
    for point in points:
        config = point.config
        result = ScalingStudyResult(config, trace_lines=[] if observe else None)
        sink = MetricsSink() if observe else None
        studies.append((result, sink))
        system = exascale_system(config.system_nodes)
        app_config = point.app_config()
        prefix = point.label or config.app_type
        # Hashed once per point, so each cell key is flat plain data.
        study_key = cache_key(config if key is None else key)
        for fraction in config.fractions:
            app = point.application(system, fraction)
            for technique, fingerprint in zip(techniques, fingerprints):
                tasks.append(
                    CellTask(
                        fn=partial(
                            _cell_body,
                            app,
                            technique,
                            system,
                            config.trials,
                            app_config,
                            trace,
                            grid,
                            observe,
                            first_trial,
                        ),
                        key_parts=None
                        if observe
                        else (
                            "scaling",
                            study_key,
                            point.value,
                            fraction,
                            fingerprint,
                            config.trials,
                            first_trial,
                        ),
                        trials=config.trials,
                        label=f"{prefix} {100 * fraction:g}% {technique.name}",
                    )
                )
                cells.append((result, sink, fraction, technique.name, prefix))

    for (result, sink, fraction, name, prefix), outcome in zip(
        cells, run_cells(tasks, options)
    ):
        infeasible, efficiencies, account = outcome[:3]
        if account is not None:
            account.count()
        if sink is not None:
            result.trace_lines.extend(outcome[3])
            sink.merge(outcome[4])
        stats = None if infeasible else SummaryStats.from_samples(efficiencies)
        result.cells.append(ScalingCell(fraction, name, stats, infeasible, account))
        if progress is not None:
            progress(f"{prefix} {100 * fraction:5.1f}% {name:<22} done")
    for result, sink in studies:
        if sink is not None:
            result.metrics = sink.to_dict()
    return [result for result, _ in studies]


def run_scaling_study(
    config: ScalingStudyConfig,
    techniques: Optional[Sequence[ResilienceTechnique]] = None,
    progress: Optional[Callable[[str], None]] = None,
    options: Optional[ExecutorOptions] = None,
    observe: bool = False,
) -> ScalingStudyResult:
    """Run one Sec. V panel (Figs. 1-3): the one-point case of
    :func:`run_scaling_points`, with the same options and guarantees."""
    (result,) = run_scaling_points(
        [StudyPoint(config)], techniques, progress, options, observe
    )
    return result


@dataclass(frozen=True)
class DatacenterCell:
    """One bar of a Figs. 4-5 group: dropped % over patterns."""

    rm_name: str
    selector_name: str
    bias: PatternBias
    stats: SummaryStats
    #: Raw per-pattern dropped percentages, for paired comparisons.
    samples: Tuple[float, ...]


@dataclass
class DatacenterStudyResult:
    """A grid of datacenter bars sharing one pattern set."""

    config: DatacenterStudyConfig
    cells: List[DatacenterCell] = field(default_factory=list)
    #: With ``observe=True``: every domain event of the study as JSON
    #: lines, in deterministic cell-submission/pattern order.
    trace_lines: Optional[List[str]] = None
    #: With ``observe=True``: merged :meth:`MetricsSink.to_dict` data.
    metrics: Optional[Dict] = None

    def cell(
        self, rm_name: str, selector_name: str, bias: PatternBias
    ) -> DatacenterCell:
        """The bar at (*rm*, *selector*, *bias*); KeyError if absent."""
        for c in self.cells:
            if (
                c.rm_name == rm_name
                and c.selector_name == selector_name
                and c.bias is bias
            ):
                return c
        raise KeyError((rm_name, selector_name, bias))


SelectorFactory = Callable[[], TechniqueSelector]


def generate_patterns(
    config: DatacenterStudyConfig, bias: PatternBias
) -> List[ArrivalPattern]:
    """The pattern set shared by every combination of one study."""
    streams = StreamFactory(config.seed)
    generator = PatternGenerator(streams, config.system_nodes)
    return generator.generate_many(
        count=config.patterns, bias=bias, arrivals=config.arrivals_per_pattern
    )


def _datacenter_cell_body(
    config: DatacenterStudyConfig,
    rm_name: str,
    sel_name: str,
    factory: Optional[SelectorFactory],
    bias: PatternBias,
    patterns: Sequence[ArrivalPattern],
    keep_results: bool,
    observe: bool = False,
):
    """Compute one datacenter cell over its shared pattern set.

    Every stochastic input is derived by name from ``config.seed``
    (manager streams via ``StreamFactory.fresh``, failure streams
    inside the simulator), so this body is a pure function of its
    arguments — safe to run on any worker in any order.  With
    *observe*, per-cell export/metrics sinks accumulate across the
    patterns and their plain-data contents extend the payload.

    The patterns run through
    :func:`~repro.core.datacenter.run_datacenter_batch`, which shares
    one system (reset between patterns) and one plan cache across the
    cell; the factories below recreate exactly the per-pattern stream
    names and selector instances the unbatched loop used, so cell
    payloads are bit-identical to per-pattern :func:`run_datacenter`
    calls (the batched-trials equivalence tests lock this down).
    """
    streams = StreamFactory(config.seed)
    export = JsonlExportSink() if observe else None
    metrics = MetricsSink() if observe else None
    sinks = (export, metrics) if observe else None
    if factory is None:
        dc_config = DatacenterConfig(
            node_mtbf_s=config.node_mtbf_s,
            severity_pmf=config.severity_pmf,
            seed=config.seed,
            ideal=True,
        )
        selector_factory = _IdealSelector
    else:
        dc_config = DatacenterConfig(
            node_mtbf_s=config.node_mtbf_s,
            severity_pmf=config.severity_pmf,
            seed=config.seed,
        )
        selector_factory = factory

    def manager_factory(pattern):
        return make_manager(
            rm_name,
            streams.fresh(f"rm-{rm_name}-{sel_name}-{bias.value}-{pattern.index}"),
        )

    outcomes = run_datacenter_batch(
        patterns,
        manager_factory,
        selector_factory,
        exascale_system(config.system_nodes),
        dc_config,
        sinks=sinks,
    )
    samples = [outcome.dropped_pct for outcome in outcomes]
    raw = list(outcomes) if keep_results else []
    if not observe:
        return tuple(samples), raw
    return tuple(samples), raw, tuple(export.lines), metrics.to_dict()


def run_datacenter_study(
    config: DatacenterStudyConfig,
    selectors: Dict[str, SelectorFactory],
    rm_names: Sequence[str],
    biases: Sequence[PatternBias] = (PatternBias.UNBIASED,),
    include_ideal: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    keep_results: bool = False,
    options: Optional[ExecutorOptions] = None,
    observe: bool = False,
) -> Tuple[DatacenterStudyResult, List[DatacenterResult]]:
    """Run a Figs. 4-5 grid.

    ``selectors`` maps a display name to a zero-arg factory (a fresh
    selector per combination keeps selection counters per-cell).  When
    ``include_ideal`` is set, an extra "ideal" selector column runs with
    failures and resilience disabled.

    Cells fan out per ``options``.  Cache keys identify a selector by
    its display name (factories are opaque callables), so reusing a
    name for a behaviourally different selector under the same config
    must be paired with a cache clear.  ``keep_results=True`` bypasses
    the cache for those cells: raw :class:`DatacenterResult` objects
    are too heavy to memoise and are recomputed instead.

    ``observe=True`` collects the grid's domain-event stream and merged
    metrics on the study result (see :func:`run_scaling_study`);
    observing cells likewise bypass the cache.
    """
    study = DatacenterStudyResult(config=config)
    raw: List[DatacenterResult] = []
    tasks: List[CellTask] = []
    meta: List[Tuple[str, str, PatternBias]] = []
    for bias in biases:
        patterns = generate_patterns(config, bias)
        columns: List[Tuple[str, Optional[SelectorFactory]]] = [
            (name, factory) for name, factory in selectors.items()
        ]
        if include_ideal:
            columns.append(("ideal", None))
        for rm_name in rm_names:
            for sel_name, factory in columns:
                tasks.append(
                    CellTask(
                        fn=lambda rm_name=rm_name, sel_name=sel_name, factory=factory, bias=bias, patterns=patterns: _datacenter_cell_body(
                            config,
                            rm_name,
                            sel_name,
                            factory,
                            bias,
                            patterns,
                            keep_results,
                            observe,
                        ),
                        key_parts=(
                            None
                            if keep_results or observe
                            else ("datacenter", config, rm_name, sel_name, bias)
                        ),
                        trials=len(patterns),
                        label=f"{bias.value} {rm_name} {sel_name}",
                    )
                )
                meta.append((rm_name, sel_name, bias))

    outcomes = run_cells(tasks, options)

    merged_metrics = MetricsSink() if observe else None
    if observe:
        study.trace_lines = []
    for (rm_name, sel_name, bias), outcome in zip(meta, outcomes):
        samples, cell_raw = outcome[0], outcome[1]
        if observe:
            study.trace_lines.extend(outcome[2])
            merged_metrics.merge(outcome[3])
        study.cells.append(
            DatacenterCell(
                rm_name=rm_name,
                selector_name=sel_name,
                bias=bias,
                stats=SummaryStats.from_samples(samples),
                samples=tuple(samples),
            )
        )
        if keep_results:
            raw.extend(cell_raw)
        if progress is not None:
            progress(f"{bias.value} {rm_name} {sel_name} done")
    if merged_metrics is not None:
        study.metrics = merged_metrics.to_dict()
    return study, raw


class _IdealSelector:
    """Placeholder selector for ideal-baseline runs (never consulted)."""

    name = "ideal"

    def select(self, app, system):  # pragma: no cover - never called
        raise AssertionError("ideal runs must not consult the selector")
