"""Single-application simulation (the Sec. V studies).

Simulates one application executing alone on its allocation under one
resilience technique, with failures striking its physical nodes at the
application failure rate ``lambda_a = nodes_required / M_n``.  This is
the workhorse behind Figs. 1-3: each bar is the mean efficiency over
``trials`` independent replications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_NODE_MTBF_S
from repro.core.execution import ExecutionStats, ResilientExecution
from repro.failures.burst import BurstModel
from repro.failures.generator import AppFailureGenerator, InterarrivalModel
from repro.failures.severity import SeverityModel
from repro.obs import live
from repro.obs.counters import counter_value, increment
from repro.obs.events import TrialFinished, TrialStarted
from repro.obs.sinks import Sink
from repro.platform.system import HPCSystem
from repro.resilience.base import ExecutionPlan, ResilienceTechnique
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.workload.application import Application


@dataclass(frozen=True)
class SingleAppConfig:
    """Environment for a Sec. V-style run.

    Attributes
    ----------
    node_mtbf_s:
        Per-node MTBF (10 years in Figs. 1-2; 2.5 years in Fig. 3).
    severity_pmf:
        Optional override of the failure-severity PMF.
    max_time_factor:
        Walltime cap as a multiple of the (inflated) failure-free
        execution time; runs that thrash past the cap are reported
        uncompleted with the cap as their elapsed time, which drives
        their efficiency toward zero — the paper's Fig. 3 Checkpoint
        Restart behaviour ("unable to even complete execution").
    seed:
        Root seed; trial *i* derives an independent child stream.
    burst:
        Optional spatially-correlated failure model (extension; the
        paper's independent single-node failures when None).
    interarrival:
        Optional failure-interarrival regime (see
        :mod:`repro.failures.generator`).  None keeps the paper's
        Poisson process bit-identically; a Weibull/lognormal model
        reshapes the renewal gaps at the same mean rate.  Non-
        memoryless regimes invalidate the first-order analytic model —
        :func:`repro.analysis.validation.analytic_inapplicability`
        reports why.
    stream_key:
        When None (the default, and what every figure uses), trial *i*
        draws the same failure realisation in every cell — the paper's
        common-random-numbers discipline that lets techniques be
        compared pairwise.  Setting a per-cell key derives seeds unique
        to each (cell, trial) pair instead, making replications fully
        independent across cells.
    """

    node_mtbf_s: float = DEFAULT_NODE_MTBF_S
    severity_pmf: Optional[tuple] = None
    max_time_factor: float = 20.0
    seed: int = 2017
    burst: Optional["BurstModel"] = None
    interarrival: Optional[InterarrivalModel] = None
    stream_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.node_mtbf_s <= 0:
            raise ValueError(f"node_mtbf_s must be > 0, got {self.node_mtbf_s}")
        if self.max_time_factor <= 1:
            raise ValueError(
                f"max_time_factor must be > 1, got {self.max_time_factor}"
            )

    def severity_model(self) -> SeverityModel:
        """The configured severity model (default when pmf is None)."""
        if self.severity_pmf is None:
            return SeverityModel.default()
        return SeverityModel.from_probabilities(self.severity_pmf)


def simulation_call_count() -> int:
    """Number of single-app simulations run on this process's behalf.

    Read from the process's counter registry (each
    :func:`simulate_application` counts one); the parallel executor
    merges worker-side counts back, so a warm-cache rerun provably
    performs zero simulation work even across worker processes."""
    return counter_value("single_app.simulations")


def failure_driver(
    sim: Simulator, target: Process, generator: AppFailureGenerator
) -> Generator:
    """Process that interrupts *target* with each generated failure."""
    while True:
        gap = generator.next_interarrival()
        yield sim.timeout(gap)
        if not target.alive:
            return
        target.interrupt(generator.failure_at(sim.now))


class FailureDriver:
    """:func:`failure_driver` plus a queryable next-failure horizon.

    Drives exactly the same process body (same RNG draw order, same
    kernel event sequence) but records the absolute wake time of the
    pending gap, which :meth:`next_fire_time` exposes for the execution
    engine's closed-form fast path.  The horizon is updated
    synchronously right after each interrupt is issued — before the
    driver re-yields — so the engine's failure handler already sees the
    next horizon when it resumes.
    """

    def __init__(
        self, sim: Simulator, target: Process, generator: AppFailureGenerator
    ) -> None:
        self._sim = sim
        self._target = target
        self._generator = generator
        # Draw the first gap eagerly so the horizon is known before the
        # engine's first fast-path check; the driver process then yields
        # this pre-drawn gap, keeping the draw order of failure_driver().
        self._next_gap = generator.next_interarrival()
        self._next_fire = sim.now + self._next_gap
        self.process = sim.process(self._run(), name="failures")

    def next_fire_time(self) -> Optional[float]:
        """Absolute simulated time of the next failure interrupt."""
        return self._next_fire

    def _run(self) -> Generator:
        sim = self._sim
        generator = self._generator
        while True:
            yield sim.timeout(self._next_gap)
            if not self._target.alive:
                self._next_fire = None
                return
            self._target.interrupt(generator.failure_at(sim.now))
            self._next_gap = generator.next_interarrival()
            self._next_fire = sim.now + self._next_gap


def simulate_application(
    app: Application,
    technique: ResilienceTechnique,
    system: HPCSystem,
    config: Optional[SingleAppConfig] = None,
    trial: int = 0,
    sinks: Optional[Sequence[Sink]] = None,
    plan: Optional[ExecutionPlan] = None,
) -> ExecutionStats:
    """Run one trial; returns the execution stats.

    *sinks* are attached to the simulation's instrumentation bus before
    the run (instrumentation is passive: any sink configuration,
    including none, produces bit-identical stats).

    *plan* short-circuits technique planning: callers running many
    trials of one configuration (:func:`run_trials`) compute the plan
    once and pass it in.  Planning is a pure function of
    ``(app, system, config)`` and the plan is immutable, so a hoisted
    plan is indistinguishable from a per-trial one.

    Raises :class:`ValueError` when the technique cannot fit the
    application on the system at all (the redundancy wall of Sec. V) —
    callers that want "zero efficiency" semantics should check
    ``technique.fits(app, system)`` first (as
    :func:`run_trials` does).
    """
    config = config or SingleAppConfig()
    if plan is None:
        plan = technique.plan(
            app, system, config.node_mtbf_s, severity=config.severity_model()
        )
    if config.stream_key is None:
        streams = StreamFactory(config.seed).spawn_indexed(trial)
    else:
        streams = StreamFactory(config.seed).for_trial(config.stream_key, trial)
    failure_rng = streams.stream("failures")

    def drive_failures(sim, proc, engine):
        generator = AppFailureGenerator(
            failure_rng,
            nodes=plan.nodes_required,
            node_mtbf_s=config.node_mtbf_s,
            severity=config.severity_model(),
            burst=config.burst,
            interarrival=config.interarrival,
        )
        driver = FailureDriver(sim, proc, generator)
        engine.set_failure_horizon(driver.next_fire_time)

    cap = config.max_time_factor * plan.effective_work_s
    return simulate_plan(
        plan, technique.name, cap, drive_failures, trial=trial, sinks=sinks
    )


def simulate_plan(
    plan: ExecutionPlan,
    technique_name: str,
    cap: float,
    drive_failures: Callable[[Simulator, Process, ResilientExecution], None],
    trial: int = 0,
    sinks: Optional[Sequence[Sink]] = None,
) -> ExecutionStats:
    """Run *plan* alone until it completes or the walltime *cap*: the
    trial wiring every single-application entry point shares.

    Attaches *sinks* and the thread's activated live sinks to the
    simulation's bus, counts the trial in :mod:`repro.obs.counters`,
    and brackets its event stream with :class:`TrialStarted` and
    :class:`TrialFinished` (scope ``single_app``).  *drive_failures*
    receives ``(sim, process, engine)`` once the engine's process
    exists and starts the failure source that interrupts it.
    """
    app = plan.app
    sim = Simulator()
    for sink in sinks or ():
        sink.attach(sim.bus)
    # Thread-locally activated live sinks (the telemetry feed of a
    # watched service job); a no-op when nothing is activated.
    live.attach_current(sim.bus)
    increment("single_app.simulations")
    sim.bus.publish(
        TrialStarted(
            time=0.0,
            scope="single_app",
            app_id=app.app_id,
            technique=technique_name,
            trial=trial,
        )
    )
    engine = ResilientExecution(sim, plan, until=cap)
    proc = sim.process(engine.run(), name=f"app-{app.app_id}")
    drive_failures(sim, proc, engine)
    sim.run(until=cap)
    stats = engine.stats
    if not stats.completed:
        stats.end_time = cap
    sim.bus.publish(
        TrialFinished(
            time=sim.now,
            scope="single_app",
            app_id=app.app_id,
            technique=technique_name,
            trial=trial,
            completed=stats.completed,
        )
    )
    increment("single_app.completed")
    return stats


@dataclass
class TrialSet:
    """Efficiencies of repeated trials of one configuration."""

    app: Application
    technique_name: str
    efficiencies: List[float] = field(default_factory=list)
    stats: List[ExecutionStats] = field(default_factory=list)
    #: True when the technique could not fit on the machine (redundancy
    #: above its size wall): efficiency is defined as zero.
    infeasible: bool = False

    @property
    def mean_efficiency(self) -> float:
        """Mean efficiency over trials (0 when infeasible)."""
        if self.infeasible or not self.efficiencies:
            return 0.0
        return float(np.mean(self.efficiencies))

    @property
    def std_efficiency(self) -> float:
        """Sample standard deviation of the trial efficiencies."""
        if self.infeasible or len(self.efficiencies) < 2:
            return 0.0
        return float(np.std(self.efficiencies, ddof=1))


def run_trials(
    app: Application,
    technique: ResilienceTechnique,
    system: HPCSystem,
    trials: int,
    config: Optional[SingleAppConfig] = None,
    keep_stats: bool = False,
    sinks: Optional[Sequence[Sink]] = None,
    first_trial: int = 0,
) -> TrialSet:
    """Run *trials* independent replications (a Fig. 1-3 bar).

    *sinks* are attached to every trial's bus in turn, so one sink
    accumulates the cell's whole event stream in trial order.

    *first_trial* offsets the trial indices that seed each replication:
    trial ``i`` of a cell is a pure function of ``(seed, i)``, so
    running trials ``[k, k + trials)`` reproduces exactly that slice of
    an exhaustive run — the adaptive campaign controller uses this to
    submit a cell's trial budget in batches whose concatenation is
    byte-identical to a single full run.

    When the technique cannot fit the application on the machine the
    result is marked infeasible with zero efficiency, matching the
    paper's treatment of redundancy at large application sizes.
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if first_trial < 0:
        raise ValueError(f"first_trial must be >= 0, got {first_trial}")
    result = TrialSet(app=app, technique_name=technique.name)
    if not technique.fits(app, system):
        result.infeasible = True
        return result
    effective = config or SingleAppConfig()
    plan = technique.plan(
        app, system, effective.node_mtbf_s, severity=effective.severity_model()
    )
    for trial in range(first_trial, first_trial + trials):
        stats = simulate_application(
            app, technique, system, config, trial=trial, sinks=sinks, plan=plan
        )
        result.efficiencies.append(stats.efficiency())
        if keep_stats:
            result.stats.append(stats)
    return result
