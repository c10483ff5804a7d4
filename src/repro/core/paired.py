"""Paired technique comparison with common random numbers.

The Sec. V bars compare techniques across *independent* failure
realizations, so small efficiency differences need many trials to
resolve.  This module drives every technique with the *same* failure
trace per trial (see :mod:`repro.failures.trace`), which cancels the
realization noise out of the difference — the classic common-random-
numbers variance-reduction — and reports per-trial paired differences
with a significance test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from repro.core.execution import ExecutionStats
from repro.core.single_app import SingleAppConfig, simulate_plan
from repro.experiments.stats import SummaryStats, paired_summary
from repro.failures.trace import FailureTrace, record_trace
from repro.obs.sinks import Sink
from repro.platform.system import HPCSystem
from repro.resilience.base import ResilienceTechnique
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.workload.application import Application


def trace_replay_driver(
    sim: Simulator, target: Process, trace: FailureTrace, nodes: int
) -> Generator:
    """Process that replays *trace* (scaled to *nodes*) into *target*."""
    last = 0.0
    for failure in trace.scaled(nodes):
        gap = failure.time - last
        last = failure.time
        if gap > 0:
            yield sim.timeout(gap)
        if not target.alive:
            return
        target.interrupt(failure)


def simulate_with_trace(
    app: Application,
    technique: ResilienceTechnique,
    system: HPCSystem,
    trace: FailureTrace,
    config: Optional[SingleAppConfig] = None,
    sinks: Optional[Sequence[Sink]] = None,
) -> ExecutionStats:
    """One execution of *app* under *technique* against *trace*.

    Wired, counted and bracketed with trial markers (trial 0) like
    every other single-app trial (:func:`~repro.core.single_app
    .simulate_plan`); *sinks* and the thread's activated live sinks
    attach to the simulation's bus."""
    config = config or SingleAppConfig()
    plan = technique.plan(
        app, system, config.node_mtbf_s, severity=config.severity_model()
    )
    cap = min(
        config.max_time_factor * plan.effective_work_s,
        trace.scaled_horizon(plan.nodes_required),
    )

    def replay(sim, proc, _engine):
        sim.process(
            trace_replay_driver(sim, proc, trace, plan.nodes_required),
            name="trace-replay",
        )

    return simulate_plan(plan, technique.name, cap, replay, sinks=sinks)


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a common-random-numbers comparison."""

    app: Application
    efficiencies: Dict[str, SummaryStats]
    #: Per-trial efficiency samples by technique name.
    samples: Dict[str, tuple]

    def difference(self, a: str, b: str):
        """Paired summary of technique *a* minus technique *b*."""
        return paired_summary(self.samples[a], self.samples[b])

    def best(self) -> str:
        """Technique name with the highest mean efficiency."""
        return max(self.efficiencies, key=lambda n: self.efficiencies[n].mean)


def paired_compare(
    app: Application,
    techniques: Sequence[ResilienceTechnique],
    system: HPCSystem,
    trials: int = 10,
    config: Optional[SingleAppConfig] = None,
) -> PairedComparison:
    """Compare *techniques* on *app* with one shared failure trace per
    trial.

    Traces are recorded long enough for the slowest plausible execution
    (the walltime cap times the largest node requirement among the
    candidates).
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    config = config or SingleAppConfig()
    severity = config.severity_model()
    max_nodes = max(t.nodes_required(app) for t in techniques)
    # Unit-time horizon: cap * max inflation is bounded by 2x baseline
    # inflation; be generous.
    unit_horizon = (
        config.max_time_factor * app.baseline_time * 2.0 * max_nodes
    )
    streams = StreamFactory(config.seed)
    samples: Dict[str, List[float]] = {t.name: [] for t in techniques}
    for trial in range(trials):
        rng = streams.fresh(f"trace-{trial}")
        trace = record_trace(
            rng, config.node_mtbf_s, unit_horizon, severity=severity
        )
        for technique in techniques:
            stats = simulate_with_trace(app, technique, system, trace, config)
            samples[technique.name].append(stats.efficiency())
    return PairedComparison(
        app=app,
        efficiencies={
            name: SummaryStats.from_samples(values)
            for name, values in samples.items()
        },
        samples={name: tuple(values) for name, values in samples.items()},
    )
