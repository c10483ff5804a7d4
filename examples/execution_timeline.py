#!/usr/bin/env python
"""Visualize one resilient execution as an ASCII timeline.

Runs a single application under each technique in an unreliable
environment (2.5-year node MTBF) with a timeline sink on the
simulator's bus and prints where the wall-clock time went: forward
work, recovery (re-execution of lost work), checkpointing, restarts.

Run:  python examples/execution_timeline.py
"""

from repro.core.execution import ResilientExecution
from repro.core.single_app import SingleAppConfig, failure_driver
from repro.core.timeline import render_timeline
from repro.failures.generator import AppFailureGenerator
from repro.obs.sinks import TimelineSink
from repro.platform.presets import exascale_system
from repro.resilience.checkpoint_restart import CheckpointRestart
from repro.resilience.multilevel import MultilevelCheckpoint
from repro.resilience.parallel_recovery import ParallelRecovery
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.units import years
from repro.workload.synthetic import make_application


def main() -> None:
    system = exascale_system()
    app = make_application("C32", nodes=system.fraction_to_nodes(0.5))
    config = SingleAppConfig(node_mtbf_s=years(2.5), seed=11)

    for technique in (CheckpointRestart(), MultilevelCheckpoint(), ParallelRecovery()):
        plan = technique.plan(
            app, system, config.node_mtbf_s, severity=config.severity_model()
        )
        sim = Simulator()
        timeline = TimelineSink()
        timeline.attach(sim.bus)
        engine = ResilientExecution(sim, plan)
        proc = sim.process(engine.run(), name="app")
        generator = AppFailureGenerator(
            StreamFactory(config.seed).stream("failures"),
            nodes=plan.nodes_required,
            node_mtbf_s=config.node_mtbf_s,
            severity=config.severity_model(),
        )
        sim.process(failure_driver(sim, proc, generator), name="failures")
        sim.run(until=config.max_time_factor * plan.effective_work_s)

        stats = engine.stats
        print(f"=== {technique.name} ===")
        print(
            f"failures {stats.failures}, restarts {stats.restarts}, "
            f"efficiency {stats.efficiency():.3f}"
        )
        print(render_timeline(timeline.spans))
        print()


if __name__ == "__main__":
    main()
