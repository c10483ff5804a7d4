"""Benchmark the failure-horizon fast path: stepped vs. closed-form.

Runs the acceptance cell (C32 at 25% of the exascale machine, 2.5-year
node MTBF, multilevel checkpointing) plus a failure-heavy small cell on
both execution paths, verifies the stats are bit-identical, and records
wall times, kernel event counts, and their ratios in
``BENCH_fastpath.json`` at the repository root.  Each cell also runs
observed (``<cell>_observed``): the ``--trace-out``/``--metrics-out``
sinks are attached on both paths, and their JSONL lines and metrics
join the digest, so any divergence in the exported stream refuses the
write too.  Timing discipline and result schema come from
:mod:`bench_common`, shared with ``bench_datacenter.py``.

Usage::

    PYTHONPATH=src python scripts/bench_fastpath.py [--trials 5]
        [--repeats 3] [--min-speedup X] [--smoke]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import repro.core.execution as execution
from bench_common import measure_pair, write_results
from repro.core.execution import ResilientExecution
from repro.core.single_app import FailureDriver, SingleAppConfig
from repro.failures.generator import AppFailureGenerator
from repro.obs.sinks import JsonlExportSink, MetricsSink
from repro.platform.presets import exascale_system
from repro.resilience.registry import get_technique
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.units import HOUR, years
from repro.workload.synthetic import make_application

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CELLS = {
    "fig1_C32_mtbf2.5y": dict(
        system_nodes=120_000,
        app_nodes=30_000,
        time_steps=1440,
        app_type="C32",
        mtbf_s=years(2.5),
        technique="multilevel",
    ),
    "small_A32_failure_heavy": dict(
        system_nodes=1_200,
        app_nodes=120,
        time_steps=60,
        app_type="A32",
        mtbf_s=20 * HOUR,
        technique="multilevel",
    ),
}

SMOKE_CELLS = {
    "smoke_A32_failure_heavy": dict(
        system_nodes=1_200,
        app_nodes=120,
        time_steps=60,
        app_type="A32",
        mtbf_s=20 * HOUR,
        technique="multilevel",
    ),
}


def _trial(cell: dict, trial: int, fast: bool, observed: bool):
    """One wired single-app trial; returns (seconds, digest, extras).
    *observed* attaches the export and metrics sinks."""
    execution.FAST_PATH_ENABLED = fast
    system = exascale_system(total_nodes=cell["system_nodes"])
    app = make_application(
        cell["app_type"], nodes=cell["app_nodes"], time_steps=cell["time_steps"]
    )
    config = SingleAppConfig(node_mtbf_s=cell["mtbf_s"], seed=99)
    technique = get_technique(cell["technique"])
    plan = technique.plan(
        app, system, config.node_mtbf_s, severity=config.severity_model()
    )
    sim = Simulator()
    sinks = (JsonlExportSink(), MetricsSink()) if observed else ()
    for sink in sinks:
        sink.attach(sim.bus)
    cap = config.max_time_factor * plan.effective_work_s
    engine = ResilientExecution(sim, plan, until=cap)
    proc = sim.process(engine.run(), name="app")
    generator = AppFailureGenerator(
        StreamFactory(config.seed).spawn_indexed(trial).stream("failures"),
        nodes=plan.nodes_required,
        node_mtbf_s=config.node_mtbf_s,
        severity=config.severity_model(),
    )
    driver = FailureDriver(sim, proc, generator)
    engine.set_failure_horizon(driver.next_fire_time)
    started = time.perf_counter()
    sim.run(until=cap)
    elapsed = time.perf_counter() - started
    execution.FAST_PATH_ENABLED = True
    stats = engine.stats
    digest = (
        stats.end_time,
        stats.completed,
        stats.failures,
        stats.restarts,
        sorted(stats.checkpoints_taken.items()),
        stats.failed_checkpoints,
        stats.work_time_s,
        stats.rework_time_s,
        stats.checkpoint_time_s,
        stats.restart_time_s,
    )
    if observed:
        export, metrics = sinks
        digest += (tuple(export.lines), metrics.to_dict())
    extras = {"events": sim.event_count, "jumps": engine.fast_jumps}
    return elapsed, digest, extras


def _bench_cell(
    name: str, cell: dict, trials: int, repeats: int, observed: bool
) -> dict:
    """Aggregate per-trial paired measurements into one cell record."""
    result = {
        "cell": cell,
        "observed": observed,
        "trials": trials,
        "stepped_wall_s": 0.0,
        "fast_wall_s": 0.0,
        "stepped_events": 0,
        "fast_events": 0,
        "fast_jumps": 0,
        "bit_identical": True,
    }
    for trial in range(trials):
        record = measure_pair(
            lambda trial=trial: _trial(cell, trial, False, observed),
            lambda trial=trial: _trial(cell, trial, True, observed),
            repeats=repeats,
        )
        result["stepped_wall_s"] += record["stepped_wall_s"]
        result["fast_wall_s"] += record["fast_wall_s"]
        result["stepped_events"] += record["stepped_events"]
        result["fast_events"] += record["fast_events"]
        result["fast_jumps"] += record["fast_jumps"]
        result["bit_identical"] = result["bit_identical"] and record["bit_identical"]
    result["event_ratio"] = (
        result["stepped_events"] / result["fast_events"]
        if result["fast_events"]
        else None
    )
    result["speedup"] = (
        result["stepped_wall_s"] / result["fast_wall_s"]
        if result["fast_wall_s"]
        else None
    )
    print(
        f"{name}: events {result['stepped_events']} -> {result['fast_events']} "
        f"({result['event_ratio']:.1f}x), "
        f"wall {result['stepped_wall_s'] * 1e3:.1f} ms -> "
        f"{result['fast_wall_s'] * 1e3:.1f} ms ({result['speedup']:.2f}x), "
        f"identical={result['bit_identical']}"
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (and write nothing) when any cell lands below this",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cells for CI: correctness + no-regression, not scale",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_fastpath.json",
    )
    args = parser.parse_args()

    cells = SMOKE_CELLS if args.smoke else CELLS
    records = {
        name + suffix: _bench_cell(
            name + suffix, cell, args.trials, args.repeats, observed
        )
        for name, cell in cells.items()
        for suffix, observed in (("", False), ("_observed", True))
    }
    return write_results(
        args.out,
        "failure-horizon fast path vs stepped execution",
        records,
        min_speedup=args.min_speedup,
        extra={
            "trials_per_cell": args.trials,
            "repeats": args.repeats,
            "smoke": args.smoke,
        },
    )


if __name__ == "__main__":
    raise SystemExit(main())
