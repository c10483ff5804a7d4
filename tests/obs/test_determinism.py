"""Instrumentation is passive: sink configuration never changes results.

The acceptance property of the bus refactor — running a study with no
sinks, with every shipped sink, or with sinks across worker processes
must produce bit-identical numeric results, and the exported JSONL
stream must be byte-identical for any ``--jobs`` value.
"""

import json

from repro.core.single_app import SingleAppConfig, simulate_application
from repro.experiments.config import DatacenterStudyConfig, ScalingStudyConfig
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.runner import run_datacenter_study, run_scaling_study
from repro.core.selection import FixedSelector
from repro.obs.sinks import (
    JsonlExportSink,
    MetricsSink,
    RecordingSink,
    TimelineSink,
)
from repro.resilience.registry import get_technique
from repro.units import HOUR
from repro.workload.synthetic import make_application

SCALING = ScalingStudyConfig(
    app_type="A32",
    fractions=(0.1,),
    trials=3,
    system_nodes=1_200,
    baseline_s=3_600.0,
    seed=11,
)

DATACENTER = DatacenterStudyConfig(
    patterns=1, arrivals_per_pattern=30, system_nodes=1_200, seed=11
)

TECHNIQUES = [get_technique("checkpoint_restart"), get_technique("multilevel")]


def _selectors():
    return {"checkpoint_restart": lambda: FixedSelector(TECHNIQUES[0])}


def _scaling_numbers(result):
    return [
        (c.fraction, c.technique, c.infeasible, c.mean_efficiency)
        for c in result.cells
    ]


def _datacenter_numbers(study):
    return [
        (c.rm_name, c.selector_name, c.bias, c.samples) for c in study.cells
    ]


class TestSingleTrialBitIdentity:
    def test_all_sink_combinations_identical(self, small_system):
        """One failure-heavy trial with none/each/all sinks attached
        reports identical stats."""
        app = make_application("A32", nodes=120, time_steps=60)
        technique = get_technique("multilevel")
        config = SingleAppConfig(node_mtbf_s=200 * HOUR, seed=99)

        def run(sinks):
            stats = simulate_application(
                app, technique, small_system, config, sinks=sinks
            )
            return (
                stats.completed,
                stats.end_time,
                stats.failures,
                stats.restarts,
                stats.total_checkpoints,
                stats.work_time_s,
                stats.rework_time_s,
                stats.checkpoint_time_s,
                stats.restart_time_s,
            )

        baseline = run(None)
        assert baseline[2] > 0  # failure-heavy, or the test is vacuous
        all_sinks = (
            MetricsSink(),
            TimelineSink(),
            JsonlExportSink(),
            RecordingSink(),
        )
        assert run(all_sinks) == baseline
        assert run((MetricsSink(),)) == baseline


class TestScalingStudy:
    def test_observation_and_jobs_preserve_results(self):
        plain = run_scaling_study(SCALING, techniques=TECHNIQUES)
        observed = run_scaling_study(SCALING, techniques=TECHNIQUES, observe=True)
        parallel = run_scaling_study(
            SCALING,
            techniques=TECHNIQUES,
            observe=True,
            options=ExecutorOptions(jobs=2, cache=False),
        )
        numbers = _scaling_numbers(plain)
        assert _scaling_numbers(observed) == numbers
        assert _scaling_numbers(parallel) == numbers
        # The exported stream is byte-identical across jobs values.
        assert observed.trace_lines == parallel.trace_lines
        assert observed.metrics == parallel.metrics
        assert plain.trace_lines is None and plain.metrics is None

    def test_trace_lines_are_valid_jsonl(self):
        observed = run_scaling_study(SCALING, techniques=TECHNIQUES, observe=True)
        assert observed.trace_lines
        events = [json.loads(line) for line in observed.trace_lines]
        kinds = {e["event"] for e in events}
        assert "TrialStarted" in kinds
        assert "ExecutionStarted" in kinds
        assert "ActivitySpan" in kinds
        # Metrics agree with the stream they were computed from.
        counts = observed.metrics["counts"]
        for kind in kinds:
            assert counts[kind] == sum(e["event"] == kind for e in events)


class TestDatacenterStudy:
    def test_observation_and_jobs_preserve_results(self):
        plain, _ = run_datacenter_study(
            DATACENTER, selectors=_selectors(), rm_names=["fcfs"]
        )
        observed, _ = run_datacenter_study(
            DATACENTER, selectors=_selectors(), rm_names=["fcfs"], observe=True
        )
        parallel, _ = run_datacenter_study(
            DATACENTER,
            selectors=_selectors(),
            rm_names=["fcfs"],
            observe=True,
            options=ExecutorOptions(jobs=2, cache=False),
        )
        numbers = _datacenter_numbers(plain)
        assert _datacenter_numbers(observed) == numbers
        assert _datacenter_numbers(parallel) == numbers
        assert observed.trace_lines == parallel.trace_lines
        assert observed.metrics == parallel.metrics

    def test_dropped_events_match_dropped_percentage(self):
        observed, _ = run_datacenter_study(
            DATACENTER, selectors=_selectors(), rm_names=["fcfs"], observe=True
        )
        events = [json.loads(line) for line in observed.trace_lines]
        dropped = [
            e
            for e in events
            if e["event"] == "JobDropped" and not e["is_fill"]
        ]
        (cell,) = observed.cells
        arriving = DATACENTER.arrivals_per_pattern
        expected = sum(
            round(pct * arriving / 100.0) for pct in cell.samples
        )
        assert len(dropped) == expected

    def test_reruns_are_reproducible(self):
        first, _ = run_datacenter_study(
            DATACENTER, selectors=_selectors(), rm_names=["fcfs"], observe=True
        )
        second, _ = run_datacenter_study(
            DATACENTER, selectors=_selectors(), rm_names=["fcfs"], observe=True
        )
        assert first.trace_lines == second.trace_lines
        assert first.metrics == second.metrics
