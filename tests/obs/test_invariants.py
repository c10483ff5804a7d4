"""Event-stream invariants over real simulations.

These tests run full single-application and datacenter simulations
with recording sinks attached and check that the published event
stream is internally consistent and agrees with the stats the
simulation reports — the "one source of truth" property of the bus.
"""

import pytest

from repro.core.datacenter import DatacenterConfig, run_datacenter
from repro.core.single_app import SingleAppConfig, simulate_application
from repro.core.selection import FixedSelector
from repro.experiments.runner import generate_patterns
from repro.experiments.config import DatacenterStudyConfig
from repro.obs.events import (
    ActivitySpan,
    CheckpointFailed,
    CheckpointTaken,
    ExecutionCompleted,
    ExecutionStarted,
    FailureInjected,
    JobArrived,
    JobCompleted,
    JobDropped,
    JobMapped,
    ReplicaAbsorbed,
    RestartStarted,
    TrialFinished,
    TrialStarted,
)
from repro.obs.sinks import MetricsSink, RecordingSink
from repro.resilience.registry import get_technique
from repro.rm.registry import make_manager
from repro.rng.streams import StreamFactory
from repro.units import HOUR
from repro.workload.patterns import PatternBias
from repro.workload.synthetic import make_application

#: A failure-heavy configuration: low MTBF so several failures land.
FAILURE_HEAVY = SingleAppConfig(node_mtbf_s=200 * HOUR, seed=99)


def _run(technique_name, small_system, config=FAILURE_HEAVY, trial=0):
    app = make_application("A32", nodes=120, time_steps=60)
    technique = get_technique(technique_name)
    recording = RecordingSink()
    metrics = MetricsSink()
    stats = simulate_application(
        app,
        technique,
        small_system,
        config,
        trial=trial,
        sinks=(recording, metrics),
    )
    return stats, recording, metrics


class TestSingleAppInvariants:
    @pytest.mark.parametrize(
        "technique_name",
        ["checkpoint_restart", "multilevel", "parallel_recovery", "redundancy_r2"],
    )
    def test_stats_equal_event_stream(self, small_system, technique_name):
        stats, recording, metrics = _run(technique_name, small_system)
        assert stats.failures == metrics.count(FailureInjected)
        assert stats.replica_failures_absorbed == metrics.count(ReplicaAbsorbed)
        restarts = [
            e for e in recording.of_type(RestartStarted) if not e.retry
        ]
        assert stats.restarts == len(restarts)
        assert stats.total_checkpoints == metrics.count(CheckpointTaken)
        assert stats.failed_checkpoints == metrics.count(CheckpointFailed)
        assert metrics.count(ExecutionStarted) == 1
        assert metrics.count(ExecutionCompleted) == (1 if stats.completed else 0)

    @pytest.mark.parametrize(
        "technique_name", ["checkpoint_restart", "multilevel", "parallel_recovery"]
    )
    def test_run_is_failure_heavy(self, small_system, technique_name):
        stats, _, _ = _run(technique_name, small_system)
        assert stats.failures > 0  # otherwise the invariants test nothing

    @pytest.mark.parametrize(
        "technique_name",
        ["checkpoint_restart", "multilevel", "parallel_recovery", "redundancy_r2"],
    )
    def test_every_failure_answered(self, small_system, technique_name):
        """Each FailureInjected is immediately followed by the engine's
        response: a RestartStarted or a ReplicaAbsorbed."""
        _, recording, _ = _run(technique_name, small_system)
        events = recording.events
        for i, event in enumerate(events):
            if not isinstance(event, FailureInjected):
                continue
            responses = [
                e
                for e in events[i + 1 :]
                if isinstance(e, (RestartStarted, ReplicaAbsorbed))
            ]
            assert responses, f"failure at index {i} never answered"
            assert responses[0].time >= event.time

    def test_activity_spans_match_stats_accumulators(self, small_system):
        stats, recording, metrics = _run("multilevel", small_system)
        technique = "multilevel"
        assert metrics.activity_seconds(technique, "work") == pytest.approx(
            stats.work_time_s
        )
        assert metrics.activity_seconds(technique, "recovery") == pytest.approx(
            stats.rework_time_s
        )
        assert metrics.activity_seconds(technique, "checkpoint") == pytest.approx(
            stats.checkpoint_time_s
        )
        assert metrics.activity_seconds(technique, "restart") == pytest.approx(
            stats.restart_time_s
        )

    def test_spans_are_positive_and_ordered(self, small_system):
        _, recording, _ = _run("checkpoint_restart", small_system)
        spans = recording.of_type(ActivitySpan)
        assert spans
        for span in spans:
            assert span.end > span.start
            assert span.time == span.end

    def test_trial_markers_bracket_the_stream(self, small_system):
        _, recording, _ = _run("checkpoint_restart", small_system)
        events = recording.events
        assert isinstance(events[0], TrialStarted)
        assert isinstance(events[-1], TrialFinished)
        assert events[0].scope == "single_app"


@pytest.fixture(scope="module")
def datacenter_run():
    """One full datacenter pattern with a recording sink attached."""
    config = DatacenterStudyConfig(
        patterns=1, arrivals_per_pattern=40, system_nodes=1_200, seed=7
    )
    pattern = generate_patterns(config, PatternBias.UNBIASED)[0]
    from repro.platform.presets import exascale_system

    system = exascale_system(config.system_nodes)
    manager = make_manager("fcfs", StreamFactory(7).fresh("rm"))
    selector = FixedSelector(get_technique("checkpoint_restart"))
    recording = RecordingSink()
    result = run_datacenter(
        pattern,
        manager,
        selector,
        system,
        DatacenterConfig(seed=7),
        sinks=(recording,),
    )
    return result, recording


class TestDatacenterInvariants:
    def test_dropped_events_equal_dropped_numerator(self, datacenter_run):
        """Non-fill JobDropped events equal the numerator of the
        Figs. 4-5 dropped percentage."""
        result, recording = datacenter_run
        dropped_events = [
            e for e in recording.of_type(JobDropped) if not e.is_fill
        ]
        numerator = sum(r.dropped for r in result.arriving_records())
        assert len(dropped_events) == numerator
        assert numerator > 0  # the invariant must be exercised

    def test_each_job_dropped_at_most_once(self, datacenter_run):
        _, recording = datacenter_run
        dropped_ids = [e.app_id for e in recording.of_type(JobDropped)]
        assert len(dropped_ids) == len(set(dropped_ids))

    def test_every_arrival_resolves(self, datacenter_run):
        """Every arrived job is eventually mapped+completed or dropped."""
        _, recording = datacenter_run
        arrived = {e.app_id for e in recording.of_type(JobArrived)}
        completed = {e.app_id for e in recording.of_type(JobCompleted)}
        dropped = {e.app_id for e in recording.of_type(JobDropped)}
        # Completed-but-late jobs appear in both sets; that is expected.
        assert arrived == (completed | dropped)

    def test_mapped_jobs_were_pending_first(self, datacenter_run):
        _, recording = datacenter_run
        arrived = {e.app_id for e in recording.of_type(JobArrived)}
        mapped = {e.app_id for e in recording.of_type(JobMapped)}
        assert mapped <= arrived

    def test_completion_count_matches_records(self, datacenter_run):
        result, recording = datacenter_run
        assert len(recording.of_type(JobCompleted)) == result.completed_count


def _order_violations(events):
    """Adjacent pairs within a trial whose ``(time, app_id)`` decreases
    (trial markers excluded)."""
    violations = 0
    last = None
    for event in events:
        if isinstance(event, (TrialStarted, TrialFinished)):
            last = None
            continue
        key = (event.time, event.app_id)
        if last is not None and key < last:
            violations += 1
        last = key
    return violations


class TestEventOrder:
    """Within each trial, ``(time, app_id)`` never decreases: the one
    event order that does not depend on the execution path."""

    def test_datacenter_stream_ordered(self, datacenter_run):
        _, recording = datacenter_run
        assert len(recording.of_type(JobMapped)) > 1  # many jobs interleave
        assert _order_violations(recording.events) == 0

    def test_single_app_stream_ordered(self, small_system):
        _, recording, _ = _run("multilevel", small_system)
        assert recording.events
        assert _order_violations(recording.events) == 0
