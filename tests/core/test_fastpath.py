"""Equivalence tests for the failure-horizon fast path.

The fast path (closed-form event skipping between failures) must be
invisible: every statistic and every published domain event identical
to the stepped event-by-event path, whatever sinks observe the run.
See docs/PERFORMANCE.md for the exactness argument these tests
enforce.
"""

import math

import pytest

import repro.core.execution as execution
from repro.core.datacenter import DatacenterConfig, run_datacenter
from repro.core.execution import ResilientExecution
from repro.core.selection import FixedSelector
from repro.core.single_app import (
    FailureDriver,
    SingleAppConfig,
    simulate_application,
)
from repro.failures.generator import AppFailureGenerator, Failure
from repro.obs.sinks import RecordingSink, TimelineSink
from repro.platform.presets import exascale_system
from repro.resilience import get_technique, scaling_study_techniques
from repro.resilience.base import CheckpointLevel, ExecutionPlan
from repro.rm.fcfs import FCFS
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.sim.resources import SlotPool
from repro.units import years
from repro.workload.patterns import PatternGenerator
from repro.workload.synthetic import make_application

HOUR = 3600.0


def _stats_tuple(stats):
    """Every observable field, for exact (bitwise) comparison."""
    return (
        stats.start_time,
        stats.end_time,
        stats.completed,
        stats.failures,
        stats.restarts,
        stats.replica_failures_absorbed,
        dict(stats.checkpoints_taken),
        stats.failed_checkpoints,
        stats.work_time_s,
        stats.rework_time_s,
        stats.checkpoint_time_s,
        stats.restart_time_s,
        stats.resource_wait_s,
    )


def _assert_same_stats(a, b):
    ta, tb = _stats_tuple(a), _stats_tuple(b)
    # NaN-aware exact compare (end_time is NaN for uncompleted runs
    # until the cap is stamped on).
    for va, vb in zip(ta, tb):
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb)
        else:
            assert va == vb, (ta, tb)


def _wired_run(
    technique,
    fast,
    monkeypatch,
    *,
    system_nodes=1_200,
    app_nodes=120,
    time_steps=60,
    app_type="A32",
    mtbf=200 * HOUR,
    trial=0,
    seed=99,
    sinks=None,
    resources=None,
    horizon=True,
):
    """One single-app trial with direct access to sim and engine."""
    monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
    system = exascale_system(total_nodes=system_nodes)
    app = make_application(app_type, nodes=app_nodes, time_steps=time_steps)
    cfg = SingleAppConfig(node_mtbf_s=mtbf, seed=seed)
    plan = technique.plan(
        app, system, cfg.node_mtbf_s, severity=cfg.severity_model()
    )
    sim = Simulator()
    if sinks:
        for sink in sinks:
            sink.attach(sim.bus)
    cap = cfg.max_time_factor * plan.effective_work_s
    engine = ResilientExecution(sim, plan, until=cap, resources=resources)
    proc = sim.process(engine.run(), name="app")
    generator = AppFailureGenerator(
        StreamFactory(cfg.seed).spawn_indexed(trial).stream("failures"),
        nodes=plan.nodes_required,
        node_mtbf_s=cfg.node_mtbf_s,
        severity=cfg.severity_model(),
    )
    driver = FailureDriver(sim, proc, generator)
    if horizon:
        engine.set_failure_horizon(driver.next_fire_time)
    sim.run(until=cap)
    if not engine.stats.completed:
        engine.stats.end_time = cap
    return sim, engine


class TestSingleAppBitIdentity:
    @pytest.mark.parametrize(
        "name", [t.name for t in scaling_study_techniques()]
    )
    def test_identical_across_techniques_and_trials(self, name, monkeypatch):
        technique = get_technique(name)
        engaged = 0
        for trial in range(5):
            _, slow = _wired_run(technique, False, monkeypatch, trial=trial)
            _, fast = _wired_run(technique, True, monkeypatch, trial=trial)
            assert slow.fast_jumps == 0
            engaged += fast.fast_jumps
            _assert_same_stats(slow.stats, fast.stats)
        assert engaged > 0  # the fast path actually ran

    def test_identical_under_heavy_failures(self, monkeypatch):
        technique = get_technique("multilevel")
        for trial in range(3):
            _, slow = _wired_run(
                technique, False, monkeypatch, mtbf=20 * HOUR, trial=trial
            )
            _, fast = _wired_run(
                technique, True, monkeypatch, mtbf=20 * HOUR, trial=trial
            )
            assert fast.stats.failures > 0
            _assert_same_stats(slow.stats, fast.stats)

    def test_public_api_identical(self, monkeypatch):
        system = exascale_system(total_nodes=1_200)
        app = make_application("A32", nodes=120, time_steps=60)
        cfg = SingleAppConfig(node_mtbf_s=100 * HOUR, seed=7)
        technique = get_technique("checkpoint_restart")
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", False)
        slow = simulate_application(app, technique, system, cfg, trial=1)
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        fast = simulate_application(app, technique, system, cfg, trial=1)
        _assert_same_stats(slow, fast)


class TestEventCountReduction:
    def test_fig1_style_c32_cell(self, monkeypatch):
        """Acceptance cell: C32 at a 2.5-year node MTBF must run on at
        least 5x fewer kernel events with bit-identical stats."""
        technique = get_technique("multilevel")
        kwargs = dict(
            system_nodes=120_000,
            app_nodes=30_000,
            time_steps=1440,
            app_type="C32",
            mtbf=years(2.5),
        )
        slow_sim, slow = _wired_run(technique, False, monkeypatch, **kwargs)
        fast_sim, fast = _wired_run(technique, True, monkeypatch, **kwargs)
        _assert_same_stats(slow.stats, fast.stats)
        assert fast.fast_jumps > 0
        assert slow_sim.event_count >= 5 * fast_sim.event_count


def _toy_plan(
    time_steps=10, levels=None, recovery_speedup=1.0, blocking_fraction=1.0
):
    app = make_application("A32", nodes=4, time_steps=time_steps)
    if levels is None:
        levels = (
            CheckpointLevel(
                index=1,
                recovers_severity=3,
                cost_s=10.0,
                restart_s=20.0,
                period_s=100.0,
                blocking_fraction=blocking_fraction,
            ),
        )
    return ExecutionPlan(
        app=app,
        technique="test",
        work_rate=1.0,
        levels=levels,
        nodes_required=4,
        recovery_speedup=recovery_speedup,
    )


def _deterministic_run(sim, plan, failures, *, horizon=None, sink=None):
    """Run *plan* injecting failures at fixed instants; a *horizon*
    callable turns the fast path on (use a lying one to force replay).
    A *sink* is attached to the simulator's bus first."""
    if sink is not None:
        sink.attach(sim.bus)
    engine = ResilientExecution(sim, plan, failure_horizon=horizon, until=1e9)
    proc = sim.process(engine.run(), name="app")
    for time, severity in failures:
        sim.schedule_at(
            time,
            lambda _e, s=severity: proc.interrupt(
                Failure(time=sim.now, node_id=0, severity=s)
            )
            if proc.alive
            else None,
        )
    sim.run(until=1e9)
    return engine


def _two_levels(blocking_fraction):
    """A 10 s level every 100 s under a 120 s level every 200 s.  At
    blocking 0.25 the upper level's 90 s background write outlasts a
    rework iteration at recovery speedup 2, so the next checkpoint
    voids it instead of committing it."""
    return tuple(
        CheckpointLevel(
            index=index,
            recovers_severity=severity,
            cost_s=cost,
            restart_s=restart,
            period_s=period,
            blocking_fraction=blocking_fraction,
        )
        for index, severity, cost, restart, period in (
            (1, 1, 10.0, 20.0, 100.0),
            (2, 3, 120.0, 60.0, 200.0),
        )
    )


#: (blocking fraction, recovery speedup, level count) variants of the
#: toy plan: semi-blocking levels drive the pending-commit settle and
#: void branches of jumps and replays, speedup 2 shortens rework
#: segments, and two levels mix boundary levels inside one jump.
VARIANTS = [
    pytest.param(blocking, speedup, levels, id=f"b{blocking}-x{speedup}-{levels}lvl")
    for blocking in (0.25, 1.0)
    for speedup in (1.0, 2.0)
    for levels in (1, 2)
]


def _variant_plan(blocking, speedup, levels, time_steps=10):
    return _toy_plan(
        time_steps,
        _two_levels(blocking) if levels == 2 else None,
        speedup,
        blocking,
    )


#: Failure instants against the one-level toy plan, whose iterations
#: end at 110, 220, ... (100 s work + 10 s checkpoint).
FAIL_AT = [
    50.0,  # mid work segment
    100.0,  # exactly at a work-segment end (wake instant)
    105.0,  # mid checkpoint
    110.0,  # exactly at a checkpoint end (wake instant)
    330.0,  # exactly at a later iteration boundary
    424.5,  # late, mid segment
]

#: Failure schedules that strike during rework and restarts.
RECOVERY_SCHEDULES = (
    [(150.0, 1), (175.0, 1)],
    [(90.0, 1), (130.0, 1), (220.0, 2), (500.0, 1)],
    [(450.0, 3), (520.0, 1), (560.0, 1), (700.0, 2)],
)


def _stepped_spans(plan):
    """``(start, end, activity)`` spans of a failure-free stepped run;
    every span end is a kernel wake instant a failure can tie with."""
    sim = Simulator()
    timeline = TimelineSink()
    timeline.attach(sim.bus)
    engine = ResilientExecution(sim, plan, until=1e9)
    sim.process(engine.run(), name="app")
    sim.run(until=1e9)
    return timeline.spans


class TestReplayOnInterrupt:
    """A stale horizon means interrupts can land mid-jump; the engine
    must restore its pre-jump snapshot and replay to the interrupt
    instant exactly.  A provider that always claims "no failure ever"
    makes every injected failure land mid-jump."""

    LIAR = staticmethod(lambda: None)

    @pytest.mark.parametrize("fail_at", FAIL_AT)
    def test_single_failure_matches_stepped(self, fail_at, monkeypatch):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        failures = [(fail_at, 1)]
        stepped = _deterministic_run(Simulator(), _toy_plan(), failures)
        fast = _deterministic_run(
            Simulator(), _toy_plan(), failures, horizon=self.LIAR
        )
        assert stepped.fast_jumps == 0
        assert fast.fast_jumps > 0
        _assert_same_stats(stepped.stats, fast.stats)

    def test_repeated_failures_match_stepped(self, monkeypatch):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        failures = [(90.0, 1), (130.0, 1), (220.0, 2), (500.0, 1)]
        stepped = _deterministic_run(
            Simulator(), _toy_plan(time_steps=20), failures
        )
        fast = _deterministic_run(
            Simulator(), _toy_plan(time_steps=20), failures, horizon=self.LIAR
        )
        assert fast.stats.failures == 4
        _assert_same_stats(stepped.stats, fast.stats)

    def test_recovery_speedup_replay(self, monkeypatch):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        # A failure during parallel recovery's sped-up rework.
        failures = [(150.0, 1), (175.0, 1)]
        stepped = _deterministic_run(
            Simulator(), _toy_plan(recovery_speedup=2.0), failures
        )
        fast = _deterministic_run(
            Simulator(),
            _toy_plan(recovery_speedup=2.0),
            failures,
            horizon=self.LIAR,
        )
        assert fast.stats.rework_time_s > 0
        _assert_same_stats(stepped.stats, fast.stats)

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_failure_at_wake_instants_and_midpoints(
        self, blocking, speedup, levels, monkeypatch
    ):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        plan = _variant_plan(blocking, speedup, levels)
        for start, end, _activity in _stepped_spans(plan)[:8]:
            for fail_at in (end, (start + end) / 2):
                for severity in (1, 3):
                    failures = [(fail_at, severity)]
                    stepped = _deterministic_run(Simulator(), plan, failures)
                    fast = _deterministic_run(
                        Simulator(), plan, failures, horizon=self.LIAR
                    )
                    assert fast.fast_jumps > 0
                    _assert_same_stats(stepped.stats, fast.stats)

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_failures_during_recovery(
        self, blocking, speedup, levels, monkeypatch
    ):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        plan = _variant_plan(blocking, speedup, levels, time_steps=20)
        for failures in RECOVERY_SCHEDULES:
            stepped = _deterministic_run(Simulator(), plan, failures)
            fast = _deterministic_run(
                Simulator(), plan, failures, horizon=self.LIAR
            )
            assert fast.stats.failures == len(failures)
            assert fast.stats.rework_time_s > 0
            _assert_same_stats(stepped.stats, fast.stats)


class TestObservedReplay:
    """Observed runs jump too.  A lying horizon makes every failure land
    mid-jump, so the published stream must drop the speculative part
    and equal the stepped path's event for event."""

    def _assert_same_events(self, plan, failures):
        stepped_sink, fast_sink = RecordingSink(), RecordingSink()
        stepped = _deterministic_run(Simulator(), plan, failures, sink=stepped_sink)
        fast = _deterministic_run(
            Simulator(),
            plan,
            failures,
            horizon=TestReplayOnInterrupt.LIAR,
            sink=fast_sink,
        )
        assert fast.fast_jumps > 0
        assert fast_sink.events == stepped_sink.events
        _assert_same_stats(stepped.stats, fast.stats)

    @pytest.mark.parametrize("fail_at", FAIL_AT)
    def test_single_failure_events_match_stepped(self, fail_at, monkeypatch):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        self._assert_same_events(_toy_plan(), [(fail_at, 1)])

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_events_at_wake_instants_and_midpoints(
        self, blocking, speedup, levels, monkeypatch
    ):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        plan = _variant_plan(blocking, speedup, levels)
        for start, end, _activity in _stepped_spans(plan)[:8]:
            for fail_at in (end, (start + end) / 2):
                for severity in (1, 3):
                    self._assert_same_events(plan, [(fail_at, severity)])

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_events_during_recovery(
        self, blocking, speedup, levels, monkeypatch
    ):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        plan = _variant_plan(blocking, speedup, levels, time_steps=20)
        for failures in RECOVERY_SCHEDULES:
            self._assert_same_events(plan, failures)


class TestFallbacks:
    def test_flag_off_forces_stepped(self, monkeypatch):
        technique = get_technique("multilevel")
        _, engine = _wired_run(technique, False, monkeypatch)
        assert engine.fast_jumps == 0

    def test_no_horizon_forces_stepped(self, monkeypatch):
        technique = get_technique("multilevel")
        _, engine = _wired_run(technique, True, monkeypatch, horizon=False)
        assert engine.fast_jumps == 0

    def test_bus_observer_keeps_fast_path(self, monkeypatch):
        technique = get_technique("multilevel")
        stepped_sink = RecordingSink()
        _wired_run(technique, False, monkeypatch, sinks=[stepped_sink])
        sink = RecordingSink()
        _, engine = _wired_run(technique, True, monkeypatch, sinks=[sink])
        assert engine.fast_jumps > 0
        assert sink.events == stepped_sink.events
        # And the observed run still matches the unobserved one.
        _, plain = _wired_run(technique, True, monkeypatch)
        _assert_same_stats(engine.stats, plain.stats)

    def test_timeline_keeps_fast_path(self, monkeypatch):
        technique = get_technique("multilevel")
        fast_timeline = TimelineSink()
        _, fast = _wired_run(
            technique, True, monkeypatch, sinks=[fast_timeline]
        )
        slow_timeline = TimelineSink()
        _wired_run(technique, False, monkeypatch, sinks=[slow_timeline])
        assert fast.fast_jumps > 0
        assert fast_timeline.spans == slow_timeline.spans
        assert fast_timeline.spans  # non-trivial

    def test_contended_pool_forces_stepped(self, monkeypatch):
        # multilevel's top level checkpoints through the shared PFS;
        # handing the engine a pool makes slot waits possible, so the
        # fast path must stay off.
        technique = get_technique("multilevel")
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        sim = Simulator()
        system = exascale_system(total_nodes=1_200)
        app = make_application("A32", nodes=120, time_steps=60)
        plan = technique.plan(app, system, 200 * HOUR)
        pool = SlotPool(sim, 1, name="pfs")
        engine = ResilientExecution(
            sim,
            plan,
            resources={"pfs": pool},
            failure_horizon=lambda: None,
            until=1e9,
        )
        sim.process(engine.run(), name="app")
        sim.run(until=1e9)
        assert engine._contended
        assert engine.fast_jumps == 0
        assert engine.stats.completed


class TestDatacenterBitIdentity:
    NODES = 2_400

    def _run(self, fast, monkeypatch, mtbf):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
        pattern = PatternGenerator(StreamFactory(11), self.NODES).generate(
            0, arrivals=20
        )
        return run_datacenter(
            pattern,
            FCFS(),
            FixedSelector(get_technique("multilevel")),
            exascale_system(self.NODES),
            DatacenterConfig(node_mtbf_s=mtbf),
        )

    def _digest(self, result):
        return (
            result.end_time,
            result.failures_injected,
            result.dropped_pct,
            [
                (
                    r.app.app_id,
                    str(r.status),
                    r.start_time,
                    r.end_time,
                    None if r.stats is None else _stats_tuple(r.stats),
                )
                for r in result.records
            ],
        )

    def test_identical_runs(self, monkeypatch):
        mtbf = years(0.05)  # heavy failure traffic: replay exercised
        slow = self._digest(self._run(False, monkeypatch, mtbf))
        fast = self._digest(self._run(True, monkeypatch, mtbf))
        assert slow[1] > 0  # failures actually injected
        assert slow == fast
