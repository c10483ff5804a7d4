"""Property-style tests for the greedy datacenter fast path.

Seed-loop randomization over datacenter configurations, deterministic
gate-flip (allocation-change / slot-contention) schedules, and exact
wake-instant failure ties.  The properties under test:

- a greedy jump never lets the engine cross a pending failure or a
  slot wait unobserved — every randomized cell is bit-identical to the
  stepped path, including the pool's contention counters;
- aborted jumps (the gate flipping closed mid-sleep, however the flips
  are scheduled) are invisible: abort + replay reproduces the stepped
  trajectory exactly, including ties at the abort instant;
- failures landing exactly on a folded wake instant take the stepped
  path's branch (failure preempts wake) during replay.
"""

import numpy as np
import pytest

import repro.core.execution as execution
from repro.core.datacenter import DatacenterConfig, DatacenterSimulator
from repro.core.execution import PoolContentionGate, ResilientExecution
from repro.core.selection import FixedSelector
from repro.failures.generator import Failure
from repro.obs.sinks import TimelineSink
from repro.platform.presets import exascale_system
from repro.resilience import get_technique
from repro.resilience.base import CheckpointLevel, ExecutionPlan
from repro.rm.registry import make_manager
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.sim.resources import SlotPool
from repro.units import years
from repro.workload.patterns import PatternBias, PatternGenerator
from repro.workload.synthetic import make_application


def _stats_tuple(stats):
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


class TestSeedLoopRandomCells:
    """Randomized (seeded) datacenter cells: fast == stepped, always."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cell_identical(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        nodes = int(rng.choice([1_200, 2_400, 3_600]))
        arrivals = int(rng.integers(10, 25))
        rm_name = str(rng.choice(["fcfs", "easy", "random", "slack"]))
        pfs = rng.choice([0, 1, 2, 4])
        pfs = None if pfs == 0 else int(pfs)
        mtbf = years(float(rng.choice([0.05, 0.5, 2.0, 10.0])))
        bias = PatternBias(
            str(rng.choice([b.value for b in PatternBias]))
        )
        technique = str(
            rng.choice(["multilevel", "checkpoint_restart", "parallel_recovery"])
        )

        def run(fast):
            monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
            pattern = PatternGenerator(StreamFactory(seed), nodes).generate(
                0, bias=bias, arrivals=arrivals
            )
            simulator = DatacenterSimulator(
                pattern,
                make_manager(rm_name, StreamFactory(seed).fresh(f"rm-{rm_name}")),
                FixedSelector(get_technique(technique)),
                exascale_system(nodes),
                DatacenterConfig(node_mtbf_s=mtbf, seed=seed, pfs_slots=pfs),
            )
            result = simulator.run()
            digest = [
                (
                    record.app.app_id,
                    str(record.status),
                    record.start_time,
                    record.end_time,
                    record.dropped,
                    None
                    if record.stats is None
                    else _stats_tuple(record.stats),
                )
                for record in result.records
            ]
            pool = simulator._resources.get("pfs")
            # Slot waits must be identical too: a jump that crossed a
            # wait would change the pool's contention counters.
            counters = (
                None if pool is None else (pool.contended_requests, pool.queued)
            )
            return result.end_time, result.failures_injected, digest, counters

        assert run(False) == run(True)


def _toy_levels(
    levels=1, blocking_fraction=1.0, cost_s=10.0, period_s=100.0, top_resource=None
):
    """One checkpoint level, or a cheap node-local level under a 12x
    costlier one at twice the period.  The top level recovers every
    severity and writes through *top_resource*.  At blocking 0.25 the
    two-level top write (90 s background remainder) outlasts a rework
    iteration at recovery speedup 2, so the next checkpoint voids it."""
    top = CheckpointLevel(
        index=levels,
        recovers_severity=3,
        cost_s=cost_s if levels == 1 else 12 * cost_s,
        restart_s=2 * cost_s if levels == 1 else 6 * cost_s,
        period_s=levels * period_s,
        blocking_fraction=blocking_fraction,
        shared_resource=top_resource,
    )
    if levels == 1:
        return (top,)
    local = CheckpointLevel(
        index=1,
        recovers_severity=1,
        cost_s=cost_s,
        restart_s=2 * cost_s,
        period_s=period_s,
        blocking_fraction=blocking_fraction,
    )
    return (local, top)


def _toy_plan(time_steps, levels, recovery_speedup):
    return ExecutionPlan(
        app=make_application("A32", nodes=4, time_steps=time_steps),
        technique="test",
        work_rate=1.0,
        levels=levels,
        nodes_required=4,
        recovery_speedup=recovery_speedup,
    )


def _pool_plan(
    time_steps=40,
    cost_s=10.0,
    period_s=100.0,
    blocking_fraction=1.0,
    recovery_speedup=1.0,
    levels=1,
):
    """A toy plan whose top checkpoint level writes through "pfs"."""
    return _toy_plan(
        time_steps,
        _toy_levels(levels, blocking_fraction, cost_s, period_s, "pfs"),
        recovery_speedup,
    )


def _stepped_spans(plan):
    """``(start, end, activity)`` spans of a failure-free stepped run;
    every span end is a kernel wake instant a failure or gate flip can
    tie with."""
    sim = Simulator()
    timeline = TimelineSink()
    timeline.attach(sim.bus)
    engine = ResilientExecution(sim, plan, until=1e9)
    sim.process(engine.run(), name="app")
    sim.run(until=1e9)
    return timeline.spans


#: (blocking fraction, recovery speedup, level count) variants of the
#: toy plans: semi-blocking levels drive the pending-commit settle and
#: void branches of jumps, replays and abort resumes, speedup 2
#: shortens rework segments, and two levels put pool-backed and
#: node-local boundaries into one jump.
VARIANTS = [
    pytest.param(blocking, speedup, levels, id=f"b{blocking}-x{speedup}-{levels}lvl")
    for blocking in (0.25, 1.0)
    for speedup in (1.0, 2.0)
    for levels in (1, 2)
]


@pytest.fixture
def aborts(monkeypatch):
    """Instants at which a gate flip aborted a jump, recorded by
    wrapping the engine's abort handler."""
    instants = []
    resume = ResilientExecution._resume_after_abort

    def counting(self, *args):
        instants.append(self._sim.now)
        yield from resume(self, *args)

    monkeypatch.setattr(ResilientExecution, "_resume_after_abort", counting)
    return instants


def _run_gated(
    flips,
    failures=(),
    *,
    fast,
    slots=1,
    blocking_fraction=1.0,
    recovery_speedup=1.0,
    levels=1,
    occupy=(),
):
    """Run the pool plan under a scripted gate-flip schedule.

    *flips* is a sequence of ``(time, delta)`` with delta +1 (a
    pool-using job "starts": users += 1, possibly closing the gate) or
    -1 (one "finishes").  Unless *occupy* lists ``(time, hold_s)``
    writes by other jobs (each queues for a slot at *time* and holds it
    for *hold_s*), the pool itself stays uncontended, so the stepped
    path is unaffected by the schedule — which is exactly the property:
    aborts triggered at arbitrary instants must be invisible.
    """
    execution.FAST_PATH_ENABLED = fast
    sim = Simulator()
    pool = SlotPool(sim, slots, name="pfs")
    gate = PoolContentionGate(pool)
    gate.job_started()  # the engine under test is itself a pool user
    engine = ResilientExecution(
        sim,
        _pool_plan(
            blocking_fraction=blocking_fraction,
            recovery_speedup=recovery_speedup,
            levels=levels,
        ),
        resources={"pfs": pool},
        gate=gate if fast else None,
        greedy=fast,
        until=1e9,
    )
    proc = sim.process(engine.run(), name="app")
    engine.bind_process(proc)
    for time, delta in flips:
        sim.schedule_at(
            time,
            lambda _e, d=delta: gate.job_started()
            if d > 0
            else gate.job_finished(),
        )
    for time, severity in failures:
        sim.schedule_at(
            time,
            lambda _e, s=severity: proc.interrupt(
                Failure(time=sim.now, node_id=0, severity=s)
            )
            if proc.alive
            else None,
        )
    for time, hold_s in occupy:
        sim.schedule_at(
            time,
            lambda _e, h=hold_s: sim.process(_occupy(pool, h), name="occupant"),
        )
    sim.run(until=1e9)
    execution.FAST_PATH_ENABLED = True
    return engine


def _occupy(pool, hold_s):
    """Process body: hold one slot of *pool* for *hold_s* once granted."""
    ticket = pool.request()
    yield from ticket.wait()
    yield hold_s
    ticket.release()


class TestGateFlipSchedules:
    """Randomized abort schedules never change observable results."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_flip_schedule_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        # Random alternating start/finish schedule over the run's span
        # (iterations end every 110 s; ~40 iterations), never dropping
        # below zero extra users.
        events = []
        users = 0
        for time in sorted(rng.uniform(1.0, 4_000.0, size=rng.integers(2, 12))):
            if users == 0 or rng.random() < 0.6:
                events.append((float(time), +1))
                users += 1
            else:
                events.append((float(time), -1))
                users -= 1
        failures = (
            [(float(rng.uniform(100.0, 3_000.0)), 1)]
            if rng.random() < 0.5
            else []
        )
        stepped = _run_gated(events, failures, fast=False)
        fast = _run_gated(events, failures, fast=True)
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    def test_flip_at_exact_wake_instant(self):
        # Iterations end at 110, 220, ...; closing the gate exactly at
        # a folded wake instant is the tie the abort-resume protocol
        # must replay without double-running the boundary checkpoint.
        for flip_at in (110.0, 220.0, 330.0):
            stepped = _run_gated([(flip_at, +1)], fast=False)
            fast = _run_gated([(flip_at, +1)], fast=True)
            assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    def test_flip_mid_checkpoint_replays_exactly(self):
        # 100 s work + 10 s checkpoint per iteration: 105.0 lands mid
        # checkpoint, 102.5 mid... work of the next? no — mid-ckpt of
        # iteration 1; both must finish the in-flight span for real.
        for flip_at in (102.5, 105.0, 109.9):
            stepped = _run_gated([(flip_at, +1)], fast=False)
            fast = _run_gated([(flip_at, +1)], fast=True)
            assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    def test_abort_then_failure_then_reopen(self):
        schedule = [(150.0, +1), (400.0, -1), (600.0, +1), (601.0, -1)]
        failures = [(250.0, 1), (600.5, 1)]
        stepped = _run_gated(schedule, failures, fast=False)
        fast = _run_gated(schedule, failures, fast=True)
        assert fast.stats.failures == 2
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_flips_at_wake_instants_and_midpoints(
        self, blocking, speedup, levels, aborts
    ):
        config = dict(
            blocking_fraction=blocking, recovery_speedup=speedup, levels=levels
        )
        for start, end, _activity in _stepped_spans(_pool_plan(**config))[:8]:
            for flip_at in (end, (start + end) / 2):
                stepped = _run_gated([(flip_at, +1)], fast=False, **config)
                fast = _run_gated([(flip_at, +1)], fast=True, **config)
                assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)
        assert aborts

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_flip_mid_recovery(self, blocking, speedup, levels, aborts):
        # The failure at 150 s rolls back to the 100 s checkpoint and
        # restarts until 170 s; the flips land in the restart, in the
        # rework that follows, and at its end.
        config = dict(
            blocking_fraction=blocking, recovery_speedup=speedup, levels=levels
        )
        for flip_at in (160.0, 170.0, 175.0, 180.0, 185.0, 190.0):
            stepped = _run_gated(
                [(flip_at, +1)], [(150.0, 1)], fast=False, **config
            )
            fast = _run_gated([(flip_at, +1)], [(150.0, 1)], fast=True, **config)
            assert stepped.stats.rework_time_s > 0
            assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)
        assert [at for at in aborts if 170.0 < at < 200.0]

    def test_resumed_checkpoint_keeps_its_pool_slot(self, aborts):
        # The flip at 105 s lands mid checkpoint (100-110 s): a new pool
        # user whose 150 s write queues at 106 s.  The aborted engine
        # must hold the single slot until 110 s as the stepped path
        # does, so the newcomer's write delays the engine's next
        # checkpoint (at 210 s) by exactly the stepped wait.
        occupy = [(106.0, 150.0)]
        stepped = _run_gated([(105.0, +1)], fast=False, occupy=occupy)
        fast = _run_gated([(105.0, +1)], fast=True, occupy=occupy)
        assert aborts == [105.0]
        assert stepped.stats.resource_wait_s == 50.0
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_failure_during_resumed_operation(
        self, blocking, speedup, levels, aborts
    ):
        # The flip aborts the jump a quarter into a span and the failure
        # strikes halfway through it, interrupting the resumed sleep.
        config = dict(
            blocking_fraction=blocking, recovery_speedup=speedup, levels=levels
        )
        for start, end, _activity in _stepped_spans(_pool_plan(**config))[:6]:
            flips = [(start + (end - start) / 4, +1)]
            failures = [(start + (end - start) / 2, 1)]
            stepped = _run_gated(flips, failures, fast=False, **config)
            fast = _run_gated(flips, failures, fast=True, **config)
            assert fast.stats.failures == 1
            assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)
        assert aborts

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_abort_then_failure_then_reopen(
        self, blocking, speedup, levels
    ):
        config = dict(
            blocking_fraction=blocking, recovery_speedup=speedup, levels=levels
        )
        schedule = [(150.0, +1), (400.0, -1), (600.0, +1), (601.0, -1)]
        failures = [(250.0, 1), (600.5, 1), (900.0, 3)]
        stepped = _run_gated(schedule, failures, fast=False, **config)
        fast = _run_gated(schedule, failures, fast=True, **config)
        assert fast.stats.failures == 3
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)


def _greedy_plan(blocking_fraction=1.0, recovery_speedup=1.0, levels=1):
    return _toy_plan(
        20, _toy_levels(levels, blocking_fraction), recovery_speedup
    )


def _greedy_single(
    failures, *, fast, blocking_fraction=1.0, recovery_speedup=1.0, levels=1
):
    """A greedy engine with no gate: every failure lands mid-jump."""
    execution.FAST_PATH_ENABLED = fast
    sim = Simulator()
    plan = _greedy_plan(blocking_fraction, recovery_speedup, levels)
    engine = ResilientExecution(sim, plan, greedy=fast, until=1e9)
    proc = sim.process(engine.run(), name="app")
    engine.bind_process(proc)
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
    execution.FAST_PATH_ENABLED = True
    return engine


class TestGreedyWakeInstantTies:
    """Greedy mode is one long lying-horizon jump: failures at exact
    folded wake instants must take the stepped path's tie branch
    (failure preempts wake) during replay."""

    @pytest.mark.parametrize(
        "fail_at",
        [
            50.0,  # mid work segment
            100.0,  # exactly at a work-segment end
            105.0,  # mid checkpoint
            110.0,  # exactly at a checkpoint end (iteration boundary)
            330.0,  # a later exact boundary
            424.5,  # late, mid segment
        ],
    )
    def test_single_failure_tie(self, fail_at):
        stepped = _greedy_single([(fail_at, 1)], fast=False)
        fast = _greedy_single([(fail_at, 1)], fast=True)
        assert stepped.fast_jumps == 0
        assert fast.fast_jumps > 0
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    def test_failure_storm_random_instants(self):
        rng = np.random.default_rng(7)
        failures = [(float(t), int(rng.integers(1, 4)))
                    for t in sorted(rng.uniform(10.0, 2_500.0, size=12))]
        stepped = _greedy_single(failures, fast=False)
        fast = _greedy_single(failures, fast=True)
        assert fast.stats.failures == stepped.stats.failures > 0
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    def test_back_to_back_failures_same_instant_region(self):
        # Two failures one epsilon apart straddling a boundary: the
        # second must interrupt the restart/rework, not a stale jump.
        failures = [(110.0, 1), (110.5, 1), (111.0, 2)]
        stepped = _greedy_single(failures, fast=False)
        fast = _greedy_single(failures, fast=True)
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_failure_at_wake_instants_and_midpoints(
        self, blocking, speedup, levels
    ):
        config = dict(
            blocking_fraction=blocking, recovery_speedup=speedup, levels=levels
        )
        for start, end, _activity in _stepped_spans(_greedy_plan(**config))[:8]:
            for fail_at in (end, (start + end) / 2):
                for severity in (1, 3):
                    failures = [(fail_at, severity)]
                    stepped = _greedy_single(failures, fast=False, **config)
                    fast = _greedy_single(failures, fast=True, **config)
                    assert fast.fast_jumps > 0
                    assert _stats_tuple(stepped.stats) == _stats_tuple(
                        fast.stats
                    )

    @pytest.mark.parametrize("blocking,speedup,levels", VARIANTS)
    def test_variant_failure_storm(self, blocking, speedup, levels):
        config = dict(
            blocking_fraction=blocking, recovery_speedup=speedup, levels=levels
        )
        rng = np.random.default_rng(7)
        failures = [(float(t), int(rng.integers(1, 4)))
                    for t in sorted(rng.uniform(10.0, 2_500.0, size=12))]
        stepped = _greedy_single(failures, fast=False, **config)
        fast = _greedy_single(failures, fast=True, **config)
        assert fast.stats.failures == stepped.stats.failures > 0
        assert _stats_tuple(stepped.stats) == _stats_tuple(fast.stats)
