"""Differential harness for the datacenter fast path.

The greedy closed-form jumps in the datacenter mapping loop (plus the
PFS contention gate and abort-resume protocol) must be invisible: every
per-job completion time, drop decision, and statistic bit-identical to
the stepped event-by-event path, across resource-management policies,
technique selectors, contended-PFS configurations, and observed runs.
Mirrors ``tests/core/test_fastpath.py`` for the single-application
engine; see docs/PERFORMANCE.md for the exactness argument.
"""

import math

import pytest

import repro.core.datacenter as datacenter
import repro.core.execution as execution
from repro.core.datacenter import (
    DatacenterConfig,
    DatacenterSimulator,
    run_datacenter,
)
from repro.core.execution import JumpAborted, PoolContentionGate, ResilientExecution
from repro.core.selection import FixedSelector, ResilienceSelection
from repro.obs.sinks import JsonlExportSink, MetricsSink
from repro.platform.presets import exascale_system
from repro.resilience import get_technique
from repro.rm.registry import make_manager
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.sim.resources import SlotPool
from repro.units import years
from repro.workload.patterns import PatternBias, PatternGenerator

NODES = 2_400
HEAVY_MTBF = years(0.05)


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


def _nan_eq(a, b):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def _digest(result):
    """Everything Figs. 4-5 can observe about a datacenter run."""
    return (
        result.end_time,
        result.failures_injected,
        result.dropped_pct,
        [
            (
                record.app.app_id,
                record.is_fill,
                str(record.status),
                record.technique,
                record.start_time,
                record.end_time,
                record.dropped,
                record.met_deadline,
                None if record.stats is None else _stats_tuple(record.stats),
            )
            for record in result.records
        ],
    )


def _build_cell(
    *,
    seed=11,
    nodes=NODES,
    arrivals=20,
    rm="fcfs",
    selector=None,
    mtbf=years(2.0),
    pfs=None,
    bias=PatternBias.UNBIASED,
    ideal=False,
    sinks=None,
):
    pattern = PatternGenerator(StreamFactory(seed), nodes).generate(
        0, bias=bias, arrivals=arrivals
    )
    config = DatacenterConfig(
        node_mtbf_s=mtbf, seed=seed, pfs_slots=pfs, ideal=ideal
    )
    manager = make_manager(rm, StreamFactory(seed).fresh(f"rm-{rm}"))
    if selector is None:
        selector = FixedSelector(get_technique("multilevel"))
    return pattern, manager, selector, exascale_system(nodes), config, sinks


def _run_cell(fast, monkeypatch, **kwargs):
    monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
    pattern, manager, selector, system, config, sinks = _build_cell(**kwargs)
    return run_datacenter(pattern, manager, selector, system, config, sinks=sinks)


def _assert_identical(monkeypatch, **kwargs):
    slow = _digest(_run_cell(False, monkeypatch, **kwargs))
    fast = _digest(_run_cell(True, monkeypatch, **kwargs))
    for a, b in zip(slow[3], fast[3]):
        assert all(_nan_eq(x, y) for x, y in zip(a, b)), (a, b)
    assert slow == fast
    return slow


def _observed_runs(monkeypatch, **kwargs):
    """The cell run stepped and fast with an export and a metrics sink:
    ``((digest, lines, metrics) stepped, (...) fast)``."""
    runs = []
    for fast in (False, True):
        export, metrics = JsonlExportSink(), MetricsSink()
        result = _run_cell(fast, monkeypatch, sinks=[export, metrics], **kwargs)
        runs.append((_digest(result), export.lines, metrics.to_dict()))
    return runs


class TestGridBitIdentity:
    """All four RM policies, with and without a contended PFS."""

    @pytest.mark.parametrize("rm", ["fcfs", "easy", "random", "slack"])
    @pytest.mark.parametrize("pfs", [None, 2])
    def test_rm_policy_identical(self, rm, pfs, monkeypatch):
        digest = _assert_identical(monkeypatch, rm=rm, pfs=pfs)
        assert digest[1] > 0  # failures actually injected

    @pytest.mark.parametrize("rm", ["fcfs", "easy", "random", "slack"])
    @pytest.mark.parametrize("pfs", [None, 2])
    def test_rm_policy_observed_identical(
        self, rm, pfs, counting_engine, monkeypatch
    ):
        # Observed engines keep the fast path, and the export and the
        # metrics are those of the stepped run.
        slow, fast = _observed_runs(monkeypatch, rm=rm, pfs=pfs)
        assert counting_engine.jumps > 0
        assert fast[0] == slow[0]
        assert fast[1] == slow[1]
        assert fast[2] == slow[2]
        assert slow[0][1] > 0  # failures actually injected


class TestSelectorsAndRegimes:
    def test_checkpoint_restart_selector(self, monkeypatch):
        _assert_identical(
            monkeypatch,
            selector=FixedSelector(get_technique("checkpoint_restart")),
        )

    def test_parallel_recovery_selector(self, monkeypatch):
        _assert_identical(
            monkeypatch,
            selector=FixedSelector(get_technique("parallel_recovery")),
        )

    def test_selection_selector(self, monkeypatch):
        # Fig. 5's per-application argmax selection: selector state must
        # evolve identically on both paths.
        mtbf = years(2.0)
        _assert_identical(
            monkeypatch,
            selector=ResilienceSelection(node_mtbf_s=mtbf),
            mtbf=mtbf,
        )

    def test_heavy_failures(self, monkeypatch):
        digest = _assert_identical(monkeypatch, mtbf=HEAVY_MTBF, seed=13)
        assert digest[1] > 10  # replay-on-interrupt exercised hard

    def test_heavy_failures_contended_pfs1(self, monkeypatch):
        # One PFS slot + heavy failure traffic: gate flips, aborted
        # jumps, and real checkpoint queueing all in one cell.
        _assert_identical(monkeypatch, mtbf=HEAVY_MTBF, pfs=1, seed=13)

    def test_abort_cell_identical(self, monkeypatch):
        # The cell TestEngagementAndFallback proves travels the
        # abort-resume path must also be bit-identical.
        _assert_identical(monkeypatch, pfs=2, seed=13)

    def test_biased_pattern_high_memory(self, monkeypatch):
        _assert_identical(monkeypatch, bias=PatternBias.HIGH_MEMORY, pfs=2)

    def test_biased_pattern_large(self, monkeypatch):
        _assert_identical(monkeypatch, bias=PatternBias.LARGE)

    def test_ideal_mode(self, monkeypatch):
        # No failures at all: jobs complete in single uninterrupted
        # jumps on the fast path.
        digest = _assert_identical(monkeypatch, ideal=True)
        assert digest[1] == 0

    def test_dropped_jobs_identical(self, monkeypatch):
        # An overloaded small machine forces drops; the drop set and
        # deadline misses must agree exactly.
        digest = _assert_identical(
            monkeypatch, nodes=1_200, arrivals=40, mtbf=HEAVY_MTBF, seed=29
        )
        assert any(row[6] for row in digest[3])  # at least one drop


class _CountingEngine(ResilientExecution):
    """ResilientExecution that tallies jumps and aborts per class."""

    jumps = 0
    aborts = 0

    def _fast_forward(self, total, base):
        before = self.fast_jumps
        advanced = yield from super()._fast_forward(total, base)
        type(self).jumps += self.fast_jumps - before
        return advanced

    def _resume_after_abort(self, snaps, total, base):
        type(self).aborts += 1
        yield from super()._resume_after_abort(snaps, total, base)


@pytest.fixture
def counting_engine(monkeypatch):
    class Engine(_CountingEngine):
        jumps = 0
        aborts = 0

    monkeypatch.setattr(datacenter, "ResilientExecution", Engine)
    return Engine


class TestEngagementAndFallback:
    def test_fast_path_engages(self, counting_engine, monkeypatch):
        _run_cell(True, monkeypatch)
        assert counting_engine.jumps > 0

    def test_stepped_path_never_jumps(self, counting_engine, monkeypatch):
        _run_cell(False, monkeypatch)
        assert counting_engine.jumps == 0

    def test_aborts_exercised_and_identical(self, counting_engine, monkeypatch):
        # The contended cell must actually travel the abort-resume
        # path, not just produce matching output.
        _run_cell(True, monkeypatch, pfs=2, seed=13)
        assert counting_engine.aborts > 0

    def test_observed_run_keeps_fast_path(self, counting_engine, monkeypatch):
        # Sinks leave the engines on the fast path; the JSONL export
        # and the metrics must equal the stepped run's.  Jumps in this
        # cell are aborted after folding events, which the re-fold must
        # publish.
        slow, fast = _observed_runs(monkeypatch, pfs=2, seed=5, arrivals=30)
        assert counting_engine.jumps > 0
        assert counting_engine.aborts > 0
        assert fast[1] == slow[1]
        assert fast[2] == slow[2]
        assert fast[0] == slow[0]

    def test_observed_vs_unobserved_digest_equal(self, monkeypatch):
        observed = _run_cell(True, monkeypatch, sinks=[MetricsSink()])
        plain = _run_cell(True, monkeypatch)
        assert _digest(observed) == _digest(plain)

    def test_event_reduction(self, monkeypatch):
        def events(fast):
            monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
            pattern, manager, selector, system, config, _ = _build_cell()
            simulator = DatacenterSimulator(
                pattern, manager, selector, system, config
            )
            simulator.run()
            return simulator.sim.event_count

        assert events(False) >= 3 * events(True)


class _FakeProc:
    def __init__(self, alive=True):
        self.alive = alive
        self.interrupts = []

    def interrupt(self, cause):
        self.interrupts.append(cause)


class TestPoolContentionGate:
    def _gate(self, slots=1):
        return PoolContentionGate(SlotPool(Simulator(), slots, name="pfs"))

    def test_open_while_users_within_slots(self):
        gate = self._gate(slots=2)
        assert gate.open
        gate.job_started()
        gate.job_started()
        assert gate.users == 2
        assert gate.open

    def test_closed_when_users_exceed_slots(self):
        gate = self._gate(slots=1)
        gate.job_started()
        gate.job_started()
        assert not gate.open

    def test_closed_while_queue_nonempty(self):
        sim = Simulator()
        pool = SlotPool(sim, 1, name="pfs")
        gate = PoolContentionGate(pool)
        held = pool.request()
        queued = pool.request()
        assert queued.state == "queued"
        assert not gate.open
        held.release()
        # The slot passes to the queued ticket and the queue drains, so
        # the gate observes open again (lazily, on its next check).
        assert queued.state == "granted"
        assert pool.queued == 0
        assert gate.open

    def test_flip_aborts_registered_jumpers(self):
        gate = self._gate(slots=1)
        proc = _FakeProc()
        engine = object()
        gate.begin_jump(engine, proc)
        gate.job_started()  # 1 user, still open: no abort
        assert proc.interrupts == []
        gate.job_started()  # flips closed
        assert len(proc.interrupts) == 1
        assert isinstance(proc.interrupts[0], JumpAborted)

    def test_flip_skips_dead_and_ended_jumpers(self):
        gate = self._gate(slots=1)
        dead = _FakeProc(alive=False)
        ended = _FakeProc()
        gate.begin_jump("a", dead)
        gate.begin_jump("b", ended)
        gate.end_jump("b")
        gate.job_started()
        gate.job_started()
        assert dead.interrupts == []
        assert ended.interrupts == []

    def test_job_finished_reopens(self):
        gate = self._gate(slots=1)
        gate.job_started()
        gate.job_started()
        assert not gate.open
        gate.job_finished()
        assert gate.open
        gate.job_finished()
        assert gate.users == 0

    def test_job_finished_underflow_asserts(self):
        gate = self._gate()
        with pytest.raises(AssertionError):
            gate.job_finished()


class TestPoolAccounting:
    def _finished_simulator(self, monkeypatch, fast, **kwargs):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
        pattern, manager, selector, system, config, _ = _build_cell(
            pfs=1, mtbf=HEAVY_MTBF, seed=13, **kwargs
        )
        simulator = DatacenterSimulator(pattern, manager, selector, system, config)
        simulator.run()
        return simulator

    @pytest.mark.parametrize("fast", [False, True])
    def test_gate_and_pool_drained_after_run(self, fast, monkeypatch):
        simulator = self._finished_simulator(monkeypatch, fast)
        gate = simulator._gate
        pool = simulator._resources["pfs"]
        assert gate.users == 0
        assert simulator._pool_users == set()
        assert pool.queued == 0
        assert pool.in_use == 0
