"""The oversubscribed-datacenter simulator (Sec. VI/VII).

Simulates an exascale machine over days-to-weeks of operation serving
one :class:`repro.workload.ArrivalPattern`:

- at time zero the machine is filled with the pattern's fill
  applications and the 100 arrivals are scheduled;
- *mapping events* fire after every arrival and every completion; the
  configured resource manager decides which pending applications start
  (and, for slack-based, which are dropped);
- a mapped application executes under the technique chosen by the
  configured :class:`repro.core.selection.TechniqueSelector` via the
  generic resilient-execution engine, on a contiguous allocation;
- the global failure injector fires at ``lambda_s = N_s / M_n`` over
  the *currently active* nodes and interrupts the owning application;
- an application that finishes after its deadline — or is dropped by
  the slack policy, or never completes within the horizon — counts
  toward the dropped percentage (Figs. 4-5 metric).

The *Ideal Baseline* mode disables failures and resilience overheads
entirely (applications run for exactly their baseline time), isolating
the loss attributable to failures + resilience from ordinary
oversubscription losses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, List, Optional, Sequence, Set

from repro.constants import DEFAULT_NODE_MTBF_S
from repro.core.execution import (
    ExecutionStats,
    PoolContentionGate,
    ResilientExecution,
)
from repro.core.metrics import dropped_percentage
from repro.core.selection import TechniqueSelector
from repro.failures.burst import BurstModel
from repro.failures.generator import Failure
from repro.failures.injector import FailureInjector
from repro.failures.severity import SeverityModel
from repro.obs import live
from repro.obs.counters import counter_value, increment
from repro.obs.events import (
    JobArrived,
    JobCompleted,
    JobDropped,
    JobMapped,
    TrialFinished,
    TrialStarted,
)
from repro.obs.sinks import Sink
from repro.platform.system import HPCSystem
from repro.resilience.fingerprint import technique_fingerprint
from repro.rm.base import ResourceManager
from repro.rm.slack import remaining_slack
from repro.rng.streams import StreamFactory
from repro.sim.engine import Simulator
from repro.sim.events import EventKind
from repro.sim.process import Process
from repro.sim.resources import SlotPool
from repro.units import DAY
from repro.workload.application import Application
from repro.workload.patterns import ArrivalPattern


class JobStatus(enum.Enum):
    """Lifecycle state of one datacenter job."""
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    DROPPED = "dropped"


@dataclass
class JobRecord:
    """Lifecycle record of one application in the datacenter."""

    app: Application
    is_fill: bool
    status: JobStatus = JobStatus.PENDING
    technique: Optional[str] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    stats: Optional[ExecutionStats] = None

    @property
    def met_deadline(self) -> bool:
        """True when the job completed by its deadline (jobs without
        deadlines always 'meet' them)."""
        if self.status is not JobStatus.COMPLETED:
            return False
        if self.app.deadline is None:
            return True
        assert self.end_time is not None
        return self.end_time <= self.app.deadline

    @property
    def dropped(self) -> bool:
        """The Figs. 4-5 notion of dropped: removed by the scheduler or
        failed to complete by its deadline."""
        return not self.met_deadline


@dataclass(frozen=True)
class DatacenterConfig:
    """Environment of a Sec. VI/VII run."""

    node_mtbf_s: float = DEFAULT_NODE_MTBF_S
    severity_pmf: Optional[tuple] = None
    seed: int = 2017
    #: Ideal Baseline: no failures, no resilience overhead.
    ideal: bool = False
    #: Hard simulation horizon beyond the last arrival; jobs unresolved
    #: by then are dropped (guards against pathological thrashing).
    horizon_after_last_arrival_s: float = 120.0 * DAY
    #: Concurrent checkpoint/restart streams the parallel file system
    #: accepts.  None (the paper's model) means unlimited — each
    #: application sees Eq. 3 in isolation; a finite value makes PFS
    #: levels contend (extension).
    pfs_slots: Optional[int] = None
    #: Optional spatially-correlated failure model (extension); None is
    #: the paper's independent single-node failures.
    burst: Optional["BurstModel"] = None

    def __post_init__(self) -> None:
        if self.pfs_slots is not None and self.pfs_slots < 1:
            raise ValueError(f"pfs_slots must be >= 1, got {self.pfs_slots}")

    def severity_model(self) -> SeverityModel:
        """The configured severity model (default when pmf is None)."""
        if self.severity_pmf is None:
            return SeverityModel.default()
        return SeverityModel.from_probabilities(self.severity_pmf)


@dataclass
class DatacenterResult:
    """Outcome of one pattern under one (RM, selector) combination."""

    pattern_index: int
    rm_name: str
    selector_name: str
    records: List[JobRecord] = field(default_factory=list)
    failures_injected: int = 0
    end_time: float = 0.0

    def arriving_records(self) -> List[JobRecord]:
        """Records of the pattern's arriving (non-fill) applications."""
        return [r for r in self.records if not r.is_fill]

    @property
    def dropped_pct(self) -> float:
        """Dropped percentage over the 100 arriving applications
        (DESIGN.md substitution #5)."""
        arriving = self.arriving_records()
        return dropped_percentage(sum(r.dropped for r in arriving), len(arriving))

    @property
    def completed_count(self) -> int:
        """Number of jobs that ran to completion (fill included)."""
        return sum(r.status is JobStatus.COMPLETED for r in self.records)

    def technique_counts(self) -> Dict[str, int]:
        """How many jobs executed under each technique (selection
        observability)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.technique is not None:
                counts[record.technique] = counts.get(record.technique, 0) + 1
        return counts

    def mean_wait_s(self) -> float:
        """Mean queueing delay (start - arrival) of started jobs."""
        waits = [
            r.start_time - r.app.arrival_time
            for r in self.records
            if r.start_time is not None
        ]
        if not waits:
            return 0.0
        return float(sum(waits) / len(waits))

    def utilization(self, total_nodes: int) -> float:
        """Fraction of node-time spent executing applications over the
        whole simulated horizon, in [0, 1]."""
        if total_nodes <= 0:
            raise ValueError(f"total_nodes must be > 0, got {total_nodes}")
        if self.end_time <= 0:
            return 0.0
        busy = 0.0
        for record in self.records:
            if record.start_time is None:
                continue
            end = record.end_time if record.end_time is not None else self.end_time
            busy += (end - record.start_time) * record.app.nodes
        return min(1.0, busy / (total_nodes * self.end_time))


class PlanCache:
    """Memoizes :class:`~repro.resilience.base.ExecutionPlan` construction.

    Plan construction is a pure function of the technique's
    configuration, the application *shape* (type, steps, communication
    fraction, memory, nodes — never its id, arrival time, or deadline),
    the system, and the failure environment.  Shapes are drawn from a
    small discrete space, so a batch of patterns rebuilds the same
    handful of plans thousands of times; this cache builds each once
    and rebinds cached plans to new applications with
    :func:`dataclasses.replace` (plans are frozen and never mutated by
    the engine, so sharing the level tuples is safe).

    The cache key deliberately omits the system and failure
    environment: one instance must only ever serve runs that share
    them, which is how :func:`run_datacenter_batch` scopes it (one
    cache per batch, fixed system/config).
    """

    def __init__(self) -> None:
        self._plans: Dict[tuple, object] = {}

    def plan_for(self, technique, app, system, node_mtbf_s, severity):
        """The technique's plan for *app*, built or rebound from cache."""
        key = (
            technique_fingerprint(technique),
            app.type_name,
            app.time_steps,
            app.comm_fraction,
            app.memory_per_node_gb,
            app.nodes,
        )
        cached = self._plans.get(key)
        if cached is None:
            cached = technique.plan(
                app, system, node_mtbf_s, severity=severity
            )
            self._plans[key] = cached
            return cached
        return replace(cached, app=app)


class DatacenterSimulator:
    """Runs one arrival pattern to completion.

    Implements the :class:`repro.rm.base.Placer` protocol so the
    resource manager can start and drop applications directly.
    """

    def __init__(
        self,
        pattern: ArrivalPattern,
        manager: ResourceManager,
        selector: TechniqueSelector,
        system: HPCSystem,
        config: Optional[DatacenterConfig] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.pattern = pattern
        self.manager = manager
        self.selector = selector
        self.system = system
        self.config = config or DatacenterConfig()
        self._plan_cache = plan_cache
        self.sim = Simulator()
        streams = StreamFactory(self.config.seed).spawn(
            f"datacenter-{pattern.index}-{pattern.bias.value}"
        )
        self._failure_rng = streams.stream("failures")
        self._records: Dict[int, JobRecord] = {}
        self._procs: Dict[int, Process] = {}
        self._pending: List[Application] = []
        self._selected: Dict[int, object] = {}
        self._mapping_scheduled = False
        self._resources: Dict[str, SlotPool] = {}
        self._gate: Optional[PoolContentionGate] = None
        #: app_ids of running jobs counted as PFS users on the gate.
        self._pool_users: Set[int] = set()
        if self.config.pfs_slots is not None:
            self._resources["pfs"] = SlotPool(
                self.sim, self.config.pfs_slots, name="pfs"
            )
            self._gate = PoolContentionGate(self._resources["pfs"])
        #: Absolute run horizon, set by :meth:`run` before the event
        #: loop starts so lifecycle engines cap their fast-path jumps.
        self._horizon_time: Optional[float] = None
        self._injector: Optional[FailureInjector] = None
        if not self.config.ideal:
            self._injector = FailureInjector(
                self.sim,
                self.system,
                self.config.node_mtbf_s,
                self._failure_rng,
                self._on_failure,
                severity=self.config.severity_model(),
                burst=self.config.burst,
            )

    # -- Placer protocol ------------------------------------------------------

    def can_place(self, app: Application) -> bool:
        """Placer protocol: whether *app* can start right now."""
        nodes = self._nodes_required(app)
        return nodes <= self.system.total_nodes and self.system.can_allocate(nodes)

    def place(self, app: Application) -> None:
        """Placer protocol: allocate nodes and start *app*."""
        record = self._records[app.app_id]
        nodes = self._nodes_required(app)
        self.system.allocate(app.app_id, nodes)
        record.status = JobStatus.RUNNING
        record.start_time = self.sim.now
        if self.config.ideal:
            record.technique = "ideal"
            proc = self.sim.process(
                self._ideal_lifecycle(record), name=f"job-{app.app_id}"
            )
        else:
            technique = self._technique_for(app)
            record.technique = technique.name
            if self._plan_cache is not None:
                plan = self._plan_cache.plan_for(
                    technique,
                    app,
                    self.system,
                    self.config.node_mtbf_s,
                    self.config.severity_model(),
                )
            else:
                plan = technique.plan(
                    app,
                    self.system,
                    self.config.node_mtbf_s,
                    severity=self.config.severity_model(),
                )
            proc = self.sim.process(
                self._lifecycle(record, plan), name=f"job-{app.app_id}"
            )
            if self._gate is not None and any(
                lvl.shared_resource in self._resources
                for lvl in plan.levels
                if lvl.shared_resource is not None
            ):
                # Gate accounting before anything else can observe the
                # new job: a closing gate aborts in-flight jumps that
                # folded PFS checkpoints.
                self._pool_users.add(app.app_id)
                self._gate.job_started()
        self._procs[app.app_id] = proc
        self.sim.bus.publish(
            JobMapped(
                time=self.sim.now,
                app_id=app.app_id,
                nodes=nodes,
                technique=record.technique,
                is_fill=record.is_fill,
            )
        )
        if self._injector is not None:
            self._injector.notify_allocation_change()

    def drop(self, app: Application) -> None:
        """Placer protocol: remove *app* without executing it."""
        record = self._records[app.app_id]
        record.status = JobStatus.DROPPED
        record.end_time = self.sim.now
        self.sim.bus.publish(
            JobDropped(
                time=self.sim.now,
                app_id=app.app_id,
                reason="scheduler",
                is_fill=record.is_fill,
            )
        )

    # -- ReservingPlacer extras (for planning policies like EASY) --------

    def running_jobs(self) -> List:
        """``(nodes, estimated_end)`` per running job; estimates use the
        baseline plus 20% resilience headroom (what a scheduler without
        oracle knowledge would assume)."""
        out = []
        for record in self._records.values():
            if record.status is not JobStatus.RUNNING:
                continue
            allocation = self.system.allocation_of(record.app.app_id)
            if allocation is None:  # pragma: no cover - defensive
                continue
            assert record.start_time is not None
            estimate = record.start_time + 1.2 * record.app.baseline_time
            out.append((allocation.nodes, max(estimate, self.sim.now)))
        return out

    def free_nodes(self) -> int:
        """ReservingPlacer protocol: idle nodes right now."""
        return self.system.idle_nodes

    def nodes_needed(self, app: Application) -> int:
        """ReservingPlacer protocol: physical nodes *app* will occupy."""
        return self._nodes_required(app)

    # -- lifecycle processes ------------------------------------------------------

    def _lifecycle(self, record: JobRecord, plan) -> Generator:
        engine = ResilientExecution(
            self.sim,
            plan,
            resources=self._resources,
            failure_horizon=(
                self._injector.next_fire_time
                if self._injector is not None
                else None
            ),
            until=self._horizon_time,
            gate=self._gate,
            # Greedy jumps: run to completion in one closed-form leap
            # and let interrupt-and-replay handle whatever lands inside
            # it, instead of waking at every global failure horizon.
            greedy=True,
        )
        # The generator body first runs after place() stored the
        # process handle, so it is available to bind here.
        engine.bind_process(self._procs[record.app.app_id])
        stats = yield from engine.run()
        record.stats = stats
        self._complete(record)

    def _ideal_lifecycle(self, record: JobRecord) -> Generator:
        yield self.sim.timeout(record.app.baseline_time)
        self._complete(record)

    def _complete(self, record: JobRecord) -> None:
        record.status = JobStatus.COMPLETED
        record.end_time = self.sim.now
        self._procs.pop(record.app.app_id, None)
        self.system.release(record.app.app_id)
        if self._gate is not None and record.app.app_id in self._pool_users:
            self._pool_users.discard(record.app.app_id)
            self._gate.job_finished()
        met = record.met_deadline
        self.sim.bus.publish(
            JobCompleted(
                time=self.sim.now,
                app_id=record.app.app_id,
                met_deadline=met,
                is_fill=record.is_fill,
            )
        )
        if not met:
            # Completed after its deadline: still counts toward the
            # Figs. 4-5 dropped percentage.
            self.sim.bus.publish(
                JobDropped(
                    time=self.sim.now,
                    app_id=record.app.app_id,
                    reason="deadline_miss",
                    is_fill=record.is_fill,
                )
            )
        if self._injector is not None:
            self._injector.notify_allocation_change()
        self._schedule_mapping()

    # -- events ------------------------------------------------------------

    def _on_failure(self, owner, failure: Failure) -> None:
        proc = self._procs.get(owner)
        if proc is None or not proc.alive:
            return  # completion raced the failure at the same instant
        allocation = self.system.allocation_of(owner)
        assert allocation is not None
        relative = Failure(
            time=failure.time,
            node_id=failure.node_id - allocation.block.start,
            severity=failure.severity,
            width=failure.width,
        )
        proc.interrupt(relative)

    def _on_arrival(self, app: Application) -> None:
        self._pending.append(app)
        self.sim.bus.publish(
            JobArrived(time=self.sim.now, app_id=app.app_id, nodes=app.nodes)
        )
        self._schedule_mapping()

    def _schedule_mapping(self) -> None:
        """Coalesce mapping work at the current instant into one event."""
        if self._mapping_scheduled:
            return
        self._mapping_scheduled = True
        self.sim.schedule(0.0, self._run_mapping, kind=EventKind.MAPPING, priority=10)

    def _run_mapping(self, _event) -> None:
        self._mapping_scheduled = False
        if not self._pending:
            return
        # System-wide deadline rule (Sec. III-C): applications that can
        # no longer complete by their deadline are removed from the
        # system at mapping events, whatever the mapping policy.  (The
        # slack policy additionally *prioritizes* by slack.)
        viable: List[Application] = []
        for app in self._pending:
            if remaining_slack(app, self.sim.now) < 0.0:
                self.drop(app)
            else:
                viable.append(app)
        self._pending = self.manager.map_applications(viable, self, self.sim.now)

    # -- driver -----------------------------------------------------------

    def _technique_for(self, app: Application):
        """The selected technique for *app*, decided once per job."""
        technique = self._selected.get(app.app_id)
        if technique is None:
            technique = self.selector.select(app, self.system)
            self._selected[app.app_id] = technique
        return technique

    def _nodes_required(self, app: Application) -> int:
        if self.config.ideal:
            return app.nodes
        return self._technique_for(app).nodes_required(app)

    def run(self) -> DatacenterResult:
        """Execute the pattern; returns the aggregated result."""
        for app in self.pattern.fill_apps:
            self._records[app.app_id] = JobRecord(app=app, is_fill=True)
            self._pending.append(app)
            self.sim.bus.publish(
                JobArrived(
                    time=0.0, app_id=app.app_id, nodes=app.nodes, is_fill=True
                )
            )
        last_arrival = 0.0
        for app in self.pattern.arriving_apps:
            self._records[app.app_id] = JobRecord(app=app, is_fill=False)
            self.sim.schedule_at(
                app.arrival_time,
                lambda _ev, a=app: self._on_arrival(a),
                kind=EventKind.ARRIVAL,
            )
            last_arrival = max(last_arrival, app.arrival_time)
        self._schedule_mapping()
        if self._injector is not None:
            self._injector.start()

        horizon = last_arrival + self.config.horizon_after_last_arrival_s
        self._horizon_time = horizon
        self.sim.run(until=horizon)
        if self._injector is not None:
            self._injector.stop()

        result = DatacenterResult(
            pattern_index=self.pattern.index,
            rm_name=self.manager.name,
            selector_name=getattr(self.selector, "name", "ideal"),
            failures_injected=(
                self._injector.failures_injected if self._injector else 0
            ),
            end_time=self.sim.now,
        )
        for record in sorted(self._records.values(), key=lambda r: r.app.app_id):
            if record.status in (JobStatus.PENDING, JobStatus.RUNNING):
                # Unresolved at the horizon: count as dropped.
                record.status = JobStatus.DROPPED
                record.end_time = self.sim.now
                self.sim.bus.publish(
                    JobDropped(
                        time=self.sim.now,
                        app_id=record.app.app_id,
                        reason="horizon",
                        is_fill=record.is_fill,
                    )
                )
            result.records.append(record)
        return result


def simulation_call_count() -> int:
    """Number of datacenter simulations run on this process's behalf.

    Read from the process's counter registry (each
    :func:`run_datacenter` counts one); worker-side counts are merged
    back by the parallel executor, so the cache tests can assert a warm
    rerun performs zero simulations."""
    return counter_value("datacenter.simulations")


def run_datacenter(
    pattern: ArrivalPattern,
    manager: ResourceManager,
    selector: TechniqueSelector,
    system: HPCSystem,
    config: Optional[DatacenterConfig] = None,
    sinks: Optional[Sequence[Sink]] = None,
    plan_cache: Optional[PlanCache] = None,
) -> DatacenterResult:
    """Convenience wrapper: build and run one simulation.

    *sinks* are attached to the simulation's instrumentation bus before
    the run; instrumentation is passive, so any sink configuration
    (including none) produces bit-identical results.  An optional
    *plan_cache* (scoped to a fixed system/config — see
    :class:`PlanCache`) skips redundant plan construction; cached plans
    are value-identical, so results do not change."""
    simulator = DatacenterSimulator(
        pattern, manager, selector, system, config, plan_cache=plan_cache
    )
    if sinks:
        for sink in sinks:
            sink.attach(simulator.sim.bus)
    # Thread-locally activated live sinks (the telemetry feed of a
    # watched service job); a no-op when nothing is activated, so
    # unwatched trials keep the unobserved fast path.
    live.attach_current(simulator.sim.bus)
    started = TrialStarted(
        time=0.0, scope="datacenter", trial=pattern.index
    )
    increment("datacenter.simulations")
    simulator.sim.bus.publish(started)
    result = simulator.run()
    finished = TrialFinished(
        time=result.end_time, scope="datacenter", trial=pattern.index
    )
    simulator.sim.bus.publish(finished)
    increment("datacenter.completed")
    return result


def run_datacenter_batch(
    patterns: Sequence[ArrivalPattern],
    manager_factory: Callable[[ArrivalPattern], ResourceManager],
    selector_factory: Callable[[], TechniqueSelector],
    system: HPCSystem,
    config: Optional[DatacenterConfig] = None,
    sinks: Optional[Sequence[Sink]] = None,
) -> List[DatacenterResult]:
    """Run a cell's patterns as one batch over shared setup.

    Bit-identical to calling :func:`run_datacenter` once per pattern
    with a fresh system and fresh manager/selector instances — the
    batched-trials equivalence tests enforce this — but amortizes the
    per-trial setup: one :class:`~repro.platform.system.HPCSystem`
    (reset between patterns; a reset system is indistinguishable from
    a fresh one) and one :class:`PlanCache` shared across the whole
    batch (valid because the batch fixes system and config).  The
    factories supply per-pattern manager and selector instances, which
    carry per-pattern RNG streams and selection state and so cannot be
    shared.
    """
    plan_cache = PlanCache()
    results: List[DatacenterResult] = []
    for pattern in patterns:
        system.reset()
        results.append(
            run_datacenter(
                pattern,
                manager_factory(pattern),
                selector_factory(),
                system,
                config,
                sinks=sinks,
                plan_cache=plan_cache,
            )
        )
    return results
