"""The generic resilient-execution engine.

One process class executes *any* :class:`repro.resilience.ExecutionPlan`
on the DES: it advances work between checkpoint boundaries, takes the
scheduled checkpoint level at each boundary, and reacts to failure
interrupts with the technique-appropriate restart/recovery behaviour.
All four techniques reduce to plan parameters:

- work positions live in *effective-work* space (baseline inflated by
  the plan's ``work_rate`` — Eqs. 7/8), so one wall second of normal
  execution advances the position by one second;
- checkpoint boundaries sit at multiples of the base period; the level
  taken at boundary *i* is the highest whose multiplier divides *i*;
- a severity-s failure rolls the position back to the newest checkpoint
  among levels that recover severity >= s and pays that level's restart
  cost (restart is itself interruptible by further failures);
- while the position is behind the furthest point ever reached, the
  engine is *recovering* and advances ``recovery_speedup`` times faster
  (Parallel Recovery's parallelized re-execution; 1x for the others);
- with a replica plan, a failure that leaves the struck virtual node
  with a live replica is absorbed without interruption; checkpoints and
  restarts repair all failed replicas (Sec. IV-E restart rule).

Failures are delivered as :class:`repro.sim.Interrupt` whose cause is a
:class:`repro.failures.Failure` with ``node_id`` *relative to the
application's physical allocation* (in ``[0, nodes_required)``).

Instrumentation: the engine publishes its whole lifecycle as typed
events on the simulator's :class:`repro.obs.bus.EventBus` —
:class:`~repro.obs.events.FailureInjected` when an interrupt reaches
it, checkpoint/restart/recovery milestones, and one
:class:`~repro.obs.events.ActivitySpan` per contiguous stretch of
work/recovery/checkpoint/restart/wait time.  :class:`ExecutionStats` is
itself a bus subscriber (keyed to the application id), so the numbers
it reports and the event stream sinks observe have one source of
truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Optional, Set, Tuple

from repro.failures.generator import Failure
from repro.obs.bus import EventBus
from repro.obs.events import (
    ActivitySpan,
    CheckpointFailed,
    CheckpointTaken,
    ExecutionCompleted,
    ExecutionStarted,
    FailureInjected,
    RecoveryCompleted,
    ReplicaAbsorbed,
    RestartStarted,
)
from repro.resilience.base import CheckpointLevel, ExecutionPlan
from repro.sim.engine import Simulator
from repro.sim.errors import Interrupt
from repro.sim.resources import SlotPool

#: Master switch for the failure-horizon fast path (docs/PERFORMANCE.md).
#: The stepped and fast paths are bit-identical, so this exists only for
#: measurement and bisection: pass ``--no-fast-path`` on the CLI, or
#: flip the module attribute to force every engine onto the stepped
#: path.
FAST_PATH_ENABLED = True

class JumpAborted(Exception):
    """Interrupt cause that aborts a fast-path jump without a failure.

    Sent by :class:`PoolContentionGate` when a newly placed job closes
    the gate while jumps that folded shared-pool checkpoints are in
    flight.  The engine restores its pre-jump snapshot, re-folds to the
    abort instant, finishes the operation in flight with real kernel
    sleeps (taking a real pool ticket when mid-checkpoint), and returns
    to the main loop under the now-closed gate.
    """


class PoolContentionGate:
    """Tracks whether a shared :class:`SlotPool` can possibly queue anyone.

    *Inertness invariant*: while the number of running jobs whose plans
    checkpoint through the pool (``users``) is at most the pool's slot
    count and nobody is queued, every ``request()`` grants immediately
    — a job holds at most one ticket at a time and never requests while
    holding, so at any request instant held tickets <= users - 1 <=
    slots - 1 and a slot is free.  Immediate grants are invisible to
    results: the wait span is zero-length (dropped by the stats guard
    on both paths) and ``contended_requests`` stays untouched.  While
    the invariant holds the gate is *open* and engines may fold pool
    checkpoints into closed-form jumps without touching the pool.

    ``users`` only grows inside a mapping event (:meth:`job_started`),
    so open -> closed is the single transition that needs action: every
    in-flight jump that folded pool checkpoints is aborted with
    :class:`JumpAborted` and resumes stepped-equivalently.  The closed
    -> open transition (a pool user finishing, the queue draining) is
    observed lazily the next time an engine plans a jump.
    """

    def __init__(self, pool: SlotPool) -> None:
        self._pool = pool
        self._users = 0
        #: Engines mid-jump with pool checkpoints folded -> their process.
        self._jumpers: Dict[object, object] = {}

    @property
    def open(self) -> bool:
        """Whether every pool request is currently guaranteed an
        immediate grant (see the inertness invariant above)."""
        return self._users <= self._pool.slots and self._pool.queued == 0

    @property
    def users(self) -> int:
        """Running jobs whose plans checkpoint through the pool."""
        return self._users

    def job_started(self) -> None:
        """Record a newly placed pool-using job; abort in-flight
        pool-folding jumps if this closes the gate."""
        was_open = self.open
        self._users += 1
        if was_open and not self.open:
            # Snapshot the registry first: each abort handler
            # deregisters its engine via end_jump during delivery.
            for proc in list(self._jumpers.values()):
                if proc is not None and proc.alive:
                    proc.interrupt(JumpAborted())

    def job_finished(self) -> None:
        """Record a pool-using job leaving the machine."""
        self._users -= 1
        assert self._users >= 0, "pool-user accounting out of sync"

    def begin_jump(self, engine: object, process: object) -> None:
        """Register *engine* (running as *process*) as mid-jump with
        pool checkpoints folded in."""
        self._jumpers[engine] = process

    def end_jump(self, engine: object) -> None:
        """Deregister *engine* (jump finished, failed, or aborted)."""
        self._jumpers.pop(engine, None)


#: ActivitySpan activity -> the ExecutionStats field it accumulates to.
_ACTIVITY_FIELD = {
    "work": "work_time_s",
    "recovery": "rework_time_s",
    "checkpoint": "checkpoint_time_s",
    "restart": "restart_time_s",
    "wait": "resource_wait_s",
}


@dataclass
class ExecutionStats:
    """Observable outcome of one resilient execution.

    The fields are derived entirely from the instrumentation-bus event
    stream: :meth:`listen` subscribes the instance (keyed to its
    application's id) and every counter/accumulator below is updated by
    an event handler.  The engine publishes events; it never mutates
    stats directly.
    """

    plan: ExecutionPlan
    start_time: float = 0.0
    end_time: float = math.nan
    completed: bool = False
    failures: int = 0
    restarts: int = 0
    replica_failures_absorbed: int = 0
    checkpoints_taken: Dict[int, int] = field(default_factory=dict)
    failed_checkpoints: int = 0
    #: Wall seconds by activity (work excludes rework).
    work_time_s: float = 0.0
    rework_time_s: float = 0.0
    checkpoint_time_s: float = 0.0
    restart_time_s: float = 0.0
    #: Wall seconds queued for shared resources (PFS contention; zero
    #: under the paper's isolated-application model).
    resource_wait_s: float = 0.0

    @property
    def elapsed_s(self) -> float:
        """Total wall time from start to completion (or interruption)."""
        return self.end_time - self.start_time

    @property
    def total_checkpoints(self) -> int:
        """Committed checkpoints across all levels."""
        return sum(self.checkpoints_taken.values())

    @property
    def overhead_s(self) -> float:
        """Wall time beyond the plan's failure-free effective work."""
        return self.elapsed_s - self.plan.effective_work_s

    def efficiency(self) -> float:
        """Paper metric: baseline time over actual time.  Note the
        numerator is the *uninflated* baseline T_B, so message-logging
        and redundancy slowdowns count as inefficiency (Sec. V)."""
        if not self.elapsed_s > 0:
            return 0.0
        return self.plan.app.baseline_time / self.elapsed_s

    # -- bus subscription ---------------------------------------------------

    def listen(self, bus: EventBus) -> None:
        """Subscribe this instance to *bus*, keyed to its application
        id, so the stats accumulate from the event stream."""
        app_id = self.plan.app.app_id
        bus.subscribe_key(ExecutionStarted, app_id, self._on_started)
        bus.subscribe_key(ExecutionCompleted, app_id, self._on_completed)
        bus.subscribe_key(FailureInjected, app_id, self._on_failure_injected)
        bus.subscribe_key(ReplicaAbsorbed, app_id, self._on_replica_absorbed)
        bus.subscribe_key(RestartStarted, app_id, self._on_restart_started)
        bus.subscribe_key(CheckpointTaken, app_id, self._on_checkpoint_taken)
        bus.subscribe_key(CheckpointFailed, app_id, self._on_checkpoint_failed)
        bus.subscribe_key(ActivitySpan, app_id, self._on_span)

    def _on_started(self, event: ExecutionStarted) -> None:
        self.start_time = event.time

    def _on_completed(self, event: ExecutionCompleted) -> None:
        self.completed = True
        self.end_time = event.time

    def _on_failure_injected(self, event: FailureInjected) -> None:
        self.failures += 1

    def _on_replica_absorbed(self, event: ReplicaAbsorbed) -> None:
        self.replica_failures_absorbed += 1

    def _on_restart_started(self, event: RestartStarted) -> None:
        if not event.retry:
            self.restarts += 1

    def _on_checkpoint_taken(self, event: CheckpointTaken) -> None:
        counts = self.checkpoints_taken
        counts[event.level_index] = counts.get(event.level_index, 0) + 1

    def _on_checkpoint_failed(self, event: CheckpointFailed) -> None:
        self.failed_checkpoints += 1

    def _on_span(self, event: ActivitySpan) -> None:
        name = _ACTIVITY_FIELD[event.activity]
        setattr(self, name, getattr(self, name) + (event.end - event.start))


class ResilientExecution:
    """Executes one plan as a DES process.

    Usage::

        engine = ResilientExecution(sim, plan)
        proc = sim.process(engine.run(), name="app-0")
        # deliver failures with proc.interrupt(failure)
        sim.run()
        stats = engine.stats

    Observers attach to the simulator's bus, never to the engine: a
    :class:`repro.obs.sinks.TimelineSink` there collects the ``(start,
    end, activity)`` spans :func:`repro.core.timeline.render_timeline`
    draws.  No observer changes the path the engine takes.
    """

    #: Float slop when mapping positions to boundary indices.
    _EPS = 1e-9

    #: Iteration budget per greedy jump.  An interrupted jump's applied
    #: iterations are thrown away and re-folded after the failure, so
    #: unbounded jumps cost O(failures x remaining-iterations) on
    #: failure-heavy jobs; capping a jump keeps the waste per interrupt
    #: constant while still folding dozens of kernel suspensions into
    #: one sleep.  32 balances the two at fig4 scale (~sqrt of the
    #: events-per-failure ratio); both larger and smaller caps measured
    #: slower end to end.
    _GREEDY_MAX_ITERATIONS = 32

    def __init__(
        self,
        sim: Simulator,
        plan: ExecutionPlan,
        resources: Optional[Dict[str, "SlotPool"]] = None,
        failure_horizon: Optional[Callable[[], Optional[float]]] = None,
        until: Optional[float] = None,
        gate: Optional[PoolContentionGate] = None,
        greedy: bool = False,
    ) -> None:
        self._sim = sim
        self.plan = plan
        self._resources = resources or {}
        #: Callable returning the absolute time of the next pending
        #: failure interrupt (None when unknown).  Without one the
        #: engine always steps; with one it may take closed-form jumps
        #: over the failure-free stretch (see :meth:`_fast_forward`).
        self._failure_horizon = failure_horizon
        #: The kernel's run horizon (walltime cap): the fast path never
        #: jumps past it, so capped runs stop with exactly the stepped
        #: path's partial stats.
        self._until = until
        #: Greedy mode (datacenter): jump all the way to the next
        #: checkpoint-boundary structure change or completion without
        #: consulting the failure horizon, relying entirely on
        #: interrupt-and-replay for exactness.  The horizon-bounded
        #: mode (single-app) never sleeps past the next known failure.
        self._greedy = greedy
        #: Contention gate for the shared pool the plan's levels may
        #: checkpoint through (datacenter PFS).  While it reports open,
        #: pool checkpoints fold into jumps; when it closes mid-jump the
        #: engine is aborted and resumes stepped-equivalently.
        self._gate = gate
        #: Level indices whose checkpoints go through a provided pool.
        self._pool_levels = {
            lvl.index
            for lvl in plan.levels
            if lvl.shared_resource is not None
            and lvl.shared_resource in self._resources
        }
        #: Precomputed boundary -> level table for the fast path's hot
        #: loop: ``boundary_level(b)`` depends only on ``b`` modulo the
        #: lcm of the level multipliers, so a small table replaces the
        #: per-boundary scan.  Built with exactly boundary_level's
        #: last-divider-wins rule; None when the lcm is implausibly
        #: large (the scan then stays in place).
        mults = [plan.level_multiplier(lvl.index) for lvl in plan.levels]
        table_period = 1
        for mult in mults:
            table_period = math.lcm(table_period, mult)
        self._level_table: Optional[tuple] = None
        self._level_table_period = table_period
        if table_period <= 4096:
            table = []
            for residue in range(table_period):
                chosen = plan.levels[0]
                for lvl, mult in zip(plan.levels, mults):
                    if residue % mult == 0:
                        chosen = lvl
                table.append(chosen)
            self._level_table = tuple(table)
        #: This engine's process handle (see :meth:`bind_process`);
        #: needed only for gate registration.
        self._process = None
        #: True when some level may queue on a provided shared pool and
        #: no gate tracks its contention; slot waits then make the
        #: inter-failure stretch non-deterministic, so the fast path
        #: must not skip while one is possible.  With a gate the engine
        #: jumps whenever the gate proves waits impossible.
        self._contended = bool(self._pool_levels) and gate is None
        #: Fast-path introspection: closed-form jumps taken, and stepped
        #: main-loop iterations those jumps replaced.
        self.fast_jumps = 0
        self.fast_iterations_skipped = 0
        #: The simulator's shared bus (external sinks subscribe here).
        self._bus = sim.bus
        #: Engine-local bus: this execution's own stats subscribe here,
        #: so two engines that happen to share an ``app_id`` on one
        #: simulator never cross-feed each other.
        self._local_bus = EventBus()
        self._app_id = plan.app.app_id
        self._technique = plan.technique
        self.stats = ExecutionStats(plan=plan)
        self.stats.listen(self._local_bus)
        self._done = 0.0
        self._furthest = 0.0
        #: Newest checkpointed work position per level index.
        self._saved: Dict[int, float] = {lvl.index: 0.0 for lvl in plan.levels}
        #: Replicated virtual nodes currently running on one replica.
        self._degraded: Set[int] = set()
        #: In-flight semi-blocking checkpoint: (level_index, work
        #: position, commit time); committed lazily once due.
        self._pending_commit: Optional[tuple] = None

    def _publish(self, event) -> None:
        """Publish *event* on the engine-local bus (stats) and mirror it
        on the simulator's shared bus (external sinks)."""
        self._local_bus.publish(event)
        self._bus.publish(event)

    # -- observability -------------------------------------------------------

    @property
    def work_position(self) -> float:
        """Current position in effective-work space, seconds."""
        return self._done

    @property
    def progress(self) -> float:
        """Fraction of effective work committed, in [0, 1]."""
        return min(1.0, self._done / self.plan.effective_work_s)

    @property
    def degraded_virtual_nodes(self) -> int:
        """Replicated virtual nodes currently running on one replica."""
        return len(self._degraded)

    # -- process body -----------------------------------------------------------

    def run(self) -> Generator:
        """Process generator: run the application to completion."""
        plan = self.plan
        total = plan.effective_work_s
        base = plan.base_period_s
        self._publish(
            ExecutionStarted(
                time=self._sim.now, app_id=self._app_id, technique=self._technique
            )
        )
        while self._done < total - self._EPS:
            if self._fast_path_usable():
                advanced = yield from self._fast_forward(total, base)
                if advanced:
                    continue
            boundary = int(self._done / base + self._EPS) + 1
            target = min(boundary * base, total)
            reached = yield from self._work_to(target)
            if not reached:
                continue  # failure handled; position rolled back
            if self._done >= total - self._EPS:
                break
            level = plan.boundary_level(boundary)
            yield from self._checkpoint(level)
        self._publish(
            ExecutionCompleted(
                time=self._sim.now, app_id=self._app_id, technique=self._technique
            )
        )
        return self.stats

    # -- internals -----------------------------------------------------------

    def _work_to(self, target: float) -> Generator:
        """Advance work to *target*; False if a failure intervened."""
        while self._done < target - self._EPS:
            if self._done < self._furthest - self._EPS:
                segment_end = min(self._furthest, target)
                speed = self.plan.recovery_speedup
                recovering = True
            else:
                segment_end = target
                speed = 1.0
                recovering = False
            duration = (segment_end - self._done) / speed
            started = self._sim.now
            kind = "recovery" if recovering else "work"
            try:
                yield duration
            except Interrupt as interrupt:
                elapsed = self._sim.now - started
                self._advance(elapsed, speed)
                self._note(kind, started, self._sim.now)
                yield from self._on_failure(interrupt.cause)
                return False
            self._advance(duration, speed)
            self._note(kind, started, self._sim.now)
        return True

    def _advance(self, wall_s: float, speed: float) -> None:
        self._done = min(
            self.plan.effective_work_s, self._done + wall_s * speed
        )
        self._furthest = max(self._furthest, self._done)

    # -- failure-horizon fast path -------------------------------------------

    def set_failure_horizon(
        self, provider: Callable[[], Optional[float]]
    ) -> None:
        """Install the fast path's horizon *provider* (a callable
        returning the absolute time of the next pending failure
        interrupt, or None when unknown) after construction — failure
        sources usually need the engine's process to exist first."""
        self._failure_horizon = provider

    def bind_process(self, process) -> None:
        """Attach this engine's :class:`~repro.sim.process.Process`
        handle so the contention gate can deliver jump aborts.  Like
        :meth:`set_failure_horizon` this happens after construction —
        the process wrapping :meth:`run` cannot exist before the
        engine does."""
        self._process = process

    def _fast_path_usable(self) -> bool:
        """Whether the next stretch may be advanced in closed form.

        The fast path skips the per-boundary kernel events, so it is
        only taken when nothing can tell the difference: shared-pool
        contention without a gate makes slot waits possible inside the
        stretch.  Observers never decide it: jumps buffer the domain
        events they fold and publish them once realized
        (:meth:`_fast_forward`), so each job publishes the stepped
        path's event sequence, and
        :func:`repro.core.datacenter.run_datacenter` puts the events of
        different jobs in one order.  The horizon-bounded mode
        additionally needs a horizon provider; greedy mode needs none
        (interrupts abort the jump wherever they land).
        """
        if not FAST_PATH_ENABLED or self._contended:
            return False
        return self._greedy or self._failure_horizon is not None

    def _fast_forward(self, total: float, base: float) -> Generator:
        """Closed-form jump over the failure-free stretch.

        Folds whole main-loop iterations (work segments + boundary
        checkpoint) whose kernel suspensions would all land strictly
        before the next failure interrupt and at or before the run
        horizon (:meth:`_fold`), then sleeps once to the folded end
        time.  Returns True when anything was applied (the main loop
        then re-evaluates) and False to fall back to one stepped
        iteration.

        The horizon may move *earlier* mid-jump (the datacenter
        injector re-draws its pending gap on every allocation change,
        and a system failure may strike another application first); the
        interrupt then lands inside the jump timeout, and the engine
        restores its pre-jump snapshot and re-folds to the interrupt
        instant, cutting the operation in flight short exactly as the
        stepped path would have, before handling the failure normally.

        Greedy mode (datacenter) ignores the horizon entirely: the jump
        runs to completion (or the run cap, the iteration budget, or
        the first iteration the contention gate forbids) and relies on
        interrupt-and-replay for any failure that lands inside it — the
        engine only wakes when a failure actually strikes *it*.  Jumps
        that fold shared-pool checkpoints register with the gate, whose
        closing aborts them mid-sleep (:class:`JumpAborted` ->
        :meth:`_resume_after_abort`); while the gate is closed, folding
        stops before the first pool-backed boundary so that checkpoint
        queues for real.

        With domain-event subscribers on the shared bus, the fold
        buffers the events the stepped path publishes for what it
        applies, and the buffer reaches the shared bus only once the
        jump is realized: whole when the timeout completes, or rebuilt
        by the re-fold up to an interrupt or an abort.  A jump never
        publishes an event that did not happen.  The engine-local bus
        gets none of them, since the fold already updated the stats.
        """
        start = self._sim.now
        limit = None
        if self._greedy:
            horizon = math.inf
            limit = self._GREEDY_MAX_ITERATIONS
        else:
            fire = self._failure_horizon()
            horizon = math.inf if fire is None else fire
            if horizon <= start:
                return False  # the pending failure is due right now
        gate = self._gate
        snapshot = self._snapshot_state()
        events = [] if self._bus.has_subscribers else None
        t, iterations, uses_pool, _ = self._fold(
            start,
            total,
            base,
            horizon=horizon,
            cap=math.inf if self._until is None else self._until,
            limit=limit,
            gate=gate,
            events=events,
        )
        self.fast_iterations_skipped += iterations
        if t == start:
            return False
        self.fast_jumps += 1
        if uses_pool:
            gate.begin_jump(self, self._process)
        try:
            yield self._sim.timeout_at(t)
        except Interrupt as interrupt:
            if uses_pool:
                gate.end_jump(self)
            # Re-folds take no bounds: they re-apply iterations this
            # jump already accepted, under a gate that may have closed.
            self._restore_state(snapshot)
            if isinstance(interrupt.cause, JumpAborted):
                yield from self._resume_after_abort(start, total, base)
                return True
            # A failure at a wake instant preempts the wake, so an
            # operation ending exactly at the interrupt is cut short.
            self._cut_short(self._refold(start, total, base, self._sim.now))
            yield from self._on_failure(interrupt.cause)
            return True
        if uses_pool:
            gate.end_jump(self)
        for event in events or ():
            self._bus.publish(event)
        return True

    def _refold(self, start: float, total: float, base: float, cut: float) -> tuple:
        """Re-fold the restored pre-jump state (taken at *start*) up to
        *cut*, publish the events of what it applied, and return the
        straddler (see :meth:`_fold`)."""
        events = [] if self._bus.has_subscribers else None
        straddler = self._fold(start, total, base, cut=cut, events=events)[3]
        for event in events or ():
            self._bus.publish(event)
        return straddler

    def _fold(
        self,
        t: float,
        total: float,
        base: float,
        cut: float = math.inf,
        horizon: float = math.inf,
        cap: float = math.inf,
        limit: Optional[int] = None,
        gate: Optional[PoolContentionGate] = None,
        events: Optional[list] = None,
    ) -> Tuple[float, int, bool, Optional[tuple]]:
        """Apply main-loop iterations from virtual time *t* in closed form.

        An iteration is the stepped path's :meth:`run` loop body — work
        and recovery segments to the next boundary (:meth:`_work_to`),
        then the boundary checkpoint after pending-commit settlement
        (:meth:`_checkpoint`) — computed with the same float operations
        in program order (wake times are ``started + duration`` there
        too, via the kernel's ``now + delay`` scheduling).  No RNG is
        consumed between failures, so state and stats land
        bit-identical (docs/PERFORMANCE.md; the bit-identity suites
        enforce it).

        A jump folds until completion or *limit* iterations, stopping
        before an iteration whose last suspension reaches *horizon* (a
        failure there preempts the wake), ends past *cap*, makes no
        progress, or checkpoints through the pool while *gate* is
        closed.  A re-fold passes *cut* instead and stops at the first
        timed operation whose end reaches it, leaving that *straddler*
        unapplied: ``(activity, start, end, duration, speed,
        boundary)`` — its planned span, the duration and speed its
        stepped sleep advances work by (speed 0 for a checkpoint, whose
        pending-commit settlement is already applied), and the boundary
        its iteration runs to.

        With an *events* list, the fold appends the ``ActivitySpan``,
        ``CheckpointTaken`` and ``CheckpointFailed`` events the stepped
        path publishes for each operation it applies, with the same
        times, fields and order; a rejected iteration takes its events
        back out.

        Returns ``(t, iterations, uses_pool, straddler)``: the virtual
        time after the whole iterations applied, their count, whether
        any of them checkpointed through the gated pool, and the
        straddler (None unless *cut* was reached).
        """
        plan = self.plan
        stats = self.stats
        eps = self._EPS
        recovery_speedup = plan.recovery_speedup
        pool_levels = self._pool_levels if gate is not None else ()
        table = self._level_table
        table_period = self._level_table_period
        # This is the hot path of every simulation.  Work/rework totals
        # are accumulated as the segments are computed and restored
        # bit-exactly from the saved scalars when the iteration turns
        # out unacceptable (the only state touched before the
        # acceptance check); everything else commits after it.  The
        # engine's scalar state lives in locals for the duration of the
        # loop and is written back once at exit — there are no yields
        # inside, so no one can observe the in-flight locals.
        done_v = self._done
        furthest_v = self._furthest
        pending_v = self._pending_commit
        work_v = stats.work_time_s
        rework_v = stats.rework_time_s
        ckpt_v = stats.checkpoint_time_s
        failed_v = stats.failed_checkpoints
        saved = self._saved
        degraded = self._degraded
        counts = stats.checkpoints_taken
        app_id = self._app_id
        technique = self._technique
        # Length of *events* after the last accepted iteration: a
        # rejected one cuts its spans back to it.
        mark = 0 if events is None else len(events)
        uses_pool = False
        iterations = 0
        straddler = None
        while True:
            d = done_v
            f = furthest_v
            work0 = work_v
            rework0 = rework_v
            boundary = int(d / base + eps) + 1
            target = boundary * base
            if target > total:
                target = total
            tt = t
            while d < target - eps:
                if d < f - eps:
                    seg_pos = f if f < target else target
                    speed = recovery_speedup
                    rework_seg = True
                else:
                    seg_pos = target
                    speed = 1.0
                    rework_seg = False
                duration = (seg_pos - d) / speed
                seg_start = tt
                tt = tt + duration
                if tt >= cut:
                    activity = "recovery" if rework_seg else "work"
                    straddler = (activity, seg_start, tt, duration, speed, boundary)
                    break
                d = d + duration * speed
                if d > total:
                    d = total
                if d > f:
                    f = d
                if tt > seg_start:
                    if rework_seg:
                        rework_v = rework_v + (tt - seg_start)
                    else:
                        work_v = work_v + (tt - seg_start)
                    if events is not None:
                        kind = "recovery" if rework_seg else "work"
                        events.append(
                            ActivitySpan(tt, app_id, technique, kind, seg_start, tt)
                        )
            if straddler is not None:
                done_v = d
                furthest_v = f
                break
            completed = d >= total - eps
            seg_end = tt
            level = None
            blocking = 0.0
            iteration_uses_pool = False
            if not completed:
                level = (
                    table[boundary % table_period]
                    if table is not None
                    else plan.boundary_level(boundary)
                )
                if level.index in pool_levels:
                    # This boundary checkpoint goes through the shared
                    # pool: fold it only while the gate proves every
                    # request grants immediately; otherwise stop here
                    # and let it queue for real on the stepped path.
                    if not gate.open:
                        work_v = work0
                        rework_v = rework0
                        if events is not None:
                            del events[mark:]
                        break
                    iteration_uses_pool = True
                blocking = level.cost_s * level.blocking_fraction
                tt = tt + blocking
            end = tt
            # Suspension instants grow monotonically through the
            # iteration, so checking its last one covers them all.  A
            # failure exactly at a wake instant preempts the wake
            # (FAILURE_PRIORITY / the driver's earlier event), hence
            # the strict horizon comparison.
            if end >= horizon or end > cap or end <= t:
                work_v = work0
                rework_v = rework0
                if events is not None:
                    del events[mark:]
                break
            # -- accepted: commit position and checkpoint effects.
            done_v = d
            furthest_v = f
            if not completed:
                if pending_v is not None:
                    idx, work, commit_time = pending_v
                    pending_v = None
                    if commit_time <= seg_end + eps:
                        saved[idx] = work
                        if degraded:
                            degraded.clear()
                        counts[idx] = counts.get(idx, 0) + 1
                        if events is not None:
                            events.append(
                                CheckpointTaken(seg_end, app_id, technique, idx, work)
                            )
                    else:
                        failed_v += 1
                        if events is not None:
                            events.append(
                                CheckpointFailed(seg_end, app_id, technique, idx)
                            )
                if end >= cut:
                    straddler = ("checkpoint", seg_end, end, blocking, 0.0, boundary)
                    break
                if end > seg_end:
                    ckpt_v = ckpt_v + (end - seg_end)
                if level.blocking_fraction >= 1.0:
                    saved[level.index] = d
                    if degraded:
                        degraded.clear()
                    counts[level.index] = counts.get(level.index, 0) + 1
                else:
                    remainder = level.cost_s - blocking
                    pending_v = (level.index, d, end + remainder)
                if events is not None:
                    # Apart from the updates above, so that the unobserved
                    # path pays one check here per iteration.
                    if end > seg_end:
                        events.append(
                            ActivitySpan(
                                end, app_id, technique, "checkpoint", seg_end, end
                            )
                        )
                    if level.blocking_fraction >= 1.0:
                        events.append(
                            CheckpointTaken(end, app_id, technique, level.index, d)
                        )
                    mark = len(events)
                if iteration_uses_pool:
                    uses_pool = True
            t = end
            iterations += 1
            if completed or iterations == limit:
                break  # for the limit, see _GREEDY_MAX_ITERATIONS
        self._done = done_v
        self._furthest = furthest_v
        self._pending_commit = pending_v
        stats.work_time_s = work_v
        stats.rework_time_s = rework_v
        stats.checkpoint_time_s = ckpt_v
        stats.failed_checkpoints = failed_v
        return t, iterations, uses_pool, straddler

    def _cut_short(self, straddler: tuple) -> None:
        """Apply a re-folded straddler (see :meth:`_fold`) that a
        failure interrupts now, with the stepped path's interrupt
        arithmetic (:meth:`_work_to`, :meth:`_checkpoint`)."""
        activity, started, _end, _duration, speed, boundary = straddler
        now = self._sim.now
        if activity == "checkpoint":
            self._note(activity, started, now)
            self._checkpoint_failed(self.plan.boundary_level(boundary).index)
        else:
            self._advance(now - started, speed)
            self._note(activity, started, now)

    def _snapshot_state(self) -> tuple:
        """Everything a fold may mutate, for re-folding after an
        interrupt."""
        stats = self.stats
        return (
            self._done,
            self._furthest,
            dict(self._saved),
            set(self._degraded),
            self._pending_commit,
            stats.work_time_s,
            stats.rework_time_s,
            stats.checkpoint_time_s,
            stats.failed_checkpoints,
            dict(stats.checkpoints_taken),
        )

    def _restore_state(self, snapshot: tuple) -> None:
        stats = self.stats
        (
            self._done,
            self._furthest,
            self._saved,
            self._degraded,
            self._pending_commit,
            stats.work_time_s,
            stats.rework_time_s,
            stats.checkpoint_time_s,
            stats.failed_checkpoints,
            stats.checkpoints_taken,
        ) = snapshot

    def _resume_after_abort(
        self, start: float, total: float, base: float
    ) -> Generator:
        """Resume stepped-equivalently after the gate aborted a jump.

        The abort lands at the instant T a mapping event closed the
        gate.  On the stepped path nothing special happens at T: wake
        events at (T, wake-priority) ran *before* the mapping, so every
        operation ending at or before T completed, and exactly one
        timed operation is in flight across T.  Re-folding the restored
        pre-jump state (taken at *start*) to just past T rebuilds that
        picture.  The operation in flight then sleeps to its *planned*
        end (never re-deriving the remainder: ``(T - s) + (e - T)``
        need not equal ``e - s`` in floats).  An in-flight pool
        checkpoint re-acquires a real ticket at T — guaranteed
        immediate because stepped-path holders plus mid-jump
        checkpointers never exceed the pre-flip user count, which the
        open gate bounded by the slot count.  The rest of the iteration
        runs through the stepped code under the now-closed gate, and
        failures during any of it take exactly the stepped path's
        interrupt branches.
        """
        straddler = self._refold(
            start, total, base, math.nextafter(self._sim.now, math.inf)
        )
        activity, started, end, duration, speed, boundary = straddler
        level = self.plan.boundary_level(boundary)
        ticket = None
        if activity == "checkpoint":
            pool = self._resources.get(level.shared_resource)
            if pool is not None:
                ticket = pool.request()
        try:
            yield self._sim.timeout_at(end)
        except Interrupt as interrupt:
            if ticket is not None:
                ticket.release()
            self._cut_short(straddler)
            yield from self._on_failure(interrupt.cause)
            return
        if activity == "checkpoint":
            if ticket is not None:
                ticket.release()
            self._close_checkpoint(level, started, duration)
            return
        self._advance(duration, speed)
        self._note(activity, started, end)
        reached = yield from self._work_to(min(boundary * base, total))
        if reached and self._done < total - self._EPS:
            yield from self._checkpoint(level)

    def _checkpoint(self, level: CheckpointLevel) -> Generator:
        """Take a checkpoint at *level*; on failure the in-progress
        checkpoint is discarded.

        With ``blocking_fraction < 1`` only the blocking portion stalls
        execution; the checkpoint commits once its full cost has
        elapsed in the background (or is voided by an earlier failure
        or by the next checkpoint starting first)."""
        self._settle_pending_commit()
        try:
            ticket = yield from self._acquire(level)
        except Interrupt as interrupt:
            self._checkpoint_failed(level.index)
            yield from self._on_failure(interrupt.cause)
            return False
        blocking = level.cost_s * level.blocking_fraction
        started = self._sim.now
        try:
            yield blocking
        except Interrupt as interrupt:
            if ticket is not None:
                ticket.release()
            self._note("checkpoint", started, self._sim.now)
            self._checkpoint_failed(level.index)
            yield from self._on_failure(interrupt.cause)
            return False
        if ticket is not None:
            ticket.release()
        self._close_checkpoint(level, started, blocking)
        return True

    def _close_checkpoint(
        self, level: CheckpointLevel, started: float, blocking: float
    ) -> None:
        """End a checkpoint whose blocking part ran from *started* to
        now: commit it, or leave it pending until its full cost has
        elapsed."""
        self._note("checkpoint", started, self._sim.now)
        if level.blocking_fraction >= 1.0:
            self._commit(level.index, self._done)
        else:
            remainder = level.cost_s - blocking
            self._pending_commit = (
                level.index,
                self._done,
                self._sim.now + remainder,
            )

    def _commit(self, level_index: int, work: float) -> None:
        self._saved[level_index] = work
        self._degraded.clear()  # checkpoints repair failed replicas
        self._publish(
            CheckpointTaken(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                level_index=level_index,
                position=work,
            )
        )

    def _checkpoint_failed(self, level_index: int) -> None:
        self._publish(
            CheckpointFailed(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                level_index=level_index,
            )
        )

    def _settle_pending_commit(self) -> None:
        """Apply an in-flight semi-blocking checkpoint if its full cost
        has elapsed; otherwise void it (a failure arrived first, or the
        next checkpoint superseded it)."""
        if self._pending_commit is None:
            return
        level_index, work, commit_time = self._pending_commit
        self._pending_commit = None
        if commit_time <= self._sim.now + self._EPS:
            self._commit(level_index, work)
        else:
            self._checkpoint_failed(level_index)

    def _absorbed_by_replica(self, failure: Failure) -> bool:
        """Redundancy rule: True when live replicas keep every struck
        virtual node running (no interruption).

        Handles burst failures (``failure.width > 1``): the burst
        strikes contiguous physical nodes, so it can take out both
        (adjacent) replicas of a virtual node at once — the spatial-
        correlation hazard of contiguous partner placement."""
        replicas = self.plan.replicas
        if replicas is None:
            return False
        start = failure.node_id % replicas.physical_nodes
        stop = min(start + failure.width, replicas.physical_nodes)
        hits: Dict[int, int] = {}
        for phys in range(start, stop):
            virtual = replicas.virtual_of_physical(phys)
            hits[virtual] = hits.get(virtual, 0) + 1
        for virtual, struck in hits.items():
            total = replicas.replicas_of(virtual)
            already_dead = 1 if (total == 2 and virtual in self._degraded) else 0
            if already_dead + struck >= total:
                return False  # some virtual node lost all replicas
        for virtual in hits:
            if replicas.replicas_of(virtual) == 2:
                self._degraded.add(virtual)
        self._publish(
            ReplicaAbsorbed(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                degraded_virtual_nodes=len(self._degraded),
            )
        )
        return True

    def _failure_injected(self, failure: Optional[Failure], severity: int) -> None:
        """Publish the delivery of one failure interrupt.  *severity*
        covers interrupts whose cause carries no failure object."""
        if failure is not None:
            self._publish(
                FailureInjected(
                    time=self._sim.now,
                    app_id=self._app_id,
                    node_id=failure.node_id,
                    severity=failure.severity,
                    width=failure.width,
                )
            )
        else:
            self._publish(
                FailureInjected(
                    time=self._sim.now,
                    app_id=self._app_id,
                    node_id=-1,
                    severity=severity,
                )
            )

    def _on_failure(self, failure: Failure) -> Generator:
        """Handle one delivered failure: maybe absorb, else restart."""
        self._failure_injected(failure, failure.severity if failure else 0)
        self._settle_pending_commit()
        if self._absorbed_by_replica(failure):
            return
        severity = failure.severity
        retry = False
        while True:
            level = self._restore_level(severity)
            self._publish(
                RestartStarted(
                    time=self._sim.now,
                    app_id=self._app_id,
                    technique=self._technique,
                    severity=severity,
                    level_index=level.index,
                    retry=retry,
                )
            )
            try:
                ticket = yield from self._acquire(level)
            except Interrupt as interrupt:
                cause = interrupt.cause
                self._failure_injected(cause, severity)
                severity = max(severity, cause.severity if cause else severity)
                retry = True
                continue
            started = self._sim.now
            try:
                yield level.restart_s
            except Interrupt as interrupt:
                # Failure during restart: restart the restart, from the
                # worst severity seen (replicas are all mid-restore, so
                # no absorption applies here).
                if ticket is not None:
                    ticket.release()
                self._note("restart", started, self._sim.now)
                cause = interrupt.cause
                self._failure_injected(cause, severity)
                severity = max(severity, cause.severity if cause else severity)
                retry = True
                continue
            if ticket is not None:
                ticket.release()
            self._note("restart", started, self._sim.now)
            break
        self._publish(
            RecoveryCompleted(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                level_index=level.index,
                position=self._saved[level.index],
            )
        )
        self._degraded.clear()
        self._done = self._saved[level.index]

    def _acquire(self, level: CheckpointLevel) -> Generator:
        """Queue for the level's shared resource, if any.

        Returns a held ticket (or None when uncontended); propagates
        interrupts after abandoning the request.
        """
        pool = (
            self._resources.get(level.shared_resource)
            if level.shared_resource is not None
            else None
        )
        if pool is None:
            return None
        ticket = pool.request()
        started = self._sim.now
        try:
            yield from ticket.wait()
        except Interrupt:
            ticket.abandon()
            self._note("wait", started, self._sim.now)
            raise
        self._note("wait", started, self._sim.now)
        return ticket

    def _note(self, activity: str, start: float, end: float) -> None:
        """Publish the closed activity span (zero-length spans are
        skipped; they carry no time)."""
        if end > start:
            self._publish(
                ActivitySpan(
                    time=end,
                    app_id=self._app_id,
                    technique=self._technique,
                    activity=activity,
                    start=start,
                    end=end,
                )
            )

    def _restore_level(self, severity: int) -> CheckpointLevel:
        """The level holding the newest state recoverable at *severity*
        (ties favour the cheaper restart)."""
        usable = self.plan.recovery_levels(severity)
        return max(usable, key=lambda lvl: (self._saved[lvl.index], -lvl.restart_s))
