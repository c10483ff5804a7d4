"""System-wide failure injection for the datacenter simulator.

The injector runs on the DES and generates failures at the Eq. 2 rate
``lambda_s = N_s / M_n`` where ``N_s`` is the *current* number of active
nodes.  Because the active-node count changes whenever an application
maps or finishes, the rate is piecewise constant; on every change the
pending failure is cancelled and the gap re-drawn at the new rate (valid
by the memorylessness of the exponential — see
:class:`repro.rng.VariableRatePoisson`).

Each fired failure picks a uniformly random active node, draws a
severity, and hands ``(owner, Failure)`` to the registered callback,
which routes it to the owning application's execution process as an
:class:`repro.sim.Interrupt`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Optional

import numpy as np

from repro.failures.generator import Failure
from repro.failures.rates import system_failure_rate
from repro.failures.severity import SeverityModel
from repro.platform.system import HPCSystem
from repro.rng.distributions import exponential
from repro.sim.engine import Simulator
from repro.sim.events import Event, FAILURE_PRIORITY

if TYPE_CHECKING:  # pragma: no cover
    from repro.failures.burst import BurstModel

FailureHandler = Callable[[Hashable, Failure], None]


class FailureInjector:
    """Generates system failures and dispatches them to owners."""

    def __init__(
        self,
        sim: Simulator,
        system: HPCSystem,
        node_mtbf_s: float,
        rng: np.random.Generator,
        on_failure: FailureHandler,
        severity: Optional[SeverityModel] = None,
        burst: Optional["BurstModel"] = None,
    ) -> None:
        if node_mtbf_s <= 0:
            raise ValueError(f"node_mtbf_s must be > 0, got {node_mtbf_s}")
        self._sim = sim
        self._system = system
        self._mtbf = node_mtbf_s
        self._rng = rng
        self._on_failure = on_failure
        self._severity = severity if severity is not None else SeverityModel.default()
        self._burst = burst
        self._pending: Optional[Event] = None
        self.failures_injected = 0
        self._started = False

    @property
    def current_rate(self) -> float:
        """The instantaneous system failure rate (per second)."""
        return system_failure_rate(self._system.active_nodes, self._mtbf)

    def start(self) -> None:
        """Arm the injector (idempotent)."""
        self._started = True
        self._reschedule()

    def stop(self) -> None:
        """Disarm the injector and cancel any pending failure."""
        self._started = False
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None

    def next_fire_time(self) -> Optional[float]:
        """Absolute simulated time of the pending failure event, or
        None when the injector is disarmed or the machine is idle.

        This is the horizon the execution engine's fast path skips to.
        The pending gap is re-drawn on every allocation change, so the
        value is only valid until the caller next yields to the kernel
        — the engine handles an interrupt landing earlier than a stale
        horizon by snapshotting before each jump and replaying.
        """
        pending = self._pending
        if pending is None or pending.cancelled:
            return None
        return pending.time

    def notify_allocation_change(self) -> None:
        """Must be called whenever the active-node count changes; the
        pending failure gap is re-drawn at the new rate."""
        if self._started:
            self._reschedule()

    # -- internal -----------------------------------------------------------

    def _reschedule(self) -> None:
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None
        rate = self.current_rate
        if rate <= 0.0:
            return  # fully idle machine: failures suspended
        delay = exponential(self._rng, rate)
        self._pending = self._sim.schedule(
            delay, self._fire, priority=FAILURE_PRIORITY
        )

    def _fire(self, event: Event) -> None:
        self._pending = None
        owner, node_id = self._system.sample_active_node(self._rng)
        severity = self._severity.sample(self._rng)
        width = 1 if self._burst is None else self._burst.sample_width(self._rng)
        self.failures_injected += 1
        if width == 1:
            self._on_failure(
                owner, Failure(time=self._sim.now, node_id=node_id, severity=severity)
            )
        else:
            self._fire_burst(node_id, severity, width)
        # The handler may have changed allocations (it usually does not —
        # applications hold their nodes through restart/recovery), so
        # re-arm from the post-handler state.
        self._reschedule()

    def _fire_burst(self, start: int, severity: int, width: int) -> None:
        """Deliver a burst of adjacent node failures, split per owner.

        A burst can straddle allocation boundaries: every affected
        application receives one failure covering its contiguous chunk
        of the burst; idle nodes in the range absorb their share.
        """
        stop = min(start + width, self._system.total_nodes)
        chunk_owner: Optional[Hashable] = None
        chunk_start = start
        for node in range(start, stop + 1):
            owner = (
                self._system.owner_of_node(node) if node < stop else None
            )
            if owner != chunk_owner:
                if chunk_owner is not None:
                    self._on_failure(
                        chunk_owner,
                        Failure(
                            time=self._sim.now,
                            node_id=chunk_start,
                            severity=severity,
                            width=node - chunk_start,
                        ),
                    )
                chunk_owner = owner
                chunk_start = node
