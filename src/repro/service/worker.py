"""The in-process worker pool: a local agent inside ``repro serve``.

Since the control-plane/agent split, all execution machinery lives in
:class:`repro.service.agent.WorkerAgent`; this module keeps the
historical :class:`WorkerPool` surface by wiring that engine to a
:class:`repro.service.agent.LocalJobSource` — direct calls on the
:class:`repro.service.store.JobStore` interface, no HTTP.  ``repro
serve`` with in-process workers therefore behaves exactly as it did
before the split, while remote ``repro agent`` processes drive the
very same engine over the API.

The pool adds one thing the generic agent doesn't have: periodic
result-cache pruning, hung on the agent's per-tick hook.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Callable, Optional

from repro.experiments.parallel import ResultCache
from repro.obs import counters as obs_counters
from repro.service.agent import LocalJobSource, WorkerAgent
from repro.service.store import JobStore


class WorkerPool(WorkerAgent):
    """Runs jobs claimed from a :class:`JobStore` in-process.

    ``workers=0`` is a valid paused pool (jobs queue up but never
    run — used by tests and by operators staging work).  *cache* and
    *prune_max_bytes* wire the periodic cache pruning; *on_idle* is an
    optional test hook called when the puller finds nothing to claim.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 1,
        lease_s: float = 60.0,
        poll_interval_s: float = 0.05,
        cache: Optional[ResultCache] = None,
        prune_max_bytes: Optional[int] = None,
        prune_interval_s: float = 300.0,
        telemetry: Optional[Any] = None,
        on_idle: Optional[Callable[[], None]] = None,
    ) -> None:
        self.store = store
        self.prune_max_bytes = prune_max_bytes
        self.prune_interval_s = prune_interval_s
        self._prune_due = threading.Event()
        self._last_prune = time.monotonic()
        super().__init__(
            LocalJobSource(store),
            workers=workers,
            batch_size=max(workers, 1),
            lease_s=lease_s,
            poll_interval_s=poll_interval_s,
            cache=cache,
            identity=f"local-{uuid.uuid4().hex[:8]}",
            telemetry=telemetry,
            on_idle=on_idle,
            on_tick=self._maybe_prune,
        )

    def prune_now(self) -> None:
        """Ask the puller to prune the cache on its next tick."""
        self._prune_due.set()

    def _maybe_prune(self) -> None:
        if self.cache is None or self.prune_max_bytes is None:
            return
        now = time.monotonic()
        if (
            not self._prune_due.is_set()
            and now - self._last_prune < self.prune_interval_s
        ):
            return
        self._prune_due.clear()
        self._last_prune = now
        removed, removed_bytes = self.cache.prune(self.prune_max_bytes)
        if removed:
            obs_counters.increment("service.cache_pruned", removed)
            obs_counters.increment(
                "service.cache_pruned_bytes", removed_bytes
            )
