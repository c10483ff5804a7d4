"""Which public functions of each layer the traced runs time.

The ``install_*`` functions patch one process's copies of those
functions with span-recording wrappers (see :mod:`spans`).  The
benchmark process calls :func:`install_simulation` for the in-process
workloads; :mod:`launch` calls :func:`install_server` or
:func:`install_agent` inside the ``repro serve`` and ``repro agent``
subprocesses.  Nothing under ``src/repro`` knows about it.

Span names, by layer:

- ``sim``: ``Simulator.run`` (attribute ``events``);
- ``single_app``: ``simulate_application`` (one trial; engine counters
  ``fast_jumps``, ``iterations_folded`` and ``failures`` of the engines
  it created);
- ``datacenter``: ``run_datacenter_batch`` (``patterns`` and the same
  engine counters);
- ``plan``: every resilience technique's ``plan()``;
- ``executor``: ``TrialExecutor.run`` (``cells`` and ``cell_s``, the
  summed per-cell compute wall the executor itself measured);
- ``cache.get`` / ``cache.put``: ``ResultCache`` (``hits``, and
  ``lookups`` made with the cache enabled);
- ``entry``: ``run_request``;
- ``scenarios.compile``: ``compile_scenario``;
- ``api``: the HTTP handler's ``do_GET`` / ``do_POST`` / ``do_DELETE``;
- ``store.<method>``: the SQLite job store (``claim_batch`` records
  ``claimed`` and ``empty``);
- ``campaign.step``: one adaptive-campaign controller step;
- ``agent.claim`` / ``agent.execute``: the remote agent's claim call
  and its job execution.
"""

from __future__ import annotations

from typing import Any, Dict, List

from spans import Tracer

#: Store methods timed as ``store.<name>``.
STORE_METHODS = (
    "submit",
    "get",
    "list_jobs",
    "counts",
    "queue_depth",
    "claim_batch",
    "renew",
    "complete",
    "fail",
    "release",
    "cancel",
    "result_text",
    "register_site",
    "heartbeat_site",
    "list_sites",
    "site_stats",
)


def _engine_counters(engines: List[Any]) -> Dict[str, float]:
    """Sum and forget the counters of the engines built since the last
    harvest (calls that build engines never nest on one thread)."""
    out = {
        "fast_jumps": sum(e.fast_jumps for e in engines),
        "iterations_folded": sum(e.fast_iterations_skipped for e in engines),
        "failures": sum(e.stats.failures for e in engines),
    }
    engines.clear()
    return out


def install_simulation(tracer: Tracer) -> None:
    """Wrap the simulation layers (every process that simulates)."""
    from repro.core import datacenter, execution, single_app
    from repro.experiments import entry, parallel
    from repro.resilience import base as resilience_base
    from repro.sim import engine

    # Import every technique so each subclass defining plan() exists.
    import repro.resilience.registry  # noqa: F401

    engines: List[Any] = []
    original_init = execution.ResilientExecution.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        engines.append(self)

    tracer.patch(execution.ResilientExecution, "__init__", init)

    tracer.wrap(
        engine.Simulator,
        "run",
        "sim",
        after=lambda result, args, kwargs: {"events": args[0].event_count},
    )
    tracer.wrap(
        single_app,
        "simulate_application",
        "single_app",
        after=lambda result, args, kwargs: dict(
            trials=1, **_engine_counters(engines)
        ),
        everywhere=True,
    )
    tracer.wrap(
        datacenter,
        "run_datacenter_batch",
        "datacenter",
        after=lambda result, args, kwargs: dict(
            patterns=len(args[0]), **_engine_counters(engines)
        ),
        everywhere=True,
    )
    seen = set()
    pending = [resilience_base.ResilienceTechnique]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "plan" in vars(cls) and cls not in seen:
            seen.add(cls)
            tracer.wrap(cls, "plan", "plan")

    original_run = parallel.TrialExecutor.run

    def executor_run(self, tasks):
        index = tracer.begin("executor")
        before = len(self.metrics.cell_wall_s)
        try:
            return original_run(self, tasks)
        finally:
            tracer.end(
                index,
                cells=len(tasks),
                cell_s=sum(self.metrics.cell_wall_s[before:]),
            )

    tracer.patch(parallel.TrialExecutor, "run", executor_run)
    tracer.wrap(
        parallel.ResultCache,
        "get",
        "cache.get",
        after=lambda result, args, kwargs: {
            "hits": int(result[0]),
            "lookups": int(args[0].enabled),
        },
    )
    tracer.wrap(parallel.ResultCache, "put", "cache.put")
    tracer.wrap(entry, "run_request", "entry", everywhere=True)


def install_server(tracer: Tracer) -> None:
    """Wrap the control-plane layers (``repro serve``)."""
    from repro.campaigns import controller
    from repro.scenarios import compiler
    from repro.service import api, store_sqlite

    install_simulation(tracer)
    for method in ("do_GET", "do_POST", "do_DELETE"):
        tracer.wrap(api.ServiceRequestHandler, method, "api")

    def claimed(result, args, kwargs):
        return {"claimed": len(result), "empty": int(not result)}

    for method in STORE_METHODS:
        tracer.wrap(
            store_sqlite.SQLiteJobStore,
            method,
            f"store.{method}",
            after=claimed if method == "claim_batch" else None,
        )
    tracer.wrap(compiler, "compile_scenario", "scenarios.compile", everywhere=True)
    original_step = controller.Campaign.step

    def step(self, *args, **kwargs):
        # Each controller tick steps every registered campaign; only
        # steps of adaptive campaigns still in flight do work.
        if self.adaptive is None or self.done:
            return original_step(self, *args, **kwargs)
        index = tracer.begin("campaign.step")
        try:
            return original_step(self, *args, **kwargs)
        finally:
            tracer.end(index)

    tracer.patch(controller.Campaign, "step", step)


def install_agent(tracer: Tracer) -> None:
    """Wrap the worker-agent layers (``repro agent``)."""
    from repro.service import agent, jobs

    install_simulation(tracer)
    tracer.wrap(agent.RemoteJobSource, "claim_batch", "agent.claim")
    tracer.wrap(jobs.JobSpec, "execute", "agent.execute")
