"""Command-line interface: regenerate any table or figure, run the
analysis utilities, and operate the job service.

Examples::

    repro table1
    repro table2 --fraction 0.5
    repro fig1 --trials 200
    repro fig2 --quick --format barchart
    repro fig4 --patterns 50 --format csv
    repro regime-map
    repro sweep --sweep checkpoint_interval
    repro validate --app-type C32 --fraction 0.12
    repro timeline --app-type C32 --fraction 0.5 --mtbf-years 2.5
    repro all --quick

    repro scenario list                      # bundled scenario library
    repro scenario show weibull-aging
    repro scenario validate my-study.toml
    repro scenario run fig1 --quick
    repro scenario run burst-storm --jobs 4 --export results/storm
    repro scenario submit trace-replay --wait  # campaign over HTTP
    repro scenario submit sweep.toml --adaptive --wait
    repro campaign status <campaign-id>      # adaptive lifecycle

    repro serve --port 8642 --workers 2      # start the job service
    repro submit fig1 --quick --format json  # enqueue over HTTP
    repro status <job-id>
    repro result <job-id>
    repro watch <job-id>                     # live SSE event stream
    repro cache stats
    repro cache prune --max-mb 256

Experiment subcommands render their artifact on stdout; progress,
executor metrics, and timing chatter go to stderr so ``--format
csv``/``json`` stdout stays machine-readable.  Figure runs dispatch
through :mod:`repro.experiments.entry` — the same code path the job
service uses — so both produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro import __version__
from repro.experiments.entry import RequestError, StudyRequest, run_request
from repro.experiments.parallel import (
    CellProgress,
    ExecutorMetrics,
    ExecutorOptions,
    ResultCache,
)

#: Default service URL for the client verbs (matches ``repro serve``).
DEFAULT_SERVICE_URL = "http://127.0.0.1:8642"


def _positive_int(text: str) -> int:
    """Argparse type for ``--jobs``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _print_cell_progress(progress: CellProgress) -> None:
    """``--progress`` reporter: one line per cell on stderr."""
    print(progress.render(), file=sys.stderr)


def _executor_options(args: argparse.Namespace) -> ExecutorOptions:
    """Executor settings for one figure run: worker count and cache
    from the flags, a fresh metrics sink, and (with ``--progress``)
    per-cell reporting on stderr."""
    on_cell: Optional[Callable[[CellProgress], None]] = None
    if args.progress:
        on_cell = _print_cell_progress
    return ExecutorOptions(
        jobs=args.jobs,
        cache=not args.no_cache,
        metrics=ExecutorMetrics(),
        on_cell=on_cell,
    )


def _observe_requested(args: argparse.Namespace) -> bool:
    """Whether ``--trace-out`` / ``--metrics-out`` ask for observation."""
    return bool(args.trace_out or args.metrics_out)


def _write_observability(result, args: argparse.Namespace) -> None:
    """Write the study's event stream / metrics to the requested files."""
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for line in result.trace_lines or ():
                fh.write(line)
                fh.write("\n")
        print(
            f"[wrote {len(result.trace_lines or ())} events to {args.trace_out}]",
            file=sys.stderr,
        )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(result.metrics or {}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[wrote metrics to {args.metrics_out}]", file=sys.stderr)


def _request_from_args(name: str, args: argparse.Namespace) -> StudyRequest:
    """The :class:`StudyRequest` equivalent of one CLI invocation."""
    return StudyRequest(
        experiment=name,
        format=args.format or "table",
        trials=args.trials,
        patterns=args.patterns,
        quick=args.quick,
        fraction=args.fraction,
        mtbf_years=args.mtbf_years,
        sweep=args.sweep,
    )


def _run_figure(name: str, args: argparse.Namespace) -> str:
    """Run a figure through the shared entrypoint (service-identical)."""
    options = _executor_options(args)
    observe = _observe_requested(args)
    outcome = run_request(
        _request_from_args(name, args), options=options, observe=observe
    )
    if observe and outcome.result is not None:
        _write_observability(outcome.result, args)
    # Metrics go to stderr so csv/json stdout stays machine-readable.
    print(options.metrics.render(name), file=sys.stderr)
    return outcome.text


def _run_entry(name: str, args: argparse.Namespace) -> str:
    """Run a non-figure artifact (tables, regime map, sweeps)."""
    return run_request(
        _request_from_args(name, args), options=_executor_options(args)
    ).text


def _run_validate(args: argparse.Namespace) -> str:
    from repro.analysis.validation import validate_plan
    from repro.core.single_app import SingleAppConfig
    from repro.platform.presets import exascale_system
    from repro.resilience.registry import scaling_study_techniques
    from repro.units import years
    from repro.workload.synthetic import make_application

    system = exascale_system()
    app = make_application(
        args.app_type, nodes=system.fraction_to_nodes(args.fraction)
    )
    config = SingleAppConfig(node_mtbf_s=years(args.mtbf_years))
    lines = [
        f"Simulator vs. closed-form model ({args.app_type}, "
        f"{100 * args.fraction:.0f}% of system, MTBF {args.mtbf_years:g} y):"
    ]
    for technique in scaling_study_techniques():
        if not technique.fits(app, system):
            lines.append(f"{technique.name:<22} infeasible on this machine")
            continue
        report = validate_plan(
            app, technique, system, trials=args.trials, config=config
        )
        lines.append(str(report))
    return "\n".join(lines)


def _run_timeline(args: argparse.Namespace) -> str:
    from repro.core.execution import ResilientExecution
    from repro.core.single_app import SingleAppConfig, failure_driver
    from repro.core.timeline import render_timeline
    from repro.failures.generator import AppFailureGenerator
    from repro.platform.presets import exascale_system
    from repro.resilience.registry import datacenter_techniques
    from repro.rng.streams import StreamFactory
    from repro.sim.engine import Simulator
    from repro.units import years
    from repro.workload.synthetic import make_application

    system = exascale_system()
    app = make_application(
        args.app_type, nodes=system.fraction_to_nodes(args.fraction)
    )
    config = SingleAppConfig(node_mtbf_s=years(args.mtbf_years))
    blocks: List[str] = []
    for technique in datacenter_techniques():
        plan = technique.plan(
            app, system, config.node_mtbf_s, severity=config.severity_model()
        )
        sim = Simulator()
        engine = ResilientExecution(sim, plan, record_timeline=True)
        proc = sim.process(engine.run(), name="app")
        generator = AppFailureGenerator(
            StreamFactory(config.seed).stream("failures"),
            nodes=plan.nodes_required,
            node_mtbf_s=config.node_mtbf_s,
            severity=config.severity_model(),
        )
        sim.process(failure_driver(sim, proc, generator), name="failures")
        sim.run(until=config.max_time_factor * plan.effective_work_s)
        stats = engine.stats
        blocks.append(
            f"=== {technique.name} ===\n"
            f"failures {stats.failures}, restarts {stats.restarts}, "
            f"efficiency {stats.efficiency():.3f}\n"
            + render_timeline(engine.timeline)
        )
    return "\n\n".join(blocks)


_EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": lambda a: _run_entry("table1", a),
    "table2": lambda a: _run_entry("table2", a),
    "fig1": lambda a: _run_figure("fig1", a),
    "fig2": lambda a: _run_figure("fig2", a),
    "fig3": lambda a: _run_figure("fig3", a),
    "fig4": lambda a: _run_figure("fig4", a),
    "fig5": lambda a: _run_figure("fig5", a),
    "regime-map": lambda a: _run_entry("regime-map", a),
    "sweep": lambda a: _run_entry("sweep", a),
    "validate": _run_validate,
    "timeline": _run_timeline,
}

#: Subcommands run by ``repro all`` (the utilities run too; figures in
#: quick mode unless overridden).
_ALL_ORDER = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "regime-map",
]


# ---------------------------------------------------------------------------
# Service verbs
# ---------------------------------------------------------------------------


def _require_target(args: argparse.Namespace, what: str) -> str:
    """The second positional argument, or a one-line usage error."""
    if not args.target:
        raise RequestError(
            f"'repro {args.experiment}' needs {what} "
            f"(e.g. 'repro {args.experiment} <{what.split()[-1]}>')"
        )
    return args.target


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import ReproService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        db_path=args.store,
        queue_limit=args.queue_limit,
        cache_max_mb=args.max_mb,
        cache_prune_interval_s=args.prune_interval_s,
        log_requests=args.progress,
    )
    service = ReproService(config)
    service.start()
    print(
        f"repro service listening on {service.url} "
        f"(store {config.db_path}, "
        f"{config.workers} workers)",
        flush=True,
    )
    service.serve_forever()
    print("repro service stopped (queue drained and persisted)", file=sys.stderr)
    return 0


def _default_site_name() -> str:
    """A site name derived from the host (sanitized for URL paths)."""
    import re
    import socket

    name = re.sub(r"[^A-Za-z0-9._-]", "-", socket.gethostname()).strip("-.")
    return name or "site"


def _cmd_agent(args: argparse.Namespace) -> int:
    """``repro agent``: run a remote worker agent against a control
    plane — register the site, pull batches of leased jobs over the
    API, execute them, push results, drain gracefully on SIGTERM."""
    from repro.service.agent import RemoteJobSource, WorkerAgent
    from repro.service.client import ServiceClient

    from repro.telemetry import EventForwarder, ForwardingTelemetry

    site = args.site or _default_site_name()
    workers = max(args.workers, 1)
    client = ServiceClient(args.url, timeout=args.timeout)
    source = RemoteJobSource(client, site)
    # Forward watched jobs' live simulation events back to the control
    # plane (batched, best-effort) so `repro watch` sees remote runs.
    forwarder = EventForwarder(client, site)
    agent = WorkerAgent(
        source,
        workers=workers,
        batch_size=args.batch_size,
        lease_s=args.lease_s,
        cache=ResultCache(enabled=True),
        telemetry=ForwardingTelemetry(forwarder, source.is_watched),
    )
    agent.start()
    print(
        f"repro agent {agent.identity} serving site {site} "
        f"against {args.url} ({workers} workers)",
        flush=True,
    )
    agent.run_forever()
    print(
        f"repro agent {agent.identity} stopped "
        "(leases released or completed)",
        file=sys.stderr,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    experiment = _require_target(args, "an experiment name")
    payload = {
        "experiment": experiment,
        "format": args.format or "table",
        "trials": args.trials,
        "patterns": args.patterns,
        "quick": args.quick,
        "fraction": args.fraction,
        "mtbf_years": args.mtbf_years,
        "sweep": args.sweep,
        "jobs": args.jobs,
        "cache": not args.no_cache,
    }
    client = ServiceClient(args.url)
    record = client.submit(payload)
    if not args.wait:
        print(record["id"])
        return 0
    print(f"[submitted {record['id']}; waiting]", file=sys.stderr)
    final = client.wait(record["id"], timeout=args.timeout)
    if final["state"] != "done":
        print(
            f"repro: job {record['id']} ended {final['state']}: "
            f"{final.get('error') or 'no result'}",
            file=sys.stderr,
        )
        return 1
    print(client.result(record["id"]))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    job_id = _require_target(args, "a job id")
    record = ServiceClient(args.url).status(job_id)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    job_id = _require_target(args, "a job id")
    print(ServiceClient(args.url).result(job_id))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    action = args.target or "stats"
    cache = ResultCache()
    if action == "stats":
        print(cache.stats().render())
        return 0
    if action == "prune":
        if args.max_mb is None:
            raise RequestError(
                "'repro cache prune' needs --max-mb N (target size in MiB)"
            )
        removed, removed_bytes = cache.prune(int(args.max_mb * 1024 * 1024))
        print(
            f"pruned {removed} entries ({removed_bytes / (1024 * 1024):.1f} MiB); "
            + cache.stats().render()
        )
        return 0
    raise RequestError(
        f"unknown cache action {action!r} (choose from stats, prune)"
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign status <id>``: poll one campaign's lifecycle
    (``--wait`` blocks until done; ``--format table`` renders the
    convergence summary instead of the raw JSON)."""
    from repro.service.client import ServiceClient

    action = args.target or "status"
    if action != "status":
        raise RequestError(
            f"unknown campaign action {action!r} (choose from: status)"
        )
    campaign_id = args.extra
    if not campaign_id:
        raise RequestError(
            "'repro campaign status' needs a campaign id "
            "(printed by 'repro scenario submit --adaptive')"
        )
    client = ServiceClient(args.url)
    if args.wait:
        status = client.wait_campaign(campaign_id, timeout=args.timeout)
    else:
        status = client.campaign_status(campaign_id)
    if args.format == "table" and status.get("adaptive"):
        _print_campaign_summary(status)
    else:
        print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _print_event_frame(frame: Dict[str, Any]) -> None:
    """One line per SSE frame (the ``repro watch`` output format)."""
    name = frame["event"]
    data = frame["data"]
    if name == "event":
        kind = data.get("kind", "?")
        scope = (
            data.get("job_id")
            or data.get("campaign_id")
            or data.get("site")
            or ""
        )
        detail = json.dumps(data.get("data", {}), sort_keys=True)
        print(f"{kind:<24} {scope}  {detail}", flush=True)
    elif name == "snapshot":
        print(f"{'snapshot':<24} state={data.get('state')}", flush=True)
    elif name == "gap":
        print(
            f"[gap: {data.get('missed')} events evicted before resume]",
            file=sys.stderr,
            flush=True,
        )
    elif name == "end":
        print(
            f"{'end':<24} {json.dumps(data, sort_keys=True)}", flush=True
        )


def _cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch <job-id|campaign-id>``: follow the live event
    stream of one job (lifecycle + in-flight simulation events) or
    campaign (controller progress) until it finishes.

    Exit status mirrors the outcome: 0 when the job/campaign ends
    ``done``, 1 on a failed or cancelled job.
    """
    from repro.service.client import ServiceClient, ServiceError

    target = _require_target(args, "a job or campaign id")
    client = ServiceClient(args.url, timeout=args.timeout)
    campaign = None
    try:
        client.status(target)
    except ServiceError as exc:
        if exc.status != 404:
            raise
        try:
            campaign = client.campaign_status(target)
        except ServiceError as exc2:
            if exc2.status == 404:
                raise RequestError(
                    f"no job or campaign {target!r} at {args.url}"
                )
            raise

    if campaign is None:
        outcome = None
        for frame in client.iter_events(job_id=target):
            _print_event_frame(frame)
            if frame["event"] == "end":
                outcome = frame["data"].get("kind") or frame["data"].get(
                    "state"
                )
        return 0 if outcome in ("job.done", "done", None) else 1

    if campaign["state"] == "done":
        print(f"campaign {target} already done", flush=True)
        return 0
    for frame in client.iter_events():
        if frame["event"] == "gap":
            _print_event_frame(frame)
            continue
        if frame["event"] != "event":
            continue
        if frame["data"].get("campaign_id") != target:
            continue
        _print_event_frame(frame)
        if frame["data"].get("kind") == "campaign.done":
            return 0
    return 0


_SERVICE_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "serve": _cmd_serve,
    "agent": _cmd_agent,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "result": _cmd_result,
    "cache": _cmd_cache,
    "campaign": _cmd_campaign,
    "watch": _cmd_watch,
}


# ---------------------------------------------------------------------------
# Scenario verbs
# ---------------------------------------------------------------------------


_SCENARIO_ACTIONS = ("list", "show", "validate", "run", "submit")


def _scenario_spec_path(name: str) -> bool:
    """Whether the scenario argument is a file path (vs a bundled name)."""
    import os

    return (
        os.sep in name
        or "/" in name
        or name.endswith((".toml", ".json"))
    )


def _scenario_export(
    directory: str, label: str, fmt: str, text: str, campaign
) -> None:
    """``--export DIR``: write one unit's artifact plus its provenance
    sidecar (scenario name, canonical-spec SHA-256, package version)."""
    import os

    os.makedirs(directory, exist_ok=True)
    ext = {"csv": "csv", "json": "json"}.get(fmt, "txt")
    artifact = os.path.join(directory, f"{label}.{ext}")
    with open(artifact, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    sidecar = os.path.join(directory, f"{label}.provenance.json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "scenario": campaign.spec.scenario.name,
                "spec_sha256": campaign.sha256,
                "version": __version__,
                "label": label,
                "format": fmt,
                "notes": list(campaign.notes),
                "analytic_bypass": campaign.analytic_bypass,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"[exported {artifact} (+ provenance sidecar)]", file=sys.stderr)


def _scenario_list(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios, load_named

    for name in list_scenarios():
        spec = load_named(name)
        print(f"{name:<24} {spec.scenario.title}")
    return 0


def _scenario_show(args: argparse.Namespace, name: str) -> int:
    from repro.scenarios import load_scenario, resolve, spec_sha256
    from repro.scenarios.compiler import compile_scenario

    path = resolve(name)
    spec = load_scenario(path)
    campaign = compile_scenario(spec)
    lines = [
        f"scenario    {spec.scenario.name}",
        f"source      {path}",
        f"sha256      {spec_sha256(spec)}",
    ]
    if spec.scenario.title:
        lines.append(f"title       {spec.scenario.title}")
    if spec.scenario.description:
        lines.append(f"description {spec.scenario.description}")
    for unit in campaign.units:
        lines.append(
            f"unit        {unit.label} -> experiment "
            f"'{unit.request.experiment}', format {unit.request.format}"
        )
    for note in campaign.notes:
        lines.append(f"note        {note}")
    print("\n".join(lines))
    return 0


def _scenario_validate(args: argparse.Namespace, name: str) -> int:
    from repro.scenarios import load_scenario, resolve
    from repro.scenarios.compiler import compile_scenario

    path = resolve(name)
    spec = load_scenario(path)
    campaign = compile_scenario(spec)
    print(
        f"{path}: OK — scenario '{spec.scenario.name}', "
        f"sha256 {campaign.sha256[:12]}…, {len(campaign.units)} unit(s)"
    )
    return 0


def _scenario_run(args: argparse.Namespace, name: str) -> int:
    from dataclasses import replace

    from repro.scenarios import load_scenario, resolve
    from repro.scenarios.compiler import compile_scenario

    spec = load_scenario(resolve(name))
    campaign = compile_scenario(spec, quick=args.quick)
    for note in campaign.notes:
        print(f"[{note}]", file=sys.stderr)
    options = _executor_options(args)
    for unit in campaign.units:
        request = unit.request
        if args.format is not None:
            request = replace(request, format=args.format)
        outcome = run_request(request, options=options)
        print(outcome.text)
        if args.export:
            _scenario_export(
                args.export, unit.label, request.format, outcome.text, campaign
            )
    print(
        options.metrics.render(f"scenario {spec.scenario.name}"),
        file=sys.stderr,
    )
    return 0


def _adaptive_field(args: argparse.Namespace) -> Optional[object]:
    """The ``adaptive`` field of a campaign submission from the CLI
    flags: ``False`` for ``--no-adaptive``, a config object when any
    knob was given, ``True`` for a bare ``--adaptive``, ``None`` to
    let the spec's own ``[adaptive]`` section decide."""
    if args.no_adaptive:
        return False
    overrides: Dict[str, object] = {}
    if args.max_trials is not None:
        overrides["max_trials"] = args.max_trials
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.ci_threshold is not None:
        overrides["ci_rel_threshold"] = args.ci_threshold
    if args.refine_depth is not None:
        overrides["refine_depth"] = args.refine_depth
    if overrides:
        return overrides
    return True if args.adaptive else None


def _print_campaign_summary(status: Dict[str, object]) -> None:
    """Render one adaptive campaign's convergence summary on stderr
    and (when done) its winning-technique table on stdout."""
    trials = status.get("trials") or {}
    cells = status.get("cells") or []
    settled = sum(1 for c in cells if c["settled"])
    converged = sum(1 for c in cells if c["converged"])
    reduction = trials.get("reduction")
    print(
        f"[campaign {status['state']}: {settled}/{len(cells)} cells "
        f"settled ({converged} converged), "
        f"{trials.get('executed', 0)} trials executed vs "
        f"{trials.get('exhaustive', 0)} exhaustive"
        + (f" ({reduction:.2f}x reduction)" if reduction else "")
        + "]",
        file=sys.stderr,
    )
    if status.get("table"):
        print(status["table"])


def _scenario_submit(args: argparse.Namespace, name: str) -> int:
    from repro.service.client import ServiceClient

    payload: Dict[str, object] = {
        "quick": args.quick,
        "jobs": args.jobs,
        "cache": not args.no_cache,
    }
    adaptive = _adaptive_field(args)
    if adaptive is not None:
        payload["adaptive"] = adaptive
        if adaptive is not False:
            payload["quick"] = False
    if args.format is not None:
        payload["format"] = args.format
    if _scenario_spec_path(name):
        # A local spec file: ship the parsed document inline (a trace
        # regime's relative trace_file then resolves on the service
        # host, against the service's working directory).
        from repro.scenarios import load_scenario, resolve
        from repro.scenarios.spec import spec_to_dict

        payload["spec"] = spec_to_dict(load_scenario(resolve(name)))
    else:
        payload["scenario"] = name
    client = ServiceClient(args.url)
    campaign = client.submit_campaign(payload)
    if campaign.get("adaptive"):
        print(
            f"[adaptive campaign '{campaign['scenario']}' "
            f"sha256 {campaign['spec_sha256'][:12]}…: id {campaign['id']}, "
            f"{campaign['cells']} cell(s), {campaign['jobs']} batch job(s)]",
            file=sys.stderr,
        )
        if not args.wait:
            print(campaign["id"])
            return 0
        final = client.wait_campaign(campaign["id"], timeout=args.timeout)
        _print_campaign_summary(final)
        failed = [
            c
            for c in final.get("cells", [])
            if c["settled"] and str(c["stop_reason"] or "").startswith(
                ("failed", "cancelled", "error")
            )
        ]
        return 1 if failed else 0
    print(
        f"[campaign '{campaign['scenario']}' "
        f"sha256 {campaign['spec_sha256'][:12]}…: "
        f"{len(campaign['units'])} job(s)]",
        file=sys.stderr,
    )
    if not args.wait:
        for unit in campaign["units"]:
            print(unit["job"]["id"])
        return 0
    exit_code = 0
    for unit in campaign["units"]:
        job_id = unit["job"]["id"]
        final = client.wait(job_id, timeout=args.timeout)
        if final["state"] != "done":
            print(
                f"repro: job {job_id} ({unit['label']}) ended "
                f"{final['state']}: {final.get('error') or 'no result'}",
                file=sys.stderr,
            )
            exit_code = 1
            continue
        print(client.result(job_id))
    return exit_code


# ---------------------------------------------------------------------------
# Grid / energy verbs
# ---------------------------------------------------------------------------


_GRID_ACTIONS = ("show", "quote")
_ENERGY_ACTIONS = ("report",)


def _analytic_cells(spec):
    """The (system, node_mtbf_s, severity, fractions, techniques,
    make_app) ingredients for the analytic grid/energy reports of one
    scaling scenario; rejects specs the closed-form model cannot price."""
    from repro.constants import (
        EXASCALE_NODES,
        SCALING_STUDY_BASELINE_S,
        SCALING_STUDY_FRACTIONS,
    )
    from repro.failures.severity import SeverityModel
    from repro.platform.presets import exascale_system
    from repro.resilience.registry import (
        get_technique,
        scaling_study_techniques,
    )
    from repro.scenarios.compiler import scenario_analytic_reason
    from repro.units import MINUTE, years
    from repro.workload.synthetic import make_application

    if spec.workload.study != "scaling":
        raise RequestError(
            "grid/energy reports quote scaling studies (the datacenter "
            "study has no fixed per-technique execution to price)"
        )
    if spec.sweep is not None:
        raise RequestError(
            "grid/energy reports quote one grid point; drop the [sweep] "
            "section (or quote a single-value scenario per axis point)"
        )
    reason = scenario_analytic_reason(spec)
    if reason is not None:
        raise RequestError(f"analytic quotes unavailable: {reason}")
    system = exascale_system(
        spec.platform.total_nodes
        if spec.platform.total_nodes is not None
        else EXASCALE_NODES
    )
    node_mtbf_s = years(spec.failures.mtbf_years)
    severity = (
        SeverityModel.from_probabilities(spec.failures.severity_pmf)
        if spec.failures.severity_pmf is not None
        else None
    )
    fractions = (
        spec.workload.fractions
        if spec.workload.fractions is not None
        else SCALING_STUDY_FRACTIONS
    )
    techniques = (
        [get_technique(name) for name in spec.techniques]
        if spec.techniques is not None
        else list(scaling_study_techniques())
    )

    def make_app(fraction: float):
        return make_application(
            spec.workload.app_type,
            nodes=system.fraction_to_nodes(fraction),
            time_steps=max(1, round(SCALING_STUDY_BASELINE_S / MINUTE)),
        )

    return system, node_mtbf_s, severity, fractions, techniques, make_app


def _load_grid_scenario(name: str):
    """Load a scenario and its materialized grid context (requiring a
    ``[grid]`` section for the grid verbs)."""
    from repro.scenarios import load_scenario, resolve
    from repro.scenarios.compiler import _load_grid_traces
    from repro.scenarios.runtime import grid_context

    spec = load_scenario(resolve(name))
    if spec.grid is None:
        raise RequestError(
            f"scenario '{spec.scenario.name}' has no [grid] section"
        )
    return spec, grid_context(spec, _load_grid_traces(spec))


def _cmd_grid(args: argparse.Namespace) -> int:
    """``repro grid show|quote <scenario>``: the grid curves on their
    daily clock, or the analytic $-and-gCO2 quote of every candidate
    technique (the closed-form twin of a grid scenario run)."""
    action = args.target
    if action not in _GRID_ACTIONS:
        raise RequestError(
            f"unknown grid action {action!r} "
            f"(choose from {', '.join(_GRID_ACTIONS)})"
        )
    if not args.extra:
        raise RequestError(
            f"'repro grid {action}' needs a bundled scenario name or a "
            "spec path with a [grid] section"
        )
    spec, ctx = _load_grid_scenario(args.extra)
    if action == "show":
        return _grid_show(spec, ctx)
    return _grid_quote(spec, ctx)


def _grid_show(spec, ctx) -> int:
    """Curve summaries plus exact hourly means over one day."""
    from repro.scenarios.runtime import _HOUR_S

    print(f"scenario    {spec.scenario.name}")
    print(f"objective   {ctx.objective}")
    print(f"start_hour  {ctx.offset_s / _HOUR_S:g}")
    print(
        f"power       busy {ctx.power.busy_w:g} W, "
        f"idle {ctx.power.idle_w:g} W per node"
    )
    for role, curve in (("price", ctx.price), ("carbon", ctx.carbon)):
        if curve is None:
            continue
        desc = ", ".join(
            f"{k}={v}" for k, v in sorted(curve.to_dict().items())
        )
        print(f"\n{role}: {desc}")
        print("hour   " + " ".join(f"{h:>7d}" for h in range(0, 24, 3)))
        print(
            "mean   "
            + " ".join(
                f"{curve.mean(h * _HOUR_S, (h + 3) * _HOUR_S):>7.4g}"
                for h in range(0, 24, 3)
            )
        )
    return 0


def _grid_quote(spec, ctx) -> int:
    """Analytic per-technique quotes, per fraction, with the
    efficiency-vs-objective pick (flips marked)."""
    from repro.resilience.grid_aware import quote

    system, node_mtbf_s, severity, fractions, techniques, make_app = (
        _analytic_cells(spec)
    )
    header = (
        f"{'size%':>6} {'technique':<22} {'nodes':>9} {'E[eff]':>8} "
        f"{'kWh':>14} {'USD':>14} {'gCO2':>16}"
    )
    print(
        f"Analytic grid quote — scenario {spec.scenario.name}, "
        f"objective={ctx.objective}"
    )
    print(header)
    print("-" * len(header))
    for fraction in fractions:
        app = make_app(fraction)
        rows = []
        for technique in techniques:
            if not technique.fits(app, system):
                print(
                    f"{100 * fraction:>6.0f} {technique.name:<22} "
                    f"{'---':>9} {'---':>8} {'---':>14} {'---':>14} "
                    f"{'---':>16}"
                )
                continue
            q = quote(
                technique,
                app,
                system,
                node_mtbf_s,
                severity=severity,
                power=ctx.power,
                price=ctx.price,
                carbon=ctx.carbon,
                start_s=ctx.offset_s,
            )
            rows.append(q)
            print(
                f"{100 * fraction:>6.0f} {q.technique:<22} "
                f"{q.nodes:>9,d} {q.expected_efficiency:>8.3f} "
                f"{q.cost.energy_kwh:>14,.1f} "
                f"{q.cost.total_usd:>14,.2f} {q.cost.total_g:>16,.0f}"
            )
        if not rows:
            continue
        best_eff = max(rows, key=lambda q: q.expected_efficiency).technique
        best_obj = min(
            rows, key=lambda q: q.objective_value(ctx.objective)
        ).technique
        line = (
            f"{100 * fraction:>5.0f}%: best by efficiency = {best_eff}, "
            f"best by {ctx.objective} = {best_obj}"
        )
        if best_obj != best_eff:
            line += "  [flip]"
        print(line)
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    """``repro energy report <scenario>``: expected per-technique joule
    breakdown (work / rework / checkpoint) per fraction.  Works with or
    without a ``[grid]`` section; with one, its power model applies."""
    from repro.energy.model import PowerModel
    from repro.grid.curves import J_PER_KWH
    from repro.resilience.grid_aware import expected_energy
    from repro.scenarios import load_scenario, resolve
    from repro.scenarios.runtime import grid_context

    action = args.target
    if action not in _ENERGY_ACTIONS:
        raise RequestError(
            f"unknown energy action {action!r} "
            f"(choose from {', '.join(_ENERGY_ACTIONS)})"
        )
    if not args.extra:
        raise RequestError(
            "'repro energy report' needs a bundled scenario name or a "
            "spec path"
        )
    spec = load_scenario(resolve(args.extra))
    power = (
        grid_context(spec).power if spec.grid is not None else PowerModel()
    )
    system, node_mtbf_s, severity, fractions, techniques, make_app = (
        _analytic_cells(spec)
    )
    header = (
        f"{'size%':>6} {'technique':<22} {'work kWh':>14} "
        f"{'rework kWh':>14} {'ckpt kWh':>14} {'total kWh':>14} "
        f"{'overhead x':>11}"
    )
    print(
        f"Expected energy — scenario {spec.scenario.name}, "
        f"busy {power.busy_w:g} W / idle {power.idle_w:g} W per node"
    )
    print(header)
    print("-" * len(header))
    for fraction in fractions:
        app = make_app(fraction)
        for technique in techniques:
            if not technique.fits(app, system):
                print(
                    f"{100 * fraction:>6.0f} {technique.name:<22} "
                    f"{'---':>14} {'---':>14} {'---':>14} {'---':>14} "
                    f"{'---':>11}"
                )
                continue
            plan = technique.plan(app, system, node_mtbf_s, severity)
            energy = expected_energy(
                plan, node_mtbf_s, severity=severity, power=power
            )
            print(
                f"{100 * fraction:>6.0f} {technique.name:<22} "
                f"{energy.work_j / J_PER_KWH:>14,.1f} "
                f"{energy.rework_j / J_PER_KWH:>14,.1f} "
                f"{energy.checkpoint_j / J_PER_KWH:>14,.1f} "
                f"{energy.total_j / J_PER_KWH:>14,.1f} "
                f"{energy.total_j / energy.work_j:>11.3f}"
            )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """Dispatch ``repro scenario <action> [name-or-path]``."""
    action = args.target or "list"
    if action not in _SCENARIO_ACTIONS:
        raise RequestError(
            f"unknown scenario action {action!r} "
            f"(choose from {', '.join(_SCENARIO_ACTIONS)})"
        )
    if action == "list":
        return _scenario_list(args)
    name = args.extra
    if not name:
        raise RequestError(
            f"'repro scenario {action}' needs a bundled scenario name or "
            f"a spec path (e.g. 'repro scenario {action} fig1'; "
            "'repro scenario list' shows the bundled ones)"
        )
    handler = {
        "show": _scenario_show,
        "validate": _scenario_validate,
        "run": _scenario_run,
        "submit": _scenario_submit,
    }[action]
    return handler(args, name)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of Dauwe et al., 'An Analysis "
            "of Resilience Techniques for Exascale Computing Platforms' "
            "(IPDPSW 2017), run the analysis utilities, and operate the "
            "persistent job service (serve/submit/status/result/cache)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS)
        + ["all", "scenario", "grid", "energy"]
        + sorted(_SERVICE_COMMANDS),
        help=(
            "which artifact to regenerate ('all' runs everything), "
            "'scenario list|show|validate|run|submit' for declarative "
            "scenario specs, 'grid show|quote <scenario>' / 'energy "
            "report <scenario>' for the analytic cost-and-carbon views, "
            "or a service verb: serve, agent, submit "
            "<experiment>, status <job-id>, result <job-id>, "
            "watch <job-or-campaign-id>, campaign status <campaign-id>, "
            "cache stats|prune"
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "argument of the scenario/service verbs: the scenario action "
            "(list|show|validate|run|submit), the experiment to submit, "
            "the job id for status/result, or the cache action "
            "(stats|prune)"
        ),
    )
    parser.add_argument(
        "extra",
        nargs="?",
        default=None,
        help=(
            "second argument of the scenario verbs: a bundled scenario "
            "name ('repro scenario list') or a path to a .toml/.json spec"
        ),
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=200,
        help="trials per bar for figs 1-3 and validate (paper: 200)",
    )
    parser.add_argument(
        "--patterns",
        type=int,
        default=50,
        help="arrival patterns for figs 4-5 (paper: 50)",
    )
    parser.add_argument(
        "--fraction",
        type=float,
        default=1.0,
        help="system fraction for table2 / validate / timeline",
    )
    parser.add_argument(
        "--app-type",
        default="C32",
        help="Table I type for validate / timeline (default C32)",
    )
    parser.add_argument(
        "--mtbf-years",
        type=float,
        default=10.0,
        help="node MTBF in years for regime-map / validate / timeline",
    )
    parser.add_argument(
        "--format",
        choices=("table", "barchart", "csv", "json"),
        default=None,
        help=(
            "output format for the figure drivers (default table; for "
            "'scenario run' the spec's run.format wins unless this flag "
            "is given)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="statistically coarse but fast run (CI-sized)",
    )
    parser.add_argument(
        "--sweep",
        choices=("severity_pmf", "recovery_parallelism", "checkpoint_interval"),
        default="checkpoint_interval",
        help="which parameter sweep 'repro sweep' runs",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=(
            "worker processes for the figure drivers (default 1 = serial; "
            "results are bit-identical for any value)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "recompute every cell instead of reusing results/.cache/ "
            "(the cache is keyed by config+technique+seed, so hits are "
            "always exact)"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "report per-cell progress (wall time, trials/s, cache hits) on "
            "stderr; for 'serve', log HTTP requests"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=(
            "write the figure run's domain-event stream as JSON Lines "
            "(one event per line; figs 1-5 only; disables the result cache "
            "for the run)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help=(
            "write aggregated event counts and activity seconds as JSON "
            "(figs 1-5 only; disables the result cache for the run)"
        ),
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help=(
            "with 'scenario run': also write each unit's artifact and a "
            "<label>.provenance.json sidecar (scenario name, canonical "
            "spec SHA-256, package version, compiler notes) into DIR"
        ),
    )
    parser.add_argument(
        "--no-fast-path",
        action="store_true",
        help=(
            "disable the failure-horizon fast path and run every "
            "simulation on the stepped event-by-event path (results are "
            "bit-identical either way; see docs/PERFORMANCE.md)"
        ),
    )
    service = parser.add_argument_group("service options")
    service.add_argument(
        "--host", default="127.0.0.1", help="bind address for 'repro serve'"
    )
    service.add_argument(
        "--port",
        type=int,
        default=8642,
        help="API port for 'repro serve' (0 picks an ephemeral port)",
    )
    service.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads draining the job queue (0 = accept only)",
    )
    service.add_argument(
        "--queue-limit",
        type=_positive_int,
        default=256,
        help="queued-job bound; submissions beyond it get HTTP 429",
    )
    service.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help="service URL for submit/status/result",
    )
    service.add_argument(
        "--wait",
        action="store_true",
        help="with 'submit': poll until the job finishes and print its result",
    )
    service.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="with 'submit --wait': polling timeout in seconds",
    )
    service.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help=(
            "cache size target in MiB for 'repro cache prune' and the "
            "service's periodic pruning"
        ),
    )
    service.add_argument(
        "--prune-interval-s",
        type=float,
        default=300.0,
        help="seconds between the service's cache-prune checks",
    )
    service.add_argument(
        "--store",
        default="results/service.db",
        metavar="URL",
        help=(
            "job store of 'repro serve': a backend URL "
            "(sqlite://results/service.db) or a bare SQLite path; "
            "survives restarts"
        ),
    )
    service.add_argument(
        "--site",
        default=None,
        metavar="NAME",
        help=(
            "site name 'repro agent' registers with the control plane "
            "(default: derived from the hostname)"
        ),
    )
    service.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "jobs 'repro agent' leases per claim (default: its worker "
            "count); for 'scenario submit --adaptive', trials per batch "
            "job"
        ),
    )
    adaptive = parser.add_argument_group("adaptive campaign options")
    adaptive.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "with 'scenario submit': run the campaign under the "
            "server-side adaptive controller (CI-based early stopping "
            "plus crossover refinement over dependency-chained batches)"
        ),
    )
    adaptive.add_argument(
        "--no-adaptive",
        action="store_true",
        help=(
            "with 'scenario submit': force a plain exhaustive campaign "
            "even when the spec carries an [adaptive] section"
        ),
    )
    adaptive.add_argument(
        "--max-trials",
        type=_positive_int,
        default=None,
        metavar="N",
        help="adaptive per-cell trial budget (default from the spec or 200)",
    )
    adaptive.add_argument(
        "--ci-threshold",
        type=float,
        default=None,
        metavar="REL",
        help=(
            "adaptive convergence threshold: stop a cell once its 95%% "
            "CI half-width falls below REL of the mean (default 0.02)"
        ),
    )
    adaptive.add_argument(
        "--refine-depth",
        type=int,
        default=None,
        metavar="D",
        help=(
            "adaptive crossover-bisection rounds between adjacent "
            "fractions whose best technique differs (0 disables; "
            "default 1)"
        ),
    )
    service.add_argument(
        "--lease-s",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help=(
            "lease duration 'repro agent' requests; its jobs are "
            "re-claimable this long after the agent dies"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.core import execution

    args = build_parser().parse_args(argv)
    fast_path = execution.FAST_PATH_ENABLED
    if args.no_fast_path:
        # Covers this process and the parallel executor's workers,
        # which are forked from it.
        execution.FAST_PATH_ENABLED = False
    try:
        if args.experiment == "scenario":
            return _cmd_scenario(args)
        if args.experiment == "grid":
            return _cmd_grid(args)
        if args.experiment == "energy":
            return _cmd_energy(args)
        if args.experiment in _SERVICE_COMMANDS:
            return _SERVICE_COMMANDS[args.experiment](args)
        if args.experiment == "all":
            names = _ALL_ORDER
            # Utilities get sensible defaults; figures honour --quick.
            args.trials = min(args.trials, 30)
        else:
            names = [args.experiment]
        for name in names:
            started = time.time()
            output = _EXPERIMENTS[name](args)
            print(output)
            print(
                f"[{name} completed in {time.time() - started:.1f}s]\n",
                file=sys.stderr,
            )
        return 0
    except ValueError as exc:
        # InputError (every malformed-input error: scenario, request,
        # job, trace, curve) and bad parameter combinations: one line
        # on stderr, exit 2, no traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro status ... | head`) closed early;
        # exit quietly like any well-behaved filter.
        sys.stderr.close()
        return 0
    except OSError as exc:
        # Unreachable service, write failures, wait timeouts.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from repro.service.client import ServiceError
        from repro.service.store import QueueFull

        if isinstance(exc, (ServiceError, QueueFull)):
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        raise
    finally:
        # In-process callers (tests, scripts) keep their own setting.
        execution.FAST_PATH_ENABLED = fast_path


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
