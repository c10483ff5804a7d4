"""Server-side adaptive campaign controller.

An adaptive campaign turns a scenario's study grid into independent
*cells* — (sweep-axis value, system fraction, technique) triples — and
submits each cell's trial budget as a chain of batch jobs linked by
server-side job dependencies (batch *k+1* ``depends_on`` batch *k*),
so at most one batch per cell is ever runnable and the chain survives
a controller restart.  The controller loop then:

- **Early-stops** a cell once the 95% confidence interval of its
  accumulated efficiency falls below a relative threshold, cancelling
  the remaining batches of the chain (the cancellation cascades down
  the dependency chain inside the store);
- **Refines** technique-crossover boundaries: wherever two adjacent
  fractions settle on different best techniques, a probe wave is
  submitted between them — at the analytic prior from
  :func:`repro.analysis.regimes.crossover_fraction` when the paper's
  Poisson assumptions hold, at the midpoint otherwise — and bisection
  recurses up to ``refine_depth`` rounds.

Determinism: batch *k* of a cell runs trials ``[k*b, (k+1)*b)`` of the
same per-``(seed, trial-index)`` streams an exhaustive run uses, so
every adaptive cell result is byte-identical to a prefix of the
exhaustive run, and the winning-technique map is rendered by the same
code path (:func:`render_best_technique_table`) on both sides.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.entry import StudyRequest
from repro.experiments.stats import SummaryStats
from repro.scenarios.compiler import (
    CampaignCell,
    compile_cell_request,
    scenario_analytic_reason,
    scenario_cells,
    scenario_grid,
    scenario_point,
)
from repro.scenarios.spec import AdaptiveSpec, ScenarioSpec

# repro.service.app imports this module, and importing any
# repro.service submodule executes the repro.service package __init__
# (which imports app) — so the service names used at runtime are
# imported lazily inside the handful of methods that need them.
if TYPE_CHECKING:
    from repro.service.store_sqlite import SQLiteJobStore

#: A key identifying one cell: (axis value, fraction, technique).
CellKey = Tuple[Optional[float], float, str]

#: Submits one batch request with optional parents; returns the job id.
SubmitFn = Callable[[StudyRequest, Optional[List[str]]], str]

#: Controller progress callback: ``notify(kind, campaign_id, data)``.
#: The service hangs its telemetry hub here so SSE consumers see
#: ``campaign.cell_settled`` / ``campaign.probe`` / ``campaign.done``.
NotifyFn = Callable[[str, str, Dict[str, Any]], None]


def _no_notify(kind: str, campaign_id: str, data: Dict[str, Any]) -> None:
    """The default (absent) progress callback."""

#: Display tags for the paper's techniques (fallback: first two
#: letters, uppercased).
_TECH_TAGS = {
    "checkpoint_restart": "CR",
    "multilevel": "ML",
    "parallel_recovery": "PR",
    "redundancy": "RD",
}


class UnknownCampaign(KeyError):
    """No campaign with the requested id exists (HTTP 404)."""


def parse_cell_result(text: str) -> Tuple[int, float, float, bool]:
    """Extract ``(trials, mean, std, infeasible)`` from one batch
    job's rendered JSON artifact (a single-cell scenario run)."""
    payload = json.loads(text)
    cell = payload["results"][0]["cells"][0]
    return (
        int(cell["trials"]),
        float(cell["mean_efficiency"]),
        float(cell["std_efficiency"]),
        bool(cell["infeasible"]),
    )


def technique_tag(name: str) -> str:
    """Two-letter display tag of a technique name."""
    return _TECH_TAGS.get(name, name[:2].upper())


def render_best_technique_table(
    axis: Optional[str],
    axis_values: Sequence[Optional[float]],
    fractions: Sequence[float],
    best: Dict[Tuple[Optional[float], float], Optional[str]],
) -> str:
    """Fixed-width winning-technique table: one row per sweep-axis
    value (a single ``-`` row without a sweep), one column per system
    fraction; infeasible-everywhere cells render ``--``.

    This is the single renderer for both adaptive campaign status and
    exhaustive-run comparisons (via :func:`best_map_from_results`), so
    agreeing selections produce byte-identical tables.
    """
    label = axis if axis is not None else "sweep"
    header = f"{label:<14}" + "".join(f"{100 * f:>7.0f}%" for f in fractions)
    lines = [header, "-" * len(header)]
    for value in axis_values:
        row_label = f"{value:g}" if value is not None else "-"
        row = [f"{row_label:<14}"]
        for fraction in fractions:
            name = best.get((value, fraction))
            row.append((technique_tag(name) if name else "--").rjust(8))
        lines.append("".join(row))
    return "\n".join(lines)


def _best_of(entries: Sequence[Tuple[str, float, bool]]) -> Optional[str]:
    """The winning technique of one (axis value, fraction) cell from
    ``(technique, mean, infeasible)`` entries in technique order:
    highest feasible mean, first-in-order on exact ties, None when
    nothing fits."""
    best_name: Optional[str] = None
    best_mean = -math.inf
    for technique, mean, infeasible in entries:
        if infeasible:
            continue
        if mean > best_mean:
            best_name, best_mean = technique, mean
    return best_name


def best_map_from_results(
    payload: Dict[str, Any],
) -> Dict[Tuple[Optional[float], float], Optional[str]]:
    """The winning-technique map of a scenario run's JSON artifact
    (``{(axis_value, fraction): technique_or_None}``), using the same
    tie-breaking as the adaptive controller — feed the result to
    :func:`render_best_technique_table` to compare an exhaustive run
    against an adaptive campaign byte-for-byte."""
    out: Dict[Tuple[Optional[float], float], Optional[str]] = {}
    for block in payload["results"]:
        value = block["axis_value"]
        groups: Dict[float, List[Tuple[str, float, bool]]] = {}
        for cell in block["cells"]:
            groups.setdefault(cell["fraction"], []).append(
                (
                    cell["technique"],
                    cell["mean_efficiency"],
                    cell["infeasible"],
                )
            )
        for fraction, entries in groups.items():
            out[(value, fraction)] = _best_of(entries)
    return out


@dataclass
class CellRun:
    """Mutable controller-side state of one campaign cell: its batch
    chain, the accumulated summary, and how it settled."""

    cell: CampaignCell
    job_ids: List[str]
    batch_trials: List[int]
    probe: bool = False
    #: Index of the next chain job whose result is still unconsumed.
    next_index: int = 0
    stats: Optional[SummaryStats] = None
    infeasible: bool = False
    settled: bool = False
    stop_reason: Optional[str] = None
    failed: bool = False

    @property
    def trials_done(self) -> int:
        """Trials accumulated into the summary so far."""
        return self.stats.n if self.stats is not None else 0

    def ci_rel(self) -> Optional[float]:
        """Relative 95% CI half-width (None before any result or at a
        zero mean; ``inf`` on a single trial)."""
        if self.stats is None or self.stats.mean == 0.0:
            return None
        return 1.96 * self.stats.sem / abs(self.stats.mean)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe per-cell status (one entry of ``GET
        /v1/campaigns/{id}``'s ``cells`` list)."""
        return {
            "axis_value": self.cell.axis_value,
            "fraction": self.cell.fraction,
            "technique": self.cell.technique,
            "probe": self.probe,
            "trials": self.trials_done,
            "mean_efficiency": (
                self.stats.mean if self.stats is not None else None
            ),
            "std_efficiency": (
                self.stats.std if self.stats is not None else None
            ),
            "ci95_rel": self.ci_rel(),
            "settled": self.settled,
            "converged": self.settled and self.stop_reason == "converged",
            "infeasible": self.infeasible,
            "stop_reason": self.stop_reason,
            "jobs_total": len(self.job_ids),
            "jobs_consumed": self.next_index,
        }


@dataclass
class RefinementInterval:
    """One bisection bracket between two fractions whose best
    techniques differ, and the probe resolving it."""

    axis_value: Optional[float]
    lo: float
    hi: float
    depth: int
    probe_fraction: float
    #: ``analytic`` when the probe came from the regimes prior,
    #: ``midpoint`` otherwise.
    source: str = "midpoint"
    state: str = "probing"

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe interval status (campaign ``refinements`` list)."""
        return {
            "axis_value": self.axis_value,
            "lo": self.lo,
            "hi": self.hi,
            "depth": self.depth,
            "probe_fraction": self.probe_fraction,
            "source": self.source,
            "state": self.state,
        }


class Campaign:
    """One registered campaign: either a static job list or an
    adaptive cell grid under controller management.

    An adaptive campaign enqueues every job — its base wave and each
    later refinement probe — through its own *submit*, so all of them
    carry the executor settings the campaign was submitted with.

    Mutated only by :meth:`step` (the controller thread) and read by
    :meth:`status` (HTTP threads); the owning
    :class:`CampaignRegistry` serializes both under its lock.
    """

    def __init__(
        self,
        campaign_id: str,
        spec: ScenarioSpec,
        sha256: str,
        notes: Sequence[str],
        adaptive: Optional[AdaptiveSpec] = None,
        static_units: Optional[List[Dict[str, str]]] = None,
        submit: Optional[SubmitFn] = None,
    ) -> None:
        self.id = campaign_id
        self.spec = spec
        self.sha256 = sha256
        self.notes = list(notes)
        self.adaptive = adaptive
        self.static_units = list(static_units or [])
        self._submit = submit
        self.cells: Dict[CellKey, CellRun] = {}
        self.intervals: List[RefinementInterval] = []
        self.done = False
        self.trials_executed = 0
        self._refined_values: set = set()
        self._notify: NotifyFn = _no_notify
        if adaptive is not None:
            values, fractions, names = scenario_grid(spec)
            self.technique_order: Tuple[str, ...] = tuple(dict.fromkeys(names))
            self.base_fractions: Tuple[float, ...] = tuple(
                sorted(dict.fromkeys(fractions))
            )
            self.axis: Optional[str] = (
                spec.sweep.axis if spec.sweep is not None else None
            )
            self.axis_values: Tuple[Optional[float], ...] = tuple(
                dict.fromkeys(values)
            )
            total_nodes = spec.platform.total_nodes
            if total_nodes is None:
                from repro.constants import EXASCALE_NODES

                total_nodes = EXASCALE_NODES
            self._min_width = max(1.0 / total_nodes, 1e-4)
            self._base_cells = scenario_cells(spec)
        else:
            self.technique_order = ()
            self.base_fractions = ()
            self.axis = None
            self.axis_values = ()
            self._min_width = 0.0
            self._base_cells = ()

    # -- planning ------------------------------------------------------

    def submit_base_wave(self) -> None:
        """Submit every base cell's batch chain (campaign creation)."""
        for cell in self._base_cells:
            self._submit_cell_chain(cell, probe=False)

    def all_job_ids(self) -> List[str]:
        """Every job id this campaign has submitted (chain order)."""
        ids = [unit["job_id"] for unit in self.static_units]
        for run in self.cells.values():
            ids.extend(run.job_ids)
        return ids

    def _submit_cell_chain(self, cell: CampaignCell, probe: bool) -> CellRun:
        """Submit one cell's dependency-chained batch jobs."""
        assert self.adaptive is not None and self._submit is not None
        sizes = self.adaptive.batch_sizes()
        job_ids: List[str] = []
        offset = 0
        for size in sizes:
            request = compile_cell_request(
                self.spec, cell, trials=size, trial_offset=offset
            )
            parents = [job_ids[-1]] if job_ids else None
            job_ids.append(self._submit(request, parents))
            offset += size
        run = CellRun(
            cell=cell, job_ids=job_ids, batch_trials=list(sizes), probe=probe
        )
        self.cells[(cell.axis_value, cell.fraction, cell.technique)] = run
        return run

    # -- the controller loop -------------------------------------------

    def step(
        self, store: SQLiteJobStore, notify: Optional[NotifyFn] = None
    ) -> None:
        """One controller tick: consume finished batches, early-stop
        converged cells, advance refinement, detect completion.
        *notify* receives progress events (cell settled, probe wave
        submitted, campaign done) as they happen."""
        if self.adaptive is None or self.done:
            return
        self._notify = notify if notify is not None else _no_notify
        for run in list(self.cells.values()):
            self._advance_cell(run, store)
        self._advance_refinement(store)
        if all(run.settled for run in self.cells.values()) and all(
            interval.state != "probing" for interval in self.intervals
        ):
            self.done = True
            self._notify(
                "campaign.done",
                self.id,
                {
                    "scenario": self.spec.scenario.name,
                    "trials_executed": self.trials_executed,
                    "cells": len(self.cells),
                },
            )

    def _advance_cell(self, run: CellRun, store: SQLiteJobStore) -> None:
        """Consume as many finished chain batches as are available."""
        from repro.service.store import JobState

        assert self.adaptive is not None
        while not run.settled and run.next_index < len(run.job_ids):
            try:
                record = store.get(run.job_ids[run.next_index])
            except KeyError:  # pragma: no cover - ids come from submit
                self._settle(run, store, "error: job vanished", failed=True)
                return
            if record.state == JobState.DONE:
                self._consume_batch(run, store)
            elif record.state in (JobState.FAILED, JobState.CANCELLED):
                self._settle(
                    run,
                    store,
                    f"{record.state}: {record.error or 'batch job lost'}",
                    failed=True,
                )
            else:
                return
        if not run.settled and run.next_index >= len(run.job_ids):
            self._settle(run, store, "max_trials")

    def _consume_batch(self, run: CellRun, store: SQLiteJobStore) -> None:
        """Merge one finished batch into the cell's running summary and
        settle the cell when its budget or threshold is met."""
        assert self.adaptive is not None
        job_id = run.job_ids[run.next_index]
        text = store.result_text(job_id)
        try:
            n, mean, std, infeasible = parse_cell_result(text or "")
        except (ValueError, KeyError, IndexError, TypeError):
            self._settle(
                run, store, f"error: unparseable result of {job_id}",
                failed=True,
            )
            return
        run.next_index += 1
        if infeasible:
            run.infeasible = True
            self._settle(run, store, "infeasible")
            return
        batch = SummaryStats(n=n, mean=mean, std=std)
        run.stats = batch if run.stats is None else run.stats.merge(batch)
        self.trials_executed += n
        rel = run.ci_rel()
        if run.stats.n >= self.adaptive.max_trials:
            self._settle(run, store, "max_trials")
        elif (
            run.stats.n > 1
            and rel is not None
            and rel <= self.adaptive.ci_rel_threshold
        ):
            self._settle(run, store, "converged")

    def _settle(
        self,
        run: CellRun,
        store: SQLiteJobStore,
        reason: str,
        failed: bool = False,
    ) -> None:
        """Mark a cell settled and cancel its unconsumed chain tail
        (the cancellation cascades through the dependency chain)."""
        run.settled = True
        run.stop_reason = reason
        run.failed = failed
        if run.next_index < len(run.job_ids):
            try:
                store.cancel(run.job_ids[run.next_index])
            except KeyError:  # pragma: no cover - ids come from submit
                pass
        self._notify(
            "campaign.cell_settled",
            self.id,
            {
                "axis_value": run.cell.axis_value,
                "fraction": run.cell.fraction,
                "technique": run.cell.technique,
                "probe": run.probe,
                "reason": reason,
                "failed": failed,
                "trials": run.trials_done,
            },
        )

    # -- refinement ----------------------------------------------------

    def _best(
        self, axis_value: Optional[float], fraction: float
    ) -> Optional[str]:
        """Winning technique at one settled grid point (None when
        every technique is infeasible or failed)."""
        entries: List[Tuple[str, float, bool]] = []
        for technique in self.technique_order:
            run = self.cells.get((axis_value, fraction, technique))
            if run is None or run.stats is None or run.failed:
                continue
            entries.append((technique, run.stats.mean, run.infeasible))
        return _best_of(entries)

    def _advance_refinement(self, store: SQLiteJobStore) -> None:
        """Kick off and advance crossover bisection."""
        assert self.adaptive is not None
        if self.adaptive.refine_depth < 1:
            return
        for value in self.axis_values:
            if value in self._refined_values:
                continue
            base_runs = [
                self.cells.get((value, fraction, technique))
                for fraction in self.base_fractions
                for technique in self.technique_order
            ]
            if any(run is None or not run.settled for run in base_runs):
                continue
            self._refined_values.add(value)
            for lo, hi in zip(self.base_fractions, self.base_fractions[1:]):
                self._maybe_probe(
                    value, lo, hi, self.adaptive.refine_depth, store
                )
        for interval in self.intervals:
            if interval.state != "probing":
                continue
            probe_runs = [
                self.cells.get(
                    (interval.axis_value, interval.probe_fraction, technique)
                )
                for technique in self.technique_order
            ]
            if any(run is None or not run.settled for run in probe_runs):
                continue
            interval.state = "done"
            best_probe = self._best(
                interval.axis_value, interval.probe_fraction
            )
            if interval.depth > 1 and best_probe is not None:
                if best_probe != self._best(interval.axis_value, interval.lo):
                    self._maybe_probe(
                        interval.axis_value,
                        interval.lo,
                        interval.probe_fraction,
                        interval.depth - 1,
                        store,
                    )
                if best_probe != self._best(interval.axis_value, interval.hi):
                    self._maybe_probe(
                        interval.axis_value,
                        interval.probe_fraction,
                        interval.hi,
                        interval.depth - 1,
                        store,
                    )

    def _maybe_probe(
        self,
        axis_value: Optional[float],
        lo: float,
        hi: float,
        depth: int,
        store: SQLiteJobStore,
    ) -> None:
        """Submit a probe wave inside ``(lo, hi)`` when its endpoints
        disagree on the best technique and the bracket is wider than
        the machine's fraction resolution."""
        assert self.adaptive is not None
        if hi - lo <= self._min_width:
            return
        best_lo = self._best(axis_value, lo)
        best_hi = self._best(axis_value, hi)
        if best_lo is None or best_hi is None or best_lo == best_hi:
            return
        probe, source = self._probe_fraction(axis_value, lo, hi, best_lo, best_hi)
        if any(
            (axis_value, probe, technique) in self.cells
            for technique in self.technique_order
        ):
            probe, source = (lo + hi) / 2.0, "midpoint"
            if any(
                (axis_value, probe, technique) in self.cells
                for technique in self.technique_order
            ):
                return
        interval = RefinementInterval(
            axis_value=axis_value,
            lo=lo,
            hi=hi,
            depth=depth,
            probe_fraction=probe,
            source=source,
        )
        submitted: List[str] = []
        try:
            for technique in self.technique_order:
                cell = CampaignCell(
                    axis_value=axis_value, fraction=probe, technique=technique
                )
                run = self._submit_cell_chain(cell, probe=True)
                submitted.extend(run.job_ids)
        except Exception as exc:
            # Roll the half-submitted wave back; refinement is
            # best-effort on top of an already-answered grid.
            for job_id in submitted:
                try:
                    store.cancel(job_id)
                except KeyError:  # pragma: no cover - ids come from submit
                    pass
            for technique in self.technique_order:
                self.cells.pop((axis_value, probe, technique), None)
            interval.state = f"skipped: {exc}"
            self.notes.append(
                f"refinement probe at fraction {probe:g} skipped: {exc}"
            )
        self.intervals.append(interval)
        if interval.state == "probing":
            self._notify(
                "campaign.probe", self.id, interval.to_payload()
            )

    def _probe_fraction(
        self,
        axis_value: Optional[float],
        lo: float,
        hi: float,
        best_lo: str,
        best_hi: str,
    ) -> Tuple[float, str]:
        """Where to probe ``(lo, hi)``: the analytic crossover prior
        when the paper's Poisson assumptions hold and the prior falls
        strictly inside the bracket, the midpoint otherwise.  Grid
        scenarios ranking by cost or carbon get the grid-aware
        crossover locator instead — the boundary being refined is where
        the *objective* winner changes, not the efficiency winner."""
        midpoint = (lo + hi) / 2.0
        if scenario_analytic_reason(self.spec) is not None:
            return midpoint, "midpoint"
        try:
            from repro.analysis.regimes import (
                crossover_fraction,
                grid_crossover_fraction,
            )
            from repro.platform.presets import exascale_system

            # The same point resolver an exhaustive run uses.
            point = scenario_point(self.spec, axis_value)
            node_mtbf_s = point.config.node_mtbf_s
            severity = point.app_config().severity_model()
            system = exascale_system(point.config.system_nodes)
            grid = self.spec.grid
            if grid is not None and grid.objective in ("cost", "carbon"):
                from repro.scenarios.compiler import _load_grid_traces
                from repro.scenarios.runtime import grid_context

                ctx = grid_context(self.spec, _load_grid_traces(self.spec))
                prior = grid_crossover_fraction(
                    self.spec.workload.app_type,
                    system,
                    node_mtbf_s,
                    technique_small=best_lo,
                    technique_large=best_hi,
                    objective=grid.objective,
                    price=ctx.price,
                    carbon=ctx.carbon,
                    power=ctx.power,
                    start_s=ctx.offset_s,
                    severity=severity,
                )
                if prior is not None and lo < prior < hi:
                    return float(prior), "analytic-grid"
                return midpoint, "midpoint"
            prior = crossover_fraction(
                self.spec.workload.app_type,
                system,
                node_mtbf_s,
                technique_small=best_lo,
                technique_large=best_hi,
                severity=severity,
            )
        except Exception:
            return midpoint, "midpoint"
        if prior is not None and lo < prior < hi:
            return float(prior), "analytic"
        return midpoint, "midpoint"

    # -- status --------------------------------------------------------

    def status(self, store: SQLiteJobStore) -> Dict[str, Any]:
        """The ``GET /v1/campaigns/{id}`` body."""
        from repro.service.store import JobState

        payload: Dict[str, Any] = {
            "id": self.id,
            "scenario": self.spec.scenario.name,
            "spec_sha256": self.sha256,
            "notes": list(self.notes),
            "adaptive": (
                asdict(self.adaptive)
                if self.adaptive is not None
                else None
            ),
        }
        job_states: Dict[str, int] = {state: 0 for state in JobState.ALL}
        for job_id in self.all_job_ids():
            try:
                job_states[store.get(job_id).state] += 1
            except KeyError:  # pragma: no cover - ids come from submit
                pass
        payload["jobs"] = {
            "total": sum(job_states.values()),
            "by_state": job_states,
        }
        if self.adaptive is None:
            units = []
            terminal = True
            for unit in self.static_units:
                try:
                    record = store.get(unit["job_id"])
                except KeyError:  # pragma: no cover - ids come from submit
                    continue
                terminal = terminal and record.state in JobState.TERMINAL
                units.append(
                    {"label": unit["label"], "job": record.to_payload()}
                )
            payload["units"] = units
            payload["state"] = "done" if terminal else "running"
            return payload

        def sort_key(run: CellRun) -> Tuple:
            value = run.cell.axis_value
            return (
                (0, 0.0) if value is None else (1, value),
                run.cell.fraction,
                self.technique_order.index(run.cell.technique),
            )

        runs = sorted(self.cells.values(), key=sort_key)
        payload["cells"] = [run.to_payload() for run in runs]
        payload["refinements"] = [
            interval.to_payload() for interval in self.intervals
        ]
        exhaustive = len(self._base_cells) * self.adaptive.max_trials
        payload["trials"] = {
            "executed": self.trials_executed,
            "exhaustive": exhaustive,
            "reduction": (
                exhaustive / self.trials_executed
                if self.trials_executed
                else None
            ),
        }
        payload["state"] = "done" if self.done else "running"
        payload["table"] = self.render_table() if self.done else None
        return payload

    def render_table(self) -> str:
        """The base-grid winning-technique table (probes refine the
        crossover brackets but keep the grid comparable to an
        exhaustive run of the same spec)."""
        best = {
            (value, fraction): self._best(value, fraction)
            for value in self.axis_values
            for fraction in self.base_fractions
        }
        return render_best_technique_table(
            self.axis, self.axis_values, self.base_fractions, best
        )


class CampaignRegistry:
    """The service's in-memory campaign table.

    Jobs are durable in the store; the campaign bookkeeping (cell
    summaries, refinement state) lives in process memory — a restarted
    service keeps every submitted job but forgets campaign-level
    status, which ``docs/SERVICE.md`` documents as a known limitation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._campaigns: Dict[str, Campaign] = {}

    def add(self, campaign: Campaign) -> None:
        """Register *campaign* (id collisions are a programming error)."""
        with self._lock:
            self._campaigns[campaign.id] = campaign

    def get(self, campaign_id: str) -> Campaign:
        """The campaign with *campaign_id*; raises
        :class:`UnknownCampaign` if absent."""
        with self._lock:
            try:
                return self._campaigns[campaign_id]
            except KeyError:
                raise UnknownCampaign(campaign_id) from None

    def status(self, campaign_id: str, store: SQLiteJobStore) -> Dict[str, Any]:
        """Status payload of one campaign (see :meth:`Campaign.status`)."""
        with self._lock:
            try:
                campaign = self._campaigns[campaign_id]
            except KeyError:
                raise UnknownCampaign(campaign_id) from None
            return campaign.status(store)

    def step_all(
        self, store: SQLiteJobStore, notify: Optional[NotifyFn] = None
    ) -> None:
        """One controller tick over every adaptive campaign."""
        with self._lock:
            for campaign in self._campaigns.values():
                campaign.step(store, notify=notify)

    def pending(self) -> bool:
        """Whether any adaptive campaign still has work in flight."""
        with self._lock:
            return any(
                campaign.adaptive is not None and not campaign.done
                for campaign in self._campaigns.values()
            )

    def summary(self) -> Dict[str, Any]:
        """The ``campaigns`` block of ``GET /v1/metrics``: a light
        progress list (no store reads) the dashboard renders from."""
        with self._lock:
            campaigns: List[Dict[str, Any]] = []
            for campaign in self._campaigns.values():
                entry: Dict[str, Any] = {
                    "id": campaign.id,
                    "scenario": campaign.spec.scenario.name,
                    "adaptive": campaign.adaptive is not None,
                }
                if campaign.adaptive is not None:
                    entry.update(
                        state="done" if campaign.done else "running",
                        cells=len(campaign.cells),
                        cells_settled=sum(
                            1
                            for run in campaign.cells.values()
                            if run.settled
                        ),
                        trials_executed=campaign.trials_executed,
                    )
                else:
                    entry.update(
                        state="static", units=len(campaign.static_units)
                    )
                campaigns.append(entry)
            return {
                "total": len(campaigns),
                "active": sum(
                    1
                    for campaign in self._campaigns.values()
                    if campaign.adaptive is not None and not campaign.done
                ),
                "campaigns": campaigns,
            }
