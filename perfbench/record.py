"""What one benchmark run measured, and the metrics derived from it.

A workload fills a :class:`Recorder`: set-up samples, timed rounds
with their job latencies, observed-pass studies, operation outcomes
and (in a traced run) layer spans.  :meth:`Recorder.end_to_end` and
:func:`layer_metrics` turn that into the named metrics of
``BENCHMARK.json``.

The in-process workloads record their timings in reference-host
seconds (see :mod:`speed`), so their metrics are plain medians,
percentiles and sums over all of a run's rounds.  The fleet workloads'
wall times cannot be scaled that way (see :mod:`fleet`); their
wall-time metrics come from the cheaper half of a run's rounds by wall
time per trial, a best-of-N estimate that still averages over many
rounds, so a run that catches a slow stretch of the host reads like one
that does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from host import peak_rss_mb
from spans import SpanStats, Tracer, covered_length


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Round:
    """One timed round of a workload."""

    wall_s: float
    cpu_s: float
    trials: int
    jobs: int
    #: Latencies of the round's fresh jobs and of its cache-served repeats.
    latencies_s: List[float] = field(default_factory=list)
    hit_latencies_s: List[float] = field(default_factory=list)


@dataclass
class Observed:
    """One observed-pass study, in reference-host seconds."""

    trials: int
    observed_wall_s: float
    plain_wall_s: float
    trace_lines: int


def cheaper_half(items: Sequence, cost: Callable[[object], float]) -> List:
    """The half of *items* (rounded up) with the lowest *cost*."""
    ranked = sorted(items, key=cost)
    return ranked[: (len(ranked) + 1) // 2]


@dataclass
class Recorder:
    """Raw measurements of one run (see module docstring)."""

    tracer: Optional[Tracer] = None
    setup_s: List[float] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)
    observed: List[Observed] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Wall seconds of end-to-end time and of the part no layer covers
    #: (traced runs only).
    covered_wall_s: float = 0.0
    uncovered_s: float = 0.0
    #: Median round wall of the untraced and traced halves of a traced run.
    untraced_wall_s: Optional[float] = None
    #: Take the round metrics from the cheaper half of the rounds.
    best_half: bool = False

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one operation; a failed one is remembered by *what*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what or "operation failed")
        return ok

    def span(self, name: str):
        """Context manager timing *name* when tracing, else a no-op."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return _span(self.tracer, name)

    def wall_coverage(self, start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> None:
        """Account the window [start, end] against layer *intervals*."""
        clipped = [(max(a, start), min(b, end)) for a, b in intervals]
        self.covered_wall_s += end - start
        self.uncovered_s += max(0.0, (end - start) - covered_length(clipped))

    def end_to_end(self) -> Dict[str, float]:
        # CPU time is always scaled to the reference host, so it comes
        # from every round; fleet wall times from the cheaper half.
        cpu = statistics.median(r.cpu_s / r.trials for r in self.rounds)
        rounds = self.rounds
        if self.best_half:
            rounds = cheaper_half(rounds, lambda r: r.wall_s / r.trials)
        lat = sorted(x for r in rounds for x in r.latencies_s)
        hits = [x for r in rounds for x in r.hit_latencies_s]
        wall = sum(r.wall_s for r in rounds)
        trials = sum(r.trials for r in rounds)
        observed = self.observed
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "trials_per_s": trials / wall,
            "cpu_ms_per_trial": 1000.0 * cpu,
            "jobs_per_s": sum(r.jobs for r in rounds) / wall,
            "job_latency_p50_ms": 1000.0 * statistics.median(lat),
            "job_latency_p95_ms": 1000.0 * percentile(lat, 0.95),
            "hit_latency_p50_ms": 1000.0 * statistics.median(hits),
            "observed_trials_per_s": statistics.median(
                o.trials / o.observed_wall_s for o in observed
            ),
            "peak_rss_mb": peak_rss_mb(),
        }


@contextlib.contextmanager
def _span(tracer: Tracer, name: str):
    index = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(index)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending sequence."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def _mean_ms(stats: Dict[str, SpanStats], name: str) -> float:
    return stats[name].mean_ms() if name in stats else 0.0


def _total(stats: Dict[str, SpanStats], name: str) -> float:
    return stats[name].total_s if name in stats else 0.0


def _attr(stats: Dict[str, SpanStats], names: Sequence[str], key: str) -> float:
    return sum(stats[n].attrs.get(key, 0) for n in names if n in stats)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class FleetSamples:
    """Client-side and job-record timings of the fleet workloads."""

    polls: List[int] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    agent_run_s: List[float] = field(default_factory=list)
    client_lag_s: List[float] = field(default_factory=list)
    campaign_trials: int = 0
    campaign_budget: int = 0
    campaign_jobs_consumed: int = 0
    campaign_jobs_submitted: int = 0


def layer_metrics(
    rec: Recorder, stats: Dict[str, SpanStats], fleet: Optional[FleetSamples]
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` (0 where the
    workload does not exercise the layer)."""
    fleet = fleet or FleetSamples()
    sim_s = _total(stats, "sim")
    events = _attr(stats, ["sim"], "events")
    engines = ["single_app", "datacenter"]
    patterns = _attr(stats, ["datacenter"], "patterns")
    cell_s = _attr(stats, ["executor"], "cell_s")
    lookups = _attr(stats, ["cache.get"], "lookups")
    hits = _attr(stats, ["cache.get"], "hits")
    claims = stats["store.claim_batch"].count if "store.claim_batch" in stats else 0
    store_busy = sum(s.self_s for n, s in stats.items() if n.startswith("store."))
    observed = rec.observed
    out = {
        "sim.events": events,
        "sim.run_s": sim_s,
        "sim.us_per_event": 1e6 * sim_s / events if events else 0.0,
        "execution.fast_jumps": _attr(stats, engines, "fast_jumps"),
        "execution.iterations_folded": _attr(stats, engines, "iterations_folded"),
        "execution.failures": _attr(stats, engines, "failures"),
        "single_app.trials": stats["single_app"].count if "single_app" in stats else 0,
        "single_app.trial_ms": stats["single_app"].p50_ms() if "single_app" in stats else 0.0,
        "datacenter.patterns": patterns,
        "datacenter.pattern_ms": 1000.0 * _total(stats, "datacenter") / patterns
        if patterns
        else 0.0,
        "resilience.plan_s": _total(stats, "plan"),
        "executor.cells": _attr(stats, ["executor"], "cells"),
        "executor.cell_s": cell_s,
        "executor.overhead_s": _total(stats, "executor") - cell_s,
        "cache.lookups": lookups,
        "cache.hits": hits,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.get_ms": _mean_ms(stats, "cache.get"),
        "cache.put_ms": _mean_ms(stats, "cache.put"),
        "entry.render_s": _total(stats, "entry") - _total(stats, "executor"),
        "obs.trace_lines": sum(o.trace_lines for o in observed),
        "obs.observed_slowdown": _median(
            [o.observed_wall_s / o.plain_wall_s for o in observed]
        ),
        "scenarios.compile_ms": _mean_ms(stats, "scenarios.compile"),
        "http.submit_ms": _mean_ms(stats, "http.submit"),
        "http.status_ms": _mean_ms(stats, "http.status"),
        "http.result_ms": _mean_ms(stats, "http.result"),
        "http.polls_per_job": _median(fleet.polls),
        "store.submit_ms": _mean_ms(stats, "store.submit"),
        "store.claim_batch_ms": _mean_ms(stats, "store.claim_batch"),
        "store.complete_ms": _mean_ms(stats, "store.complete"),
        "store.busy_s": store_busy,
        "store.empty_claim_ratio": _attr(stats, ["store.claim_batch"], "empty") / claims
        if claims
        else 0.0,
        "queue.wait_ms": 1000.0 * _median(fleet.queue_wait_s),
        "agent.run_ms": 1000.0 * _median(fleet.agent_run_s),
        "client.lag_ms": 1000.0 * _median(fleet.client_lag_s),
        "agent.claim_ms": _mean_ms(stats, "agent.claim"),
        "agent.execute_ms": _mean_ms(stats, "agent.execute"),
        "campaign.step_ms": _mean_ms(stats, "campaign.step"),
        "campaign.steps": stats["campaign.step"].count if "campaign.step" in stats else 0,
        "campaign.trials_executed": fleet.campaign_trials,
        "campaign.trials_budget": fleet.campaign_budget,
        "campaign.useful_ratio": fleet.campaign_jobs_consumed / fleet.campaign_jobs_submitted
        if fleet.campaign_jobs_submitted
        else 0.0,
        "trace.unaccounted_share": rec.uncovered_s / rec.covered_wall_s
        if rec.covered_wall_s
        else 0.0,
        "trace.overhead": (
            statistics.median(r.wall_s for r in rec.rounds) / rec.untraced_wall_s - 1.0
        )
        if rec.untraced_wall_s
        else 0.0,
    }
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith(("ratio", "share", "slowdown", "overhead")):
        return "ratio"
    return "count"
