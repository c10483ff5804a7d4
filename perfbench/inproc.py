"""The in-process workloads: ``scaling`` and ``datacenter``.

Both call the program's entry points directly in the benchmark process
with one executor worker (``jobs=1``):

- ``scaling`` runs generated scaling scenarios through
  ``repro.experiments.entry.run_request``.  Each request sweeps
  application A32 over a 10-year node MTBF (Fig. 1: the fast path folds
  most iterations) and a 2.5-year one (failures force stepping and
  replay).  A round is three such requests with the result cache off
  plus one repeat of the warm-up request with the cache on, which the
  cache serves.
- ``datacenter`` runs generated Fig. 4-style studies (every resource
  manager x every fixed technique plus the ideal column) through
  ``repro.experiments.fig4``'s ``run``/``render``, the two functions
  ``run_request`` dispatches a ``fig4`` request to.  ``run_request``
  itself carries no datacenter seed, so it cannot take generated
  inputs.  A round is two new studies with the cache off plus one
  cached repeat of the warm-up study.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple

import gen
import speed
from host import cpu_s
from record import Observed, Recorder, Round, digest


def _options(metrics, cache: bool):
    from repro.experiments.parallel import ExecutorOptions

    return ExecutorOptions(jobs=1, cache=cache, metrics=metrics)


def _scaling_request(doc: Dict[str, Any]):
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.schema import parse_scenario

    (unit,) = compile_scenario(parse_scenario(doc, source="<perfbench>")).units
    return unit.request


def _scaling_ok(outcome, trials: int) -> bool:
    """Every cell ran *trials* trials and has an efficiency in (0, 1]."""
    cells = [cell for _, result in outcome.result for cell in result.cells]
    return bool(cells) and all(
        not cell.infeasible
        and cell.stats.n == trials
        and 0.0 < cell.stats.mean <= 1.0
        for cell in cells
    )


def _datacenter_ok(result, text: str) -> bool:
    """Every bar is a dropped percentage and the table names every RM."""
    from repro.rm.registry import manager_names

    return bool(result.cells) and all(
        0.0 <= cell.stats.mean <= 100.0 for cell in result.cells
    ) and all(rm in text for rm in manager_names())


class _Ops:
    """One workload's operations, shared by setup and the timed phase."""

    def __init__(self, rec: Recorder, seed: int) -> None:
        from repro.experiments.parallel import ExecutorMetrics

        self.rec = rec
        self.seed = seed
        self.metrics = ExecutorMetrics()
        self.reference: Optional[str] = None

    def timed(self, fn: Callable[[], Tuple[str, bool]]) -> Tuple[float, float]:
        """Run one operation inside a speed-probe window; count its
        outcome and return its latency and CPU time in reference-host
        seconds."""
        with speed.window() as window:
            cpu_before = cpu_s()
            start_wall = time.time()
            start = time.perf_counter()
            with self.rec.span("entry"):
                _, ok = fn()
            elapsed = time.perf_counter() - start
            cpu = cpu_s() - cpu_before
        self.rec.op(ok, "wrong output")
        if self.rec.tracer is not None:
            roots = []
            for s in reversed(self.rec.tracer.spans):  # this operation's spans are last
                if s.start < start_wall:
                    break
                if s.parent is None:
                    roots.append((s.start, s.end))
            self.rec.wall_coverage(start_wall, start_wall + elapsed, roots)
        return elapsed * window.scale, cpu * window.scale


class ScalingOps(_Ops):
    def warm_up(self) -> None:
        from repro.experiments.entry import run_request

        self.ref_request = _scaling_request(gen.scaling_doc(self.seed, -1))
        outcome = run_request(self.ref_request, options=_options(None, cache=True))
        self.reference = digest(outcome.text)

    def request_op(self, request, trials: int) -> Callable[[], Tuple[str, bool]]:
        from repro.experiments.entry import run_request

        def op():
            outcome = run_request(request, options=_options(self.metrics, cache=False))
            return outcome.text, _scaling_ok(outcome, trials)

        return op

    def hit_op(self) -> Tuple[str, bool]:
        from repro.experiments.entry import run_request

        outcome = run_request(self.ref_request, options=_options(self.metrics, cache=True))
        return outcome.text, digest(outcome.text) == self.reference

    def round(self, index: int) -> None:
        docs = [gen.scaling_doc(self.seed, 3 * index + k) for k in range(3)]
        requests = [(_scaling_request(d), d["run"]["trials"]) for d in docs]
        _measure_round(
            self,
            [self.request_op(r, t) for r, t in requests],
        )

    def verify(self) -> None:
        """Recompute the warm-up request with the cache off."""
        from repro.experiments.entry import run_request

        outcome = run_request(self.ref_request, options=_options(None, cache=False))
        self.rec.op(digest(outcome.text) == self.reference, "warm-up request rerun differs")


class DatacenterOps(_Ops):
    @staticmethod
    def config(fields: Dict[str, int]):
        from repro.experiments import fig4

        return fig4.config(seed=fields["seed"]).quick(
            patterns=fields["patterns"], arrivals=fields["arrivals"]
        )

    def study(self, cfg, cache: bool, metrics=None):
        from repro.experiments import fig4

        result = fig4.run(cfg, options=_options(metrics, cache=cache))
        return result, fig4.render(result)

    def warm_up(self) -> None:
        self.ref_cfg = self.config(gen.datacenter_fields(self.seed, -1))
        result, text = self.study(self.ref_cfg, cache=True)
        self.reference = digest(text)

    def hit_op(self) -> Tuple[str, bool]:
        _, text = self.study(self.ref_cfg, cache=True, metrics=self.metrics)
        return text, digest(text) == self.reference

    def round(self, index: int) -> None:
        def op(cfg):
            def run():
                result, text = self.study(cfg, cache=False, metrics=self.metrics)
                return text, _datacenter_ok(result, text)

            return run

        cfgs = [self.config(gen.datacenter_fields(self.seed, 2 * index + k)) for k in (0, 1)]
        _measure_round(self, [op(cfg) for cfg in cfgs])

    def verify(self) -> None:
        _, text = self.study(self.ref_cfg, cache=False)
        self.rec.op(digest(text) == self.reference, "warm-up study rerun differs")


def _measure_round(ops: _Ops, fresh) -> None:
    """Time *fresh* operations plus one cache-hit repeat as a round."""
    trials_before = ops.metrics.trials_done
    timings = [ops.timed(fn) for fn in fresh]
    hit, hit_cpu = ops.timed(ops.hit_op)
    latencies = [latency for latency, _ in timings]
    ops.rec.rounds.append(
        Round(
            wall_s=sum(latencies) + hit,
            cpu_s=sum(cpu for _, cpu in timings) + hit_cpu,
            trials=ops.metrics.trials_done - trials_before,
            jobs=len(fresh) + 1,
            latencies_s=latencies,
            hit_latencies_s=[hit],
        )
    )


OPS = {"scaling": ScalingOps, "datacenter": DatacenterOps}


def setup(workload: str, rec: Recorder, seed: int) -> _Ops:
    """Imports plus one warm-up operation (fills the result cache the
    hit operations read and the process-global memos)."""
    ops = OPS[workload](rec, seed)
    ops.warm_up()
    return ops


def timed_phase(ops: _Ops, seconds: float, first_round: int = 0, observed=None) -> int:
    """Rounds for *seconds* of real time; returns the next round index.
    With *observed*, observed studies are interleaved between rounds."""
    deadline = time.perf_counter() + seconds
    index = first_round
    while time.perf_counter() < deadline:
        ops.round(index)
        index += 1
        if observed is not None:
            observed.keep_up()
    return index


class ObservedPass:
    """Small Fig. 1 studies run plain and then observed (``observe=True``,
    what ``--trace-out``/``--metrics-out`` do); the observed numbers
    must equal the plain ones.  Studies run between the timed rounds,
    taking about ``SHARE`` of the timed phase, so they sample the same
    stretch of time; a first, untimed study loads the observation code
    paths."""

    #: Least number of studies per run, and share of the timed phase.
    STUDIES = 10
    SHARE = 0.25

    def __init__(self, rec: Recorder, seed: int) -> None:
        from repro.experiments import fig1

        self.rec = rec
        self.seed = seed
        self.done = 0
        fig1.run(fig1.config(**gen.observed_fields(seed, -1)), observe=True)
        self.spent = 0.0
        self.started = time.perf_counter()

    def study(self) -> None:
        from repro.experiments import fig1

        cfg = fig1.config(**gen.observed_fields(self.seed, self.done))
        self.done += 1
        start = time.perf_counter()
        with speed.window() as plain_window:
            plain_start = time.perf_counter()
            plain = fig1.run(cfg, options=_options(None, cache=False))
            plain_wall = time.perf_counter() - plain_start
        with speed.window() as observed_window:
            observed_start = time.perf_counter()
            observed = fig1.run(cfg, options=_options(None, cache=False), observe=True)
            observed_wall = time.perf_counter() - observed_start
        self.spent += time.perf_counter() - start
        self.rec.op(
            _numbers(plain) == _numbers(observed),
            "observed run changed the numbers",
        )
        trials = sum(c.stats.n for c in plain.cells if c.stats is not None)
        self.rec.observed.append(
            Observed(
                trials,
                observed_wall * observed_window.scale,
                plain_wall * plain_window.scale,
                len(observed.trace_lines or ()),
            )
        )

    def keep_up(self) -> None:
        """Run studies until they have taken ``SHARE`` of the time
        since the pass was set up."""
        while self.spent < self.SHARE * (time.perf_counter() - self.started):
            self.study()

    def finish(self) -> None:
        while self.done < self.STUDIES:
            self.study()


def _numbers(result):
    return [(c.fraction, c.technique, c.infeasible, c.stats) for c in result.cells]
