"""Benchmark the instrumentation bus: kernel overhead of observation.

Four questions, answered with wall-clock measurements:

1. What does the *empty* bus cost the kernel hot loop?  The refactor
   added one attribute access plus a truthiness test per executed
   event (``taps = self.bus.kernel_taps; if taps: ...``); this is
   measured against an otherwise identical kernel with that check
   removed.  The acceptance bar is < 5%.
2. What does a kernel tap (TraceSink) cost when attached?
3. What do the full domain-event sinks cost a real single-application
   simulation (TraceSink + MetricsSink + TimelineSink +
   JsonlExportSink attached vs. none)?  The TraceSink kernel tap keeps
   this run on the stepped path.
4. What do the ``--trace-out``/``--metrics-out`` sinks alone
   (JsonlExportSink + MetricsSink) cost the same simulation?  Without a
   kernel tap it keeps the fast path, so this is the price of
   serialising the events.

Results are printed and recorded under
``benchmarks/results/obs_overhead.txt``.

Usage::

    PYTHONPATH=src python scripts/bench_obs.py [--events 200000] [--repeats 5]
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.core.single_app import SingleAppConfig, simulate_application
from repro.obs.sinks import JsonlExportSink, MetricsSink, TimelineSink, TraceSink
from repro.platform.presets import exascale_system
from repro.resilience.registry import get_technique
from repro.sim.engine import Simulator
from repro.units import HOUR
from repro.workload.synthetic import make_application

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class _NoBusSimulator(Simulator):
    """The pre-instrumentation kernel, for baseline comparison: the
    fused ``run`` loop without the kernel-tap check (otherwise
    byte-for-byte the same)."""

    def run(self, until=None, max_events=None) -> float:
        from repro.sim.errors import SchedulingError

        if self._running:
            raise SchedulingError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                event = queue.pop_due(until)
                if event is None:
                    if until is not None and queue:
                        self._now = max(self._now, until)
                    break
                self._now = event.time
                self._event_count += 1
                event.callback(event)
                executed += 1
        finally:
            self._running = False
        return self._now


def _kernel_run(sim_factory, n_events: int, attach=None) -> float:
    """Seconds to execute *n_events* no-op kernel events."""
    sim = sim_factory()
    if attach is not None:
        attach(sim)
    for i in range(n_events):
        sim.schedule(float(i), lambda _e: None)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert sim.event_count == n_events
    return elapsed


def _best_of(fn, repeats: int) -> float:
    """Minimum over *repeats* runs (least-noise estimator)."""
    return min(fn() for _ in range(repeats))


def _trial_run(sinks) -> float:
    """Seconds for one failure-heavy single-app trial."""
    system = exascale_system(total_nodes=1_200)
    app = make_application("A32", nodes=120, time_steps=60)
    technique = get_technique("multilevel")
    config = SingleAppConfig(node_mtbf_s=200 * HOUR, seed=99)
    started = time.perf_counter()
    simulate_application(app, technique, system, config, sinks=sinks)
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    n = args.events
    r = args.repeats

    no_check = _best_of(lambda: _kernel_run(_NoBusSimulator, n), r)
    empty_bus = _best_of(lambda: _kernel_run(Simulator, n), r)
    tapped = _best_of(
        lambda: _kernel_run(
            Simulator, n, attach=lambda sim: TraceSink(capacity=1_000).attach(sim.bus)
        ),
        r,
    )

    def full_sinks():
        return (TraceSink(), MetricsSink(), TimelineSink(), JsonlExportSink())

    bare_trial = _best_of(lambda: _trial_run(None), r)
    sunk_trial = _best_of(lambda: _trial_run(full_sinks()), r)
    export_trial = _best_of(
        lambda: _trial_run((JsonlExportSink(), MetricsSink())), r
    )

    empty_overhead = 100.0 * (empty_bus - no_check) / no_check
    tap_overhead = 100.0 * (tapped - no_check) / no_check
    trial_overhead = 100.0 * (sunk_trial - bare_trial) / bare_trial
    export_overhead = 100.0 * (export_trial - bare_trial) / bare_trial

    lines = [
        "Instrumentation bus: kernel and sink overhead",
        f"kernel loop: {n} no-op events, best of {r}",
        f"  no tap check (baseline): {1e9 * no_check / n:8.1f} ns/event",
        f"  empty bus:               {1e9 * empty_bus / n:8.1f} ns/event  "
        f"({empty_overhead:+.1f}%)",
        f"  TraceSink attached:      {1e9 * tapped / n:8.1f} ns/event  "
        f"({tap_overhead:+.1f}%)",
        f"single-app trial (multilevel, failure-heavy), best of {r}",
        f"  no sinks:                {1e3 * bare_trial:8.2f} ms",
        f"  all four sinks:          {1e3 * sunk_trial:8.2f} ms  "
        f"({trial_overhead:+.1f}%)",
        f"  export + metrics sinks:  {1e3 * export_trial:8.2f} ms  "
        f"({export_overhead:+.1f}%)",
        f"empty-bus kernel overhead: {empty_overhead:.2f}% (bar: < 5%)",
    ]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "obs_overhead.txt").write_text(text)

    if empty_overhead >= 5.0:
        print("ERROR: empty-bus kernel overhead exceeds the 5% bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
