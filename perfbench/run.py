"""End-to-end benchmark of the resilience simulator and its job service.

Usage::

    python3 perfbench/run.py --workload scaling|datacenter|service|campaign
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  Each run sets itself up several times
(the median is ``setup_s``), measures rounds of its workload for about
``--seconds`` seconds, checks every output, and prints each metric by
name with its unit, the host context (CPU steal over the run and the
host speed probe of ``speed.py`` included) and, as the last line, one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run measures half its time untraced and half with the
layer wrappers of ``layers.py`` installed, and reports the per-layer
metrics, the wall share no layer accounts for and the tracing overhead.
Every time metric is in reference-host seconds (see ``speed.py``).
All scratch state (result caches, SQLite stores, logs) lives in a fresh
directory under ``.bench_tmp/`` that is removed at exit.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scaling", "datacenter", "service", "campaign")

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("cpu_ms_per_trial", "ms"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p95_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("observed_trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set up an in-process workload once and print its time",
    )
    return parser.parse_args(argv)


def _probe_setups(args, tmp: Path, rec) -> None:
    """Time the in-process set-up in fresh interpreters."""
    for index in range(SETUPS - 1):
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp / f"probe-{index}"))
        out = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
            ],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        rec.setup_s.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def _setup_done(rec, started: float) -> None:
    """Record a set-up that began at *started* (``perf_counter``)."""
    import speed

    elapsed = time.perf_counter() - started
    rec.setup_s.append(elapsed * speed.scale_now())


def run_inproc(args, tmp: Path, rec):
    import inproc
    import layers
    from spans import Tracer, aggregate

    ops = inproc.setup(args.workload, rec, args.seed)
    _setup_done(rec, T0)
    stats = {}
    if args.trace:
        observed = inproc.ObservedPass(rec, args.seed)
        next_round = inproc.timed_phase(ops, args.seconds / 2)
        rec.untraced_wall_s = statistics.median(r.wall_s for r in rec.rounds)
        rec.rounds.clear()
        rec.tracer = Tracer()
        layers.install_simulation(rec.tracer)
        inproc.timed_phase(ops, args.seconds / 2, next_round)
        rec.tracer.unwrap_all()
        stats = aggregate(rec.tracer.spans)
    else:
        _probe_setups(args, tmp, rec)
        observed = inproc.ObservedPass(rec, args.seed)
        inproc.timed_phase(ops, args.seconds, observed=observed)
    ops.verify()
    observed.finish()
    return stats, None


def run_fleet(args, tmp: Path, rec):
    import fleet as fl
    import gen
    import inproc
    from record import FleetSamples
    from spans import Tracer, aggregate, merge

    fs = FleetSamples()
    rec.best_half = True
    warm = gen.service_doc(args.seed, fl.ServiceLoop.WARM_INDEX)
    loop_cls = fl.ServiceLoop if args.workload == "service" else fl.CampaignLoop
    loop = loop_cls(rec, args.seed, fs)

    def phase(fleet, seconds, observed=None):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            loop.round(fleet)
            if observed is not None:
                observed.keep_up()

    stats = {}
    if args.trace:
        fleet = fl.setup_fleet(SRC, tmp, "untraced", False, rec, warm)
        try:
            phase(fleet, args.seconds / 2)
        finally:
            fleet.stop(rec)
        rec.untraced_wall_s = statistics.median(r.wall_s for r in rec.rounds)
        rec.rounds.clear()
        rec.tracer = Tracer()
        loop.fs = fs = FleetSamples()
        fleet = fl.setup_fleet(SRC, tmp, "traced", True, rec, warm)
        try:
            phase(fleet, args.seconds / 2)
        finally:
            remote = fleet.stop(rec)
        if args.workload == "campaign":
            fl.cover_campaigns(rec, loop, fleet.intervals)
        stats = merge([remote, aggregate(rec.tracer.spans)])
        observed = inproc.ObservedPass(rec, args.seed)
    else:
        for index in range(SETUPS - 1):
            fl.setup_fleet(SRC, tmp, f"probe{index}", False, rec, warm).stop(rec)
        fleet = fl.setup_fleet(SRC, tmp, "run", False, rec, warm)
        try:
            observed = inproc.ObservedPass(rec, args.seed)
            phase(fleet, args.seconds, observed)
        finally:
            fleet.stop(rec)
    if args.workload == "service":
        loop.verify()
    observed.finish()
    return stats, fs


def _report(args, rec, stats, fs, host) -> dict:
    from record import layer_metrics, layer_unit

    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} rounds={len(rec.rounds)} "
        f"jobs={sum(len(r.latencies_s) for r in rec.rounds)} "
        f"hits={sum(len(r.hit_latencies_s) for r in rec.rounds)}"
    )
    print("host " + json.dumps(host, sort_keys=True))
    if args.trace:
        metrics = layer_metrics(rec, stats, fs)
        units = {name: layer_unit(name) for name in metrics}
        wall = sum(r.wall_s for r in rec.rounds)
        print(f"layer self time over {wall:.3f} s of traced rounds "
              "(fleet layers run in other processes, so shares can overlap):")
        for name, span in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
            print(
                f"  {name:22s} calls={span.count:7d} total={span.total_s:9.4f} s "
                f"self={span.self_s:9.4f} s share={span.self_s / wall if wall else 0:7.2%}"
            )
    else:
        metrics = rec.end_to_end()
        units = dict(END_TO_END)
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    frac = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"  {'failed_frac':30s} {frac:14.6g} ratio ({rec.failed} of {rec.attempted} operations)")
    for problem in rec.problems:
        print(f"  problem: {problem}")
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ["PYTHONPATH"] = str(SRC)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from host import HostWatch
    from record import Recorder

    rec = Recorder()
    if args.setup_probe:
        import inproc

        inproc.setup(args.workload, rec, args.seed)
        _setup_done(rec, T0)
        print(json.dumps({"setup_s": rec.setup_s[0]}))
        return 0
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    watch = HostWatch()
    try:
        runner = run_inproc if args.workload in ("scaling", "datacenter") else run_fleet
        stats, fs = runner(args, tmp, rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    import speed

    result = _report(args, rec, stats, fs, dict(watch.report(), **speed.probe().report()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
