"""Benchmark the datacenter fast path: batched closed-form vs stepped.

Runs fig4-scale datacenter cells (the full exascale machine under an
arrival pattern, FCFS/EASY mapping, multilevel or single-level
checkpointing, optionally a contended PFS slot pool) two ways:

- **stepped**: one independent :func:`repro.core.datacenter.run_datacenter`
  per pattern with the fast path disabled — a fresh system and fresh
  technique plans each time, every kernel event stepped through.
- **fast**: one :func:`repro.core.datacenter.run_datacenter_batch` over
  the same patterns with the fast path enabled — greedy closed-form
  jumps in every job engine, plus the batch's shared system and plan
  cache.

Per-job completion times, drop decisions, and execution stats must be
bit-identical between the two (the script refuses to write results
otherwise); wall-time ratios are recorded in ``BENCH_datacenter.json``
at the repository root.  Each cell also runs observed
(``<cell>_observed``): the ``--trace-out``/``--metrics-out`` sinks are
attached on both paths, and their JSONL lines and metrics join the
digest, so any divergence in the exported stream refuses the write too.

Usage::

    PYTHONPATH=src python scripts/bench_datacenter.py [--repeats 3]
        [--min-speedup X] [--smoke]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import repro.core.execution as execution
from bench_common import measure_pair, write_results
from repro.core.datacenter import (
    DatacenterConfig,
    run_datacenter,
    run_datacenter_batch,
)
from repro.obs.sinks import JsonlExportSink, MetricsSink
from repro.platform.presets import exascale_system
from repro.resilience.registry import get_technique
from repro.rng.streams import StreamFactory
from repro.workload.patterns import PatternGenerator

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CELLS = {
    "fig4_fcfs_multilevel": dict(
        system_nodes=120_000,
        seed=7,
        patterns=3,
        rm="fcfs",
        technique="multilevel",
        pfs_slots=None,
    ),
    "fig4_fcfs_multilevel_pfs4": dict(
        system_nodes=120_000,
        seed=7,
        patterns=3,
        rm="fcfs",
        technique="multilevel",
        pfs_slots=4,
    ),
    "fig4_easy_checkpoint_restart": dict(
        system_nodes=120_000,
        seed=11,
        patterns=2,
        rm="easy",
        technique="checkpoint_restart",
        pfs_slots=None,
    ),
}

SMOKE_CELLS = {
    "smoke_fcfs_multilevel": dict(
        system_nodes=3_000,
        seed=7,
        patterns=2,
        rm="fcfs",
        technique="multilevel",
        pfs_slots=None,
    ),
    "smoke_fcfs_multilevel_pfs2": dict(
        system_nodes=3_000,
        seed=7,
        patterns=2,
        rm="fcfs",
        technique="multilevel",
        pfs_slots=2,
    ),
}


class _FixedSelector:
    """Selector that always picks one registered technique."""

    def __init__(self, name: str) -> None:
        self._technique = get_technique(name)

    def select(self, app, system):
        return self._technique


def _digest(results) -> tuple:
    """Equality-comparable summary of a batch's observable outputs."""
    rows = []
    for result in results:
        for record in sorted(result.records, key=lambda r: r.app.app_id):
            stats = record.stats
            rows.append(
                (
                    record.app.app_id,
                    record.status.name,
                    record.technique,
                    record.start_time,
                    record.end_time,
                    record.dropped,
                    None
                    if stats is None
                    else (
                        stats.work_time_s,
                        stats.rework_time_s,
                        stats.checkpoint_time_s,
                        stats.failed_checkpoints,
                        tuple(sorted(stats.checkpoints_taken.items())),
                    ),
                )
            )
    return tuple(rows)


def _cell_runner(cell: dict, fast: bool, observed: bool):
    """Closure running one cell end to end on one path; *observed*
    attaches the export and metrics sinks."""
    nodes = cell["system_nodes"]
    patterns = PatternGenerator(StreamFactory(cell["seed"]), nodes).generate_many(
        count=cell["patterns"]
    )
    config = DatacenterConfig(seed=cell["seed"], pfs_slots=cell["pfs_slots"])
    rm_name, technique = cell["rm"], cell["technique"]

    def run():
        from repro.rm import make_manager

        execution.FAST_PATH_ENABLED = fast
        streams = StreamFactory(cell["seed"])

        def manager_factory(pattern):
            return make_manager(
                rm_name, streams.fresh(f"rm-{rm_name}-{pattern.index}")
            )

        def selector_factory():
            return _FixedSelector(technique)

        sinks = (JsonlExportSink(), MetricsSink()) if observed else ()
        started = time.perf_counter()
        if fast:
            results = run_datacenter_batch(
                patterns,
                manager_factory,
                selector_factory,
                exascale_system(total_nodes=nodes),
                config,
                sinks=sinks,
            )
        else:
            results = [
                run_datacenter(
                    pattern,
                    manager_factory(pattern),
                    selector_factory(),
                    exascale_system(total_nodes=nodes),
                    config,
                    sinks=sinks,
                )
                for pattern in patterns
            ]
        elapsed = time.perf_counter() - started
        execution.FAST_PATH_ENABLED = True
        digest = _digest(results)
        if observed:
            export, metrics = sinks
            digest += (tuple(export.lines), metrics.to_dict())
        extras = {
            "jobs": sum(len(result.records) for result in results),
            "patterns": len(results),
        }
        return elapsed, digest, extras

    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (and write nothing) when any cell lands below this",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cells for CI: correctness + no-regression, not scale",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_datacenter.json",
    )
    args = parser.parse_args()

    cells = SMOKE_CELLS if args.smoke else CELLS
    records = {}
    for base_name, cell in cells.items():
        for suffix, observed in (("", False), ("_observed", True)):
            name = base_name + suffix
            record = measure_pair(
                _cell_runner(cell, fast=False, observed=observed),
                _cell_runner(cell, fast=True, observed=observed),
                repeats=args.repeats,
                warmup=args.warmup,
            )
            record["cell"] = cell
            record["observed"] = observed
            records[name] = record
            print(
                f"{name}: wall {record['stepped_wall_s'] * 1e3:.1f} ms -> "
                f"{record['fast_wall_s'] * 1e3:.1f} ms "
                f"({record['speedup']:.2f}x), "
                f"identical={record['bit_identical']}"
            )
    return write_results(
        args.out,
        "datacenter mapping loop: batched fast path vs stepped execution",
        records,
        min_speedup=args.min_speedup,
        extra={"repeats": args.repeats, "smoke": args.smoke},
    )


if __name__ == "__main__":
    raise SystemExit(main())
