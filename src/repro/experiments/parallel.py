"""Parallel trial executor with deterministic seeding, an on-disk
result cache, and progress metrics.

The figure drivers decompose into *cells* — independent units of work
such as one (fraction x technique) bar of a scaling study or one
(RM x selector x bias) bar of a datacenter study.  Because every cell
derives its randomness from the study seed by name/index (see
:mod:`repro.rng.streams`), cells can execute in any order, on any
worker, and still produce bit-identical results; this module exploits
that to fan cells out over a process pool.

Three cooperating pieces:

- :class:`TrialExecutor` runs a list of :class:`CellTask`\\ s either
  inline (``jobs=1``, the default — byte-for-byte today's behaviour)
  or on a forked process pool (``jobs>1``), reassembling results in
  submission order so callers never observe scheduling nondeterminism.
- :class:`ResultCache` memoises cell results under
  ``results/.cache/`` keyed by :func:`cache_key`, a stable SHA-256
  over the canonicalised (config, technique, cell identity, seed)
  tuple.  A corrupted, truncated, or version-skewed cache file is a
  miss, never an error.
- :class:`ExecutorMetrics` accumulates cells completed, trials/sec,
  cache hit rate, and per-cell wall times; the CLI surfaces it after
  every figure and (with ``--progress``) per cell via
  :class:`CellProgress` callbacks.

Worker dispatch uses the ``fork`` start method so cell closures (which
capture selector factories, technique objects, and pattern lists) never
need to be pickled — only the cell *index* crosses the pipe, and the
(plain-data) result comes back.  On platforms without ``fork`` the
executor degrades to serial execution, which is always correct.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import counters as obs_counters
from repro.resilience.fingerprint import technique_fingerprint

__all__ = [
    "CellTask",
    "ExecutorOptions",
    "ResultCache",
    "TrialExecutor",
    "cache_key",
    "canonicalize",
    "run_cells",
    "technique_fingerprint",
]

#: Default on-disk cache location, relative to the working directory
#: (override with the ``REPRO_CACHE_DIR`` environment variable).
DEFAULT_CACHE_DIR = Path("results") / ".cache"

#: Bumped whenever the cached payload layout changes; mismatched
#: entries are treated as misses.
CACHE_VERSION = 2


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def canonicalize(obj: Any) -> Any:
    """Reduce *obj* to a JSON-serialisable canonical form.

    Dataclasses become ``["dataclass", qualified_name, {field: value}]``
    (field *declaration* order is irrelevant because the mapping is
    serialised with sorted keys), enums become their value tagged with
    their type, dicts sort by key, and tuples/lists/sets normalise to
    lists.  Two structurally equal configs therefore always produce the
    same canonical form regardless of dict insertion or field order.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        payload = {
            f.name: canonicalize(getattr(obj, f.name)) for f in fields(obj)
        }
        name = f"{type(obj).__module__}.{type(obj).__qualname__}"
        return ["dataclass", name, payload]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__qualname__, canonicalize(obj.value)]
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(v) for v in obj)
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__} for cache keying; "
        "pass a dataclass, enum, or plain data"
    )


def cache_key(*parts: Any) -> str:
    """Stable hex digest of *parts* (see :func:`canonicalize`).

    The key is invariant to dict insertion order and dataclass field
    order, and changes whenever any field value changes.
    """
    payload = json.dumps(
        [canonicalize(p) for p in parts],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ``technique_fingerprint`` moved to :mod:`repro.resilience.fingerprint`
# (core code keys plan caches with it too); re-exported above for
# backwards compatibility with existing imports.


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Best-effort pickle cache of cell results under *directory*.

    Lookups never raise: unreadable, truncated, or version-mismatched
    entries count as misses and are recomputed.  Writes are atomic
    (temp file + rename) so a concurrent or interrupted run can never
    leave a half-written entry that poisons later runs.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        enabled: bool = True,
    ) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.directory = Path(directory)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        """On-disk location of *key*'s entry."""
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; ``(False, None)`` on any miss."""
        if not self.enabled:
            return False, None
        try:
            with open(self.path_for(key), "rb") as fh:
                payload = pickle.load(fh)
            if (
                not isinstance(payload, dict)
                or payload.get("version") != CACHE_VERSION
                or "value" not in payload
            ):
                raise ValueError("cache entry layout mismatch")
        except Exception:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, payload["value"]

    def put(
        self,
        key: str,
        value: Any,
        provenance: Optional[Dict[str, str]] = None,
    ) -> None:
        """Store *value* under *key* (silently skipped on I/O errors —
        caching must never fail a run).

        *provenance* rides along in the entry (scenario name, spec
        digest, package version — see ``ExecutorOptions.provenance``)
        and is readable back via :meth:`provenance`.  Entries without
        it stay valid: lookups only require version + value."""
        if not self.enabled:
            return
        payload: Dict[str, Any] = {"version": CACHE_VERSION, "value": value}
        if provenance is not None:
            payload["provenance"] = dict(provenance)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".write-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh)
                os.replace(tmp, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            pass

    def provenance(self, key: str) -> Optional[Dict[str, str]]:
        """The provenance stamp stored with *key*'s entry, if any
        (None for a miss or a pre-provenance entry)."""
        try:
            with open(self.path_for(key), "rb") as fh:
                payload = pickle.load(fh)
            if not isinstance(payload, dict):
                return None
            stamp = payload.get("provenance")
            return dict(stamp) if isinstance(stamp, dict) else None
        except Exception:
            return None

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> "CacheStats":
        """Entry count and total size of the cache directory."""
        entries = 0
        total = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.pkl"):
                try:
                    total += entry.stat().st_size
                except OSError:
                    continue
                entries += 1
        return CacheStats(
            directory=self.directory, entries=entries, total_bytes=total
        )

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """Evict oldest-access-time-first until the cache fits in
        *max_bytes*; returns ``(entries_removed, bytes_removed)``.

        Access time (``st_atime``) orders eviction so entries that
        recent runs actually hit survive; on filesystems mounted
        ``noatime`` it degrades to modification order, which is still a
        sane LRU approximation.  Races with concurrent runs are benign:
        a vanished file is simply skipped.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        total = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.pkl"):
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                entries.append((stat.st_atime, stat.st_size, entry))
                total += stat.st_size
        entries.sort(key=lambda item: (item[0], str(item[2])))
        removed = 0
        removed_bytes = 0
        for _, size, entry in entries:
            if total <= max_bytes:
                break
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            removed_bytes += size
        return removed, removed_bytes


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the on-disk result cache (``repro cache stats``)."""

    directory: Path
    entries: int
    total_bytes: int

    @property
    def total_mb(self) -> float:
        """Total size in mebibytes."""
        return self.total_bytes / (1024 * 1024)

    def render(self) -> str:
        """One-line human summary."""
        return (
            f"{self.directory}: {self.entries} entries, "
            f"{self.total_mb:.1f} MiB"
        )


# ---------------------------------------------------------------------------
# Metrics and progress
# ---------------------------------------------------------------------------


@dataclass
class ExecutorMetrics:
    """Counters accumulated across one or more executor runs."""

    cells_total: int = 0
    cells_done: int = 0
    cache_hits: int = 0
    cells_computed: int = 0
    trials_done: int = 0
    #: Wall time of the executor runs (submission to reassembly).
    wall_s: float = 0.0
    #: Per-cell compute wall times (cache hits excluded).
    cell_wall_s: List[float] = field(default_factory=list)

    #: Fields that cross process boundaries as ``executor.<name>``
    #: registry counters; the wall time travels as ``executor.wall_us``.
    _COUNTED = ("cells_done", "cache_hits", "cells_computed", "trials_done")

    def count(self) -> None:
        """Add these totals to the process's counter registry as
        integer ``executor.*`` counters."""
        for name in self._COUNTED:
            obs_counters.increment(f"executor.{name}", getattr(self, name))
        obs_counters.increment("executor.wall_us", round(self.wall_s * 1e6))

    @classmethod
    def from_counters(cls, counters: Dict[str, int]) -> "ExecutorMetrics":
        """The executor totals a counter snapshot holds (see
        :meth:`count`)."""
        return cls(
            wall_s=counters.get("executor.wall_us", 0) / 1e6,
            **{name: counters.get(f"executor.{name}", 0) for name in cls._COUNTED},
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of completed cells served from the cache."""
        if self.cells_done == 0:
            return 0.0
        return self.cache_hits / self.cells_done

    @property
    def trials_per_sec(self) -> float:
        """Simulation trials completed per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return self.trials_done / self.wall_s

    def render(self, label: str = "run") -> str:
        """One-line human summary (the CLI prints this per figure)."""
        parts = [
            f"{self.cells_done}/{self.cells_total} cells",
            f"{self.cache_hits} cached ({100 * self.hit_rate:.0f}% hit rate)",
            f"{self.trials_done} trials ({self.trials_per_sec:.1f}/s)",
            f"{self.wall_s:.1f}s wall",
        ]
        if self.cell_wall_s:
            slowest = max(self.cell_wall_s)
            parts.append(f"slowest cell {slowest:.2f}s")
        return f"[{label}: " + ", ".join(parts) + "]"


@dataclass(frozen=True)
class CellProgress:
    """Per-cell progress snapshot handed to ``on_cell`` callbacks."""

    index: int
    total: int
    label: str
    cached: bool
    wall_s: float
    trials_per_sec: float
    hit_rate: float

    def render(self) -> str:
        """One-line progress report (the CLI's ``--progress`` format)."""
        source = "cached" if self.cached else f"{self.wall_s:.2f}s"
        return (
            f"[{self.index + 1}/{self.total}] {self.label or 'cell'} "
            f"({source}; {self.trials_per_sec:.1f} trials/s, "
            f"{100 * self.hit_rate:.0f}% cache hits)"
        )


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutorOptions:
    """How a study executes its cells.

    The defaults (``jobs=1``, ``cache=False``) reproduce the historical
    serial, uncached behaviour exactly; the CLI enables the cache and
    honours ``--jobs``.
    """

    jobs: int = 1
    cache: bool = False
    cache_dir: Optional[os.PathLike] = None
    #: Optional shared metrics sink (e.g. the CLI accumulates one
    #: object across every figure of a ``repro all`` run).
    metrics: Optional[ExecutorMetrics] = None
    #: Called once per cell, in deterministic cell order.
    on_cell: Optional[Callable[[CellProgress], None]] = None
    #: Stamped into every cache entry this run writes (scenario name,
    #: canonical-spec SHA-256, package version); purely informational —
    #: it never participates in cache keys or lookups.
    provenance: Optional[Dict[str, str]] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class CellTask:
    """One independent unit of work.

    ``fn`` is a zero-argument closure returning plain (picklable) data.
    ``key_parts`` feeds :func:`cache_key`; ``None`` marks the cell
    uncacheable (it always computes).  ``trials`` is the number of
    simulation trials the cell represents, for throughput metrics.
    """

    fn: Callable[[], Any]
    key_parts: Optional[Tuple[Any, ...]] = None
    trials: int = 1
    label: str = ""


#: Task table inherited by forked workers (never pickled).
_WORKER_TASKS: Optional[Sequence[CellTask]] = None


def _run_worker_task(index: int) -> Tuple[int, Any, float, Dict[str, int]]:
    """Run one cell in a worker; returns the result plus the cell's
    counter scope, which the parent merges (the processes share no
    counter memory)."""
    assert _WORKER_TASKS is not None
    with obs_counters.scope() as delta:
        started = time.perf_counter()
        value = _WORKER_TASKS[index].fn()
        wall = time.perf_counter() - started
    return index, value, wall, delta


def _fork_context():
    """The ``fork`` multiprocessing context, or None where unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class TrialExecutor:
    """Runs :class:`CellTask` lists under one :class:`ExecutorOptions`.

    Results always come back in task-submission order, cache hits are
    resolved before any worker is spawned, and misses are written back
    after computing — so a warm rerun of the same study performs zero
    simulation calls.
    """

    def __init__(
        self,
        options: Optional[ExecutorOptions] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.options = options or ExecutorOptions()
        self.cache = cache or ResultCache(
            directory=self.options.cache_dir, enabled=self.options.cache
        )
        self.metrics = (
            self.options.metrics
            if self.options.metrics is not None
            else ExecutorMetrics()
        )

    def run(self, tasks: Sequence[CellTask]) -> List[Any]:
        """Execute *tasks*; returns their values in submission order."""
        started = time.perf_counter()
        total = len(tasks)
        self.metrics.cells_total += total
        results: List[Any] = [None] * total
        walls = [0.0] * total
        cached = [False] * total
        keys: List[Optional[str]] = [
            cache_key(*t.key_parts) if t.key_parts is not None else None
            for t in tasks
        ]

        pending: List[int] = []
        for i, key in enumerate(keys):
            if key is not None:
                hit, value = self.cache.get(key)
                if hit:
                    results[i] = value
                    cached[i] = True
                    continue
            pending.append(i)

        if pending:
            self._compute(tasks, pending, results, walls)
            for i in pending:
                if keys[i] is not None:
                    self.cache.put(
                        keys[i],
                        results[i],
                        provenance=self.options.provenance,
                    )

        self.metrics.wall_s += time.perf_counter() - started
        for i, task in enumerate(tasks):
            self.metrics.cells_done += 1
            self.metrics.trials_done += task.trials
            if cached[i]:
                self.metrics.cache_hits += 1
            else:
                self.metrics.cells_computed += 1
                self.metrics.cell_wall_s.append(walls[i])
            if self.options.on_cell is not None:
                self.options.on_cell(
                    CellProgress(
                        index=i,
                        total=total,
                        label=task.label,
                        cached=cached[i],
                        wall_s=walls[i],
                        trials_per_sec=self.metrics.trials_per_sec,
                        hit_rate=self.metrics.hit_rate,
                    )
                )
        return results

    def _compute(
        self,
        tasks: Sequence[CellTask],
        pending: List[int],
        results: List[Any],
        walls: List[float],
    ) -> None:
        jobs = min(self.options.jobs, len(pending))
        ctx = _fork_context() if jobs > 1 else None
        if ctx is None:
            for i in pending:
                t0 = time.perf_counter()
                results[i] = tasks[i].fn()
                walls[i] = time.perf_counter() - t0
            return
        global _WORKER_TASKS
        _WORKER_TASKS = tasks
        try:
            with ctx.Pool(processes=jobs) as pool:
                for index, value, wall, counter_delta in pool.imap_unordered(
                    _run_worker_task, pending, chunksize=1
                ):
                    results[index] = value
                    walls[index] = wall
                    obs_counters.merge(counter_delta)
        finally:
            _WORKER_TASKS = None


def run_cells(
    tasks: Sequence[CellTask],
    options: Optional[ExecutorOptions] = None,
    cache: Optional[ResultCache] = None,
) -> List[Any]:
    """Run *tasks* through a :class:`TrialExecutor` and return their
    values in submission order.

    This is the one executor entrypoint shared by every caller — the
    figure/sweep drivers, the CLI, and the job service — so anything
    that can phrase its work as a list of :class:`CellTask`\\ s gets
    parallelism, caching, and metrics without touching ``__main__``
    plumbing.  Results are bit-identical for any ``options.jobs``.
    """
    return TrialExecutor(options, cache=cache).run(tasks)
