"""Host context and process accounting for one benchmark run.

Shared hosts steal CPU from guests; a run with heavy steal reads
slower in wall time without the program having changed.  Every run
therefore records ``nproc``, the load average and the ``/proc/stat``
steal and user ticks over the run, so that such runs can be told apart.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from typing import Dict, Iterable, Optional


def _cpu_ticks() -> Optional[Dict[str, int]]:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {name: int(value) for name, value in zip(names, fields[1:])}


def _loadavg() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


class HostWatch:
    """Snapshot host counters at construction; :meth:`report` gives the
    deltas over the run."""

    def __init__(self) -> None:
        self._start = _cpu_ticks()
        self._load_start = _loadavg()

    def report(self) -> Dict[str, object]:
        end = _cpu_ticks()
        out: Dict[str, object] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_start": self._load_start,
            "loadavg_end": _loadavg(),
        }
        if self._start is not None and end is not None:
            delta = {k: end[k] - self._start[k] for k in end}
            busy = delta["user"] + delta["nice"] + delta["system"]
            out["steal_ticks"] = delta["steal"]
            out["user_ticks"] = delta["user"]
            out["steal_per_busy"] = delta["steal"] / busy if busy else 0.0
        return out


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process (0 if gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name start at index 3 (state).
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def cpu_s(pids: Iterable[int] = ()) -> float:
    """CPU seconds of this process (at full clock resolution), its
    waited-for children and the live processes *pids*."""
    times = os.times()
    own = time.process_time() + times.children_user + times.children_system
    return own + sum(proc_cpu_s(pid) for pid in pids)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0
