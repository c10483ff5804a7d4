"""Host speed probe: takes shared-host speed swings out of the timings.

A shared host runs the same CPU-bound code up to ~1.7x slower for
stretches of seconds to minutes, whatever the program does: another
tenant shares the core, its caches and its memory bandwidth.  Best-of-N
estimates do not remove that when a whole run falls in a slow stretch.

So the benchmark times a fixed pure-Python kernel, independent of the
program, right before and right after each timed operation (a
:class:`Window`).  The kernel walks a working set larger than the CPU
caches, as the simulator's object graphs do, so it slows with the host
in the same proportion.  Every timing taken inside a window is scaled by
``REF_S / probe``, ``probe`` being the mean of the window's two kernel
timings: the metrics read in seconds of a host on which the kernel takes
``REF_S``.  A change to the program moves them; a change of host speed
mostly does not.  The raw probe timings are reported with the host
context of each run.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from array import array
from typing import List, Optional

#: Kernel time of the reference host, in seconds (close to this
#: kernel's time on an idle 2-vCPU Xeon guest).
REF_S = 0.0035

#: Working-set size (elements) and random reads per kernel run.
_SIZE = 1 << 20
_READS = 4000


class SpeedProbe:
    """The kernel and every timing taken of it."""

    def __init__(self) -> None:
        rng = random.Random(2017)
        # Arrays hold no object references, so the garbage collector
        # never walks them and the probe adds nothing to the program's
        # collections.
        self._values = array("L", rng.randbytes(_SIZE * array("L").itemsize))
        self._order = [rng.randrange(_SIZE) for _ in range(_READS)]
        self.samples: List[float] = []
        self.sample()

    def sample(self) -> float:
        """Run the kernel once; returns (and keeps) its wall time."""
        values = self._values
        start = time.perf_counter()
        heap: list = []
        sums: dict = {}
        for i in self._order:
            value = values[i]
            t = value * 2.3e-10
            heapq.heappush(heap, (t, i))
            key = value & 4095
            sums[key] = sums.get(key, 0.0) + t * 1.5
            if len(heap) > 40:
                heapq.heappop(heap)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def report(self) -> dict:
        """Probe timings of the run, for the host context."""
        if not self.samples:
            return {}
        ms = sorted(1000.0 * s for s in self.samples)
        quart = statistics.quantiles(ms, n=4) if len(ms) > 1 else [ms[0]] * 3
        return {
            "probe_ref_ms": 1000.0 * REF_S,
            "probe_samples": len(ms),
            "probe_p25_ms": quart[0],
            "probe_p50_ms": quart[1],
            "probe_p75_ms": quart[2],
        }


_PROBE: Optional[SpeedProbe] = None


def probe() -> SpeedProbe:
    """The process's probe, built on first use."""
    global _PROBE
    if _PROBE is None:
        _PROBE = SpeedProbe()
    return _PROBE


class Window:
    """Context manager: probe before and after; ``scale`` turns a
    timing taken inside into reference-host seconds.

    Around work done by other processes, *settle_s* lets them go idle
    first and each end takes the median of *samples* kernel runs, so
    the probe times the host rather than their tail of activity."""

    def __init__(self, samples: int = 1, settle_s: float = 0.0) -> None:
        self.samples = samples
        self.settle_s = settle_s
        self.scale = 1.0
        self._before = 0.0

    def _probe(self) -> float:
        if self.settle_s:
            time.sleep(self.settle_s)
        return statistics.median(probe().sample() for _ in range(self.samples))

    def __enter__(self) -> "Window":
        self._before = self._probe()
        return self

    def __exit__(self, *exc) -> None:
        self.scale = REF_S / ((self._before + self._probe()) / 2.0)


def window(samples: int = 1, settle_s: float = 0.0) -> Window:
    return Window(samples, settle_s)


def scale_now(samples: int = 3) -> float:
    """Scale for a timing that just ended, from the median of a few
    fresh kernel timings (for set-up, which no window can surround)."""
    return REF_S / statistics.median(probe().sample() for _ in range(samples))
