"""In-memory span recorder used by the traced benchmark runs.

Spans are recorded around calls into each layer's public functions by
patching those functions from the benchmark's own files, so the
program under test carries no tracing code.  Each span keeps its name,
wall-clock start and end (``time.time``, comparable across the
benchmark's processes on one host), the index of the span that
enclosed it on the same thread, and optional integer attributes.

Self time is a span's duration minus the part of it that its child
spans cover (:func:`self_times`); :func:`aggregate` folds a span list
into per-name totals that the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return [
        span.duration - covered_length(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


@dataclass
class SpanStats:
    """Aggregate of every span of one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    attrs: Dict[str, float] = field(default_factory=dict)

    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.durations) if self.durations else 0.0

    def mean_ms(self) -> float:
        return 1000.0 * self.total_s / self.count if self.count else 0.0



def aggregate(spans: Sequence[Span]) -> Dict[str, SpanStats]:
    """Fold *spans* into per-name :class:`SpanStats`."""
    out: Dict[str, SpanStats] = {}
    for span, self_s in zip(spans, self_times(spans)):
        stats = out.setdefault(span.name, SpanStats())
        stats.count += 1
        stats.total_s += span.duration
        stats.self_s += self_s
        stats.durations.append(span.duration)
        for key, value in span.attrs.items():
            stats.attrs[key] = stats.attrs.get(key, 0) + value
    return out


def merge(parts: Iterable[Dict[str, SpanStats]]) -> Dict[str, SpanStats]:
    """Sum several per-name aggregates (one per process)."""
    out: Dict[str, SpanStats] = {}
    for part in parts:
        for name, stats in part.items():
            acc = out.setdefault(name, SpanStats())
            acc.count += stats.count
            acc.total_s += stats.total_s
            acc.self_s += stats.self_s
            acc.durations.extend(stats.durations)
            for key, value in stats.attrs.items():
                acc.attrs[key] = acc.attrs.get(key, 0) + value
    return out


class Tracer:
    """Records spans on a per-thread stack; thread-safe appends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[int]:
        """Open a span; returns its index (None when the innermost open
        span already has this name — recursion is one span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and self.spans[parent].name == name:
            return None
        span = Span(name=name, start=time.time(), parent=parent)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: Optional[int], **attrs: float) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.time()
        span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def record(self, name: str, start: float, end: float, **attrs: float) -> None:
        """Add a finished top-level span measured elsewhere."""
        with self._lock:
            self.spans.append(Span(name=name, start=start, end=end, attrs=dict(attrs)))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[..., Dict[str, float]]] = None,
        everywhere: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *after* receives ``(result, args, kwargs)`` and returns span
        attributes.  With *everywhere*, every loaded module that bound
        the same function object by name (``from m import f``) is
        patched too.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            attrs: Dict[str, float] = {}
            try:
                result = original(*args, **kwargs)
                if after is not None and index is not None:
                    attrs = after(result, args, kwargs)
                return result
            finally:
                tracer.end(index, **attrs)

        self.patch(owner, attr, wrapper)
        if everywhere:
            for module in list(sys.modules.values()):
                if module is not None and getattr(module, attr, None) is original:
                    self.patch(module, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`unwrap_all`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def dump(self, path: str) -> None:
        """Write the per-name aggregate as JSON (subprocess hand-off)."""
        data = {
            "aggregate": {k: asdict(v) for k, v in aggregate(self.spans).items()},
            "intervals": [
                [s.name, s.start, s.end]
                for s in self.spans
                if s.name in INTERVAL_SPANS
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


#: Span names whose absolute intervals a subprocess hands back, for
#: critical-path coverage on the benchmark side.
INTERVAL_SPANS = ("campaign.step",)


def load_dump(path: str) -> Tuple[Dict[str, SpanStats], List[Tuple[str, float, float]]]:
    """Inverse of :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    stats = {k: SpanStats(**v) for k, v in data["aggregate"].items()}
    return stats, [tuple(item) for item in data["intervals"]]
