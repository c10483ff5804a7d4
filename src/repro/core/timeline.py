"""ASCII execution timelines.

Renders the ``(start, end, activity)`` spans a
:class:`repro.obs.sinks.TimelineSink` collects from a simulation's bus
as a labelled text gantt — handy for debugging resilience behaviour
and for documentation.

::

    work       |####  ##   ####### ... |  83.1%
    recovery   |    #                  |   2.4%
    checkpoint |        #              |   1.1%
    restart    |     #                 |  13.4%
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Span = Tuple[float, float, str]

#: Row order in the rendering.
ACTIVITIES = ("work", "recovery", "checkpoint", "restart", "wait")


def activity_totals(spans: Sequence[Span]) -> dict:
    """Total seconds per activity."""
    totals = {name: 0.0 for name in ACTIVITIES}
    for start, end, activity in spans:
        if activity not in totals:
            raise ValueError(f"unknown activity {activity!r}")
        if end < start:
            raise ValueError(f"inverted span ({start}, {end})")
        totals[activity] += end - start
    return totals


def render_timeline(spans: Sequence[Span], width: int = 72) -> str:
    """Render *spans* as one text row per activity.

    Each of the ``width`` columns covers an equal slice of the full
    duration; a column is marked when more than half of it is spent in
    that activity.
    """
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    if not spans:
        return "(empty timeline)"
    t0 = min(s[0] for s in spans)
    t1 = max(s[1] for s in spans)
    duration = max(t1 - t0, 1e-12)
    column = duration / width

    rows: List[str] = []
    totals = activity_totals(spans)
    grand_total = sum(totals.values()) or 1.0
    for activity in ACTIVITIES:
        fill = [0.0] * width
        for start, end, kind in spans:
            if kind != activity:
                continue
            first = int((start - t0) / column)
            last = min(width - 1, int((end - t0 - 1e-12) / column))
            for i in range(first, last + 1):
                slice_start = t0 + i * column
                slice_end = slice_start + column
                overlap = min(end, slice_end) - max(start, slice_start)
                fill[i] += max(0.0, overlap)
        cells = "".join("#" if f > column / 2 else " " for f in fill)
        share = 100.0 * totals[activity] / grand_total
        rows.append(f"{activity:<10} |{cells}| {share:5.1f}%")
    header = (
        f"t = {t0:.0f} .. {t1:.0f} s "
        f"({(t1 - t0) / 3600:.2f} h, {len(spans)} spans)"
    )
    return "\n".join([header] + rows)
