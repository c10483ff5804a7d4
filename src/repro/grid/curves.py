"""Deterministic time-varying grid curves (electricity price, carbon
intensity).

The paper's Resilience Selection maximizes node-efficiency; pricing the
joules that :mod:`repro.energy` accounts requires a model of *when*
they are drawn, because real facilities pay time-varying electricity
rates and grid carbon intensity follows daily generation cycles.  This
module supplies the curve models the grid subsystem folds executions
against:

- :class:`FlatCurve` — a constant level (the degenerate tariff);
- :class:`PiecewiseCurve` — a piecewise-constant step schedule,
  optionally periodic (the classic off-peak / shoulder / peak tariff);
- :class:`SinusoidalCurve` — a daily sinusoid with an optional second
  harmonic, reproducing the morning/evening double peak of real demand
  curves;
- :class:`TraceCurve` — replay of a recorded curve from a versioned
  JSONL file with a SHA-256 digest, mirroring
  :mod:`repro.failures.trace` byte for byte in spirit: record once,
  replay everywhere, identity by digest.

Every curve is evaluable at any simulated instant (:meth:`Curve
.value_at`) **and** integrable in closed form over ``[t0, t1)``
(:meth:`Curve.integral`) — no quadrature, no sampling grid — so cost
accounting is exact and independent of how the execution engine
stepped through time.  The failure-horizon fast path therefore stays
bit-identical: accounting only ever sees the final
:class:`~repro.core.execution.ExecutionStats`, never the step
sequence.

Units: curve time is **seconds**; a price curve is in **USD per kWh**
and a carbon curve in **gCO2 per kWh** (the ``unit`` attribute records
which role an instance plays).
"""

from __future__ import annotations

import abc
import math
import os
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.inputs import Fields, InputError, VersionedJsonl

#: Joules per kilowatt-hour (the bridge between the engine's
#: node-second energy accounting and grid tariffs).
J_PER_KWH = 3_600_000.0

#: Seconds per day (the default period of daily curves).
DAY_S = 86_400.0

#: Unit tag of electricity price curves (USD per kWh).
UNIT_PRICE = "usd_per_kwh"

#: Unit tag of grid carbon-intensity curves (gCO2 per kWh).
UNIT_CARBON = "gco2_per_kwh"


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class Curve(abc.ABC):
    """A nonnegative function of time with exact interval integrals.

    Subclasses guarantee that :meth:`integral` is the closed-form
    antiderivative difference — bit-identical however the caller
    partitions an interval is *not* promised (float addition is not
    associative), but evaluating the same ``[t0, t1)`` always yields
    the same bits on every worker, cache state, and execution path.
    """

    #: Short kind tag (``flat`` / ``piecewise`` / ``sinusoidal`` /
    #: ``trace``), mirrored in scenario documents.
    kind: str = ""

    #: What the level means (:data:`UNIT_PRICE`, :data:`UNIT_CARBON`,
    #: or a free-form tag; empty when unspecified).
    unit: str = ""

    @abc.abstractmethod
    def value_at(self, t: float) -> float:
        """The curve level at instant *t* (seconds)."""

    @abc.abstractmethod
    def integral(self, t0: float, t1: float) -> float:
        """The exact integral over ``[t0, t1)``; 0.0 when ``t1 <= t0``."""

    def mean(self, t0: float, t1: float) -> float:
        """The exact mean level over ``[t0, t1)`` (the point value at
        *t0* for an empty interval, so zero-length executions still
        price at a well-defined instant)."""
        if t1 <= t0:
            return self.value_at(t0)
        return self.integral(t0, t1) / (t1 - t0)

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description (provenance stamps and exports)."""


class FlatCurve(Curve):
    """A constant level at all times."""

    kind = "flat"

    def __init__(self, level: float, unit: str = "") -> None:
        self.level = _require_finite("level", level)
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        self.unit = unit

    def value_at(self, t: float) -> float:
        """The constant level, at any *t*."""
        return self.level

    def integral(self, t0: float, t1: float) -> float:
        """``level * (t1 - t0)``; 0.0 for an empty interval."""
        if t1 <= t0:
            return 0.0
        return self.level * (t1 - t0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description (kind, unit, level)."""
        return {"kind": self.kind, "unit": self.unit, "level": self.level}


class PiecewiseCurve(Curve):
    """A piecewise-constant step schedule.

    *times_s* are the segment start offsets (the first must be 0.0,
    strictly increasing), *levels* the level of each segment.  With
    *period_s* the schedule repeats forever (every start offset must
    fall inside the period); without it the last level holds to
    infinity and the first level extends to ``-inf``.
    """

    kind = "piecewise"

    def __init__(
        self,
        times_s: Sequence[float],
        levels: Sequence[float],
        period_s: Optional[float] = None,
        unit: str = "",
    ) -> None:
        times = [_require_finite("times_s", t) for t in times_s]
        values = [_require_finite("levels", v) for v in levels]
        if not times:
            raise ValueError("piecewise curve needs at least one segment")
        if len(times) != len(values):
            raise ValueError(
                f"times_s and levels must pair up, got "
                f"{len(times)} times and {len(values)} levels"
            )
        if times[0] != 0.0:
            raise ValueError(
                f"the first segment must start at 0.0, got {times[0]}"
            )
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ValueError(
                    f"segment starts must be strictly increasing, "
                    f"got {a} then {b}"
                )
        for v in values:
            if v < 0:
                raise ValueError(f"levels must be >= 0, got {v}")
        if period_s is not None:
            period_s = _require_finite("period_s", period_s)
            if period_s <= 0:
                raise ValueError(f"period_s must be > 0, got {period_s}")
            if times[-1] >= period_s:
                raise ValueError(
                    f"segment starts must fall inside the period, "
                    f"got {times[-1]} >= {period_s}"
                )
        self.times_s: Tuple[float, ...] = tuple(times)
        self.levels: Tuple[float, ...] = tuple(values)
        self.period_s = period_s
        self.unit = unit
        # Cumulative integral from offset 0 to each segment start, and
        # over one full period, precomputed once so interval integrals
        # are pure arithmetic.
        cumulative: List[float] = [0.0]
        for i in range(1, len(times)):
            cumulative.append(
                cumulative[-1] + values[i - 1] * (times[i] - times[i - 1])
            )
        self._cumulative: Tuple[float, ...] = tuple(cumulative)
        if period_s is not None:
            self._period_integral = (
                cumulative[-1] + values[-1] * (period_s - times[-1])
            )
        else:
            self._period_integral = 0.0

    def _phase(self, t: float) -> float:
        """Map *t* onto one period (identity when aperiodic)."""
        if self.period_s is None:
            return t
        k = math.floor(t / self.period_s)
        return t - k * self.period_s

    def value_at(self, t: float) -> float:
        """The level of the segment containing *t* (period-folded)."""
        phase = self._phase(t)
        index = bisect_right(self.times_s, phase) - 1
        if index < 0:
            index = 0
        return self.levels[index]

    def _antiderivative(self, t: float) -> float:
        """Integral from offset 0 to *t* (t >= 0 after phase folding;
        negative aperiodic times extend the first segment)."""
        if self.period_s is None:
            if t <= 0.0:
                return self.levels[0] * t
            index = bisect_right(self.times_s, t) - 1
            return self._cumulative[index] + self.levels[index] * (
                t - self.times_s[index]
            )
        k = math.floor(t / self.period_s)
        phase = t - k * self.period_s
        index = bisect_right(self.times_s, phase) - 1
        if index < 0:  # pragma: no cover - phase is always >= 0
            index = 0
        partial = self._cumulative[index] + self.levels[index] * (
            phase - self.times_s[index]
        )
        return k * self._period_integral + partial

    def integral(self, t0: float, t1: float) -> float:
        """Exact step-sum integral over ``[t0, t1)`` via the
        closed-form antiderivative (whole periods multiply out)."""
        if t1 <= t0:
            return 0.0
        return self._antiderivative(t1) - self._antiderivative(t0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description (segment starts, levels, period)."""
        return {
            "kind": self.kind,
            "unit": self.unit,
            "times_s": list(self.times_s),
            "levels": list(self.levels),
            "period_s": self.period_s,
        }


class SinusoidalCurve(Curve):
    """A daily sinusoid with an optional second harmonic.

    ``value(t) = base + amplitude * cos(w (t - peak_s))
    + amplitude2 * cos(2 w (t - peak2_s))`` with ``w = 2 pi /
    period_s``.  The fundamental peaks once per period at *peak_s*;
    the second harmonic adds two bumps per period (at *peak2_s* and
    half a period later), which is how demand curves get their
    morning/evening double peak.  ``base >= amplitude + amplitude2``
    keeps the curve nonnegative everywhere.
    """

    kind = "sinusoidal"

    def __init__(
        self,
        base: float,
        amplitude: float,
        period_s: float = DAY_S,
        peak_s: float = 0.0,
        amplitude2: float = 0.0,
        peak2_s: float = 0.0,
        unit: str = "",
    ) -> None:
        self.base = _require_finite("base", base)
        self.amplitude = _require_finite("amplitude", amplitude)
        self.period_s = _require_finite("period_s", period_s)
        self.peak_s = _require_finite("peak_s", peak_s)
        self.amplitude2 = _require_finite("amplitude2", amplitude2)
        self.peak2_s = _require_finite("peak2_s", peak2_s)
        self.unit = unit
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if self.amplitude < 0:
            raise ValueError(
                f"amplitude must be >= 0, got {self.amplitude}"
            )
        if self.amplitude2 < 0:
            raise ValueError(
                f"amplitude2 must be >= 0, got {self.amplitude2}"
            )
        if self.base < self.amplitude + self.amplitude2:
            raise ValueError(
                f"base must be >= amplitude + amplitude2 so the curve "
                f"stays nonnegative, got base {self.base} < "
                f"{self.amplitude + self.amplitude2}"
            )
        self._w = 2.0 * math.pi / self.period_s

    def value_at(self, t: float) -> float:
        """Fundamental plus second harmonic, evaluated at *t*."""
        w = self._w
        return (
            self.base
            + self.amplitude * math.cos(w * (t - self.peak_s))
            + self.amplitude2 * math.cos(2.0 * w * (t - self.peak2_s))
        )

    def _antiderivative(self, t: float) -> float:
        w = self._w
        return (
            self.base * t
            + (self.amplitude / w) * math.sin(w * (t - self.peak_s))
            + (self.amplitude2 / (2.0 * w))
            * math.sin(2.0 * w * (t - self.peak2_s))
        )

    def integral(self, t0: float, t1: float) -> float:
        """Exact sinusoid integral over ``[t0, t1)`` (sine
        antiderivative difference; no quadrature anywhere)."""
        if t1 <= t0:
            return 0.0
        return self._antiderivative(t1) - self._antiderivative(t0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description (harmonic parameters)."""
        return {
            "kind": self.kind,
            "unit": self.unit,
            "base": self.base,
            "amplitude": self.amplitude,
            "period_s": self.period_s,
            "peak_s": self.peak_s,
            "amplitude2": self.amplitude2,
            "peak2_s": self.peak2_s,
        }


class TraceCurve(PiecewiseCurve):
    """A recorded curve replayed from a versioned JSONL file.

    Semantically a :class:`PiecewiseCurve` whose steps came from disk;
    its identity is the SHA-256 digest of the canonical JSONL text
    (:func:`curve_digest`), which cache keys and provenance stamps
    carry — the same pattern :class:`repro.failures.trace.FailureTrace`
    uses for failure realizations.
    """

    kind = "trace"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description: point count plus content digest
        (the full step list lives in the JSONL file, not exports)."""
        return {
            "kind": self.kind,
            "unit": self.unit,
            "points": len(self.times_s),
            "period_s": self.period_s,
            "digest": curve_digest(self),
        }


# ---------------------------------------------------------------------------
# Versioned JSONL persistence (the shared codec of repro.inputs)
# ---------------------------------------------------------------------------

#: Format marker in the header record of every curve file.
CURVE_FORMAT = "repro-grid-curve"

#: Bumped whenever the on-disk layout changes; mismatches are errors,
#: never silent misreads.
CURVE_FORMAT_VERSION = 1


class CurveFormatError(InputError):
    """A malformed or version-skewed curve file; one-line message."""


def _record(fields: Fields) -> Tuple[float, float]:
    t = fields.take("t", "float", required=True)
    return t, fields.take("v", "float", required=True)


def _build(header: Fields, points: List[Tuple[float, float]]) -> TraceCurve:
    return TraceCurve(
        times_s=[t for t, _ in points],
        levels=[v for _, v in points],
        period_s=header.take("period_s", "float"),
        unit=header.take("unit", "str", ""),
    )


_JSONL = VersionedJsonl(
    CURVE_FORMAT,
    CURVE_FORMAT_VERSION,
    "points",
    "curve",
    CurveFormatError,
    _record,
    _build,
)


def curve_to_jsonl(curve: TraceCurve) -> str:
    """The canonical JSONL text of *curve* (what :func:`save_curve`
    writes); stable byte-for-byte for equal curves."""
    return _JSONL.dumps(
        {"unit": curve.unit, "period_s": curve.period_s},
        [{"t": t, "v": v} for t, v in zip(curve.times_s, curve.levels)],
    )


def curve_digest(curve: TraceCurve) -> str:
    """SHA-256 of the canonical JSONL text — the curve's identity for
    cache keys and provenance stamps."""
    return _JSONL.digest(curve_to_jsonl(curve))


def save_curve(curve: TraceCurve, path: "os.PathLike | str") -> None:
    """Write *curve* to *path* in the versioned JSONL format."""
    _JSONL.save(curve_to_jsonl(curve), path)


def curve_from_jsonl(text: str, source: str = "<curve>") -> TraceCurve:
    """Parse the JSONL text of a curve (inverse of
    :func:`curve_to_jsonl`).

    Raises :class:`CurveFormatError` with a one-line message on any
    malformed header, record, or version mismatch (the scenario
    validator surfaces it field-qualified); *source* names the origin
    in the message.
    """
    return _JSONL.loads(text, source)


def load_curve(path: "os.PathLike | str") -> TraceCurve:
    """Read a curve written by :func:`save_curve`.

    Raises :class:`CurveFormatError` with a one-line message on any
    unreadable file or malformed content.
    """
    return _JSONL.load(path)


#: Semantic aliases: a *price* curve is any :class:`Curve` in USD/kWh,
#: a *carbon* curve any :class:`Curve` in gCO2/kWh; the ``unit``
#: attribute on the instance says which role it plays.
PriceCurve = Curve
CarbonCurve = Curve
