"""Dated, regularly spaced series with transform lineage.

A :class:`TimeSeries` is immutable; every transform returns a new series
and appends exactly one :class:`TransformTag` to its lineage. Downstream
code (notably the cointegration misuse guard) inspects that lineage to
tell raw data apart from differenced data.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from cointkit.errors import (
    DataError,
    FrequencyMismatch,
    NonPositiveValue,
    NoOverlap,
    SeriesTooShort,
    UsageError,
    float_data,
    instance_setting,
    int_setting,
)

MONTHLY = 12
QUARTERLY = 4

LOG = "log"
SEASONAL_DIFF = "seasonal_diff"
ITERATED_DIFF = "iterated_diff"

_QUARTER_START_MONTHS = (1, 4, 7, 10)


@dataclass(frozen=True)
class TransformTag:
    """One applied transform: kind, its integer parameter, and its step index.

    ``param`` is the gap for seasonal differencing, the order for iterated
    differencing, and ``None`` for the log transform. ``applied_at`` is the
    1-based position of the tag in the series lineage.
    """

    kind: str
    param: int | None
    applied_at: int

    def __post_init__(self):
        if self.kind not in (LOG, SEASONAL_DIFF, ITERATED_DIFF):
            raise UsageError(f"unknown transform kind {self.kind!r}")
        if self.kind == LOG and self.param is not None:
            raise UsageError("log transform takes no parameter")
        if self.kind != LOG:
            object.__setattr__(self, "param", int_setting(f"{self.kind} param", self.param, 1))
        object.__setattr__(self, "applied_at", int_setting("applied_at", self.applied_at, 1))

    @property
    def is_differencing(self) -> bool:
        return self.kind in (SEASONAL_DIFF, ITERATED_DIFF)

    def label(self) -> str:
        if self.kind == LOG:
            return "log"
        arg = "gap" if self.kind == SEASONAL_DIFF else "order"
        return f"{self.kind}({arg}={self.param})"


def _check_start(start: tuple[int, int], frequency: int) -> None:
    year, month = start
    if frequency == MONTHLY:
        if not 1 <= month <= 12:
            raise DataError(f"month {month} out of range for monthly data")
    elif frequency == QUARTERLY:
        if month not in _QUARTER_START_MONTHS:
            raise DataError(
                f"quarterly start month must be one of {_QUARTER_START_MONTHS}, got {month}"
            )
    else:
        raise DataError(f"frequency must be 12 (monthly) or 4 (quarterly), got {frequency}")
    if year < 0:
        raise DataError(f"year {year} out of range")


def _abs_index(start: tuple[int, int], frequency: int) -> int:
    year, month = start
    if frequency == MONTHLY:
        return year * 12 + (month - 1)
    return year * 4 + (month - 1) // 3


def _from_abs_index(index: int, frequency: int) -> tuple[int, int]:
    if frequency == MONTHLY:
        return index // 12, index % 12 + 1
    return index // 4, (index % 4) * 3 + 1


_PERIOD_SUFFIXES = {
    MONTHLY: tuple(f"-{month:02d}" for month in range(1, 13)),
    QUARTERLY: ("Q1", "Q2", "Q3", "Q4"),
}


def period_labels(first: int, count: int, frequency: int) -> list[str]:
    """Labels of ``count`` consecutive periods from absolute period index ``first``."""
    year, skip = divmod(first, frequency)
    years = [f"{y:04d}" for y in range(year, (first + count - 1) // frequency + 1)]
    labels = [y + suffix for y in years for suffix in _PERIOD_SUFFIXES[frequency]]
    return labels[skip : skip + count]


@dataclass(frozen=True)
class TimeSeries:
    """A dated numeric sequence plus the transforms applied since ingestion.

    Parameters
    ----------
    start : (year, month)
        Calendar period of the first observation. Quarterly series use the
        first month of the quarter (1, 4, 7, or 10).
    frequency : int
        Periods per year: 12 for monthly, 4 for quarterly.
    values : sequence of float
        Finite observations; at least one.
    lineage : tuple of TransformTag
        Empty for raw (ingested) data.
    name : str
        Optional label used in reports and guard messages.
    """

    start: tuple[int, int]
    frequency: int
    values: np.ndarray
    lineage: tuple[TransformTag, ...] = ()
    name: str = ""

    def __post_init__(self):
        try:
            year, month = self.start
        except (TypeError, ValueError):
            raise UsageError(f"start must be a (year, month) pair, got {self.start!r}") from None
        start = (int_setting("start year", year), int_setting("start month", month))
        frequency = int_setting("frequency", self.frequency)
        _check_start(start, frequency)
        vals = float_data("values", self.values).ravel()
        if vals.size < 1:
            raise DataError("a series needs at least one observation")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise DataError(f"non-finite value at position {bad}")
        vals.setflags(write=False)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "frequency", frequency)
        object.__setattr__(self, "values", vals)
        lineage = tuple(instance_setting("lineage", self.lineage, Iterable))
        for i, tag in enumerate(lineage):
            instance_setting(f"lineage[{i}]", tag, TransformTag)
        object.__setattr__(self, "lineage", lineage)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.frequency == other.frequency
            and self.lineage == other.lineage
            and self.name == other.name
            and np.array_equal(self.values, other.values)
        )

    @property
    def start_index(self) -> int:
        """Absolute period index of the first observation."""
        return _abs_index(self.start, self.frequency)

    @property
    def end_index(self) -> int:
        """Absolute period index of the last observation."""
        return self.start_index + len(self) - 1

    def label_at(self, i: int) -> str:
        """Calendar label of observation ``i`` (0-based)."""
        if not 0 <= i < len(self):
            raise IndexError(i)
        return period_labels(self.start_index + i, 1, self.frequency)[0]

    @property
    def start_label(self) -> str:
        return self.label_at(0)

    @property
    def end_label(self) -> str:
        return self.label_at(len(self) - 1)

    def shifted_start(self, periods: int) -> tuple[int, int]:
        return _from_abs_index(self.start_index + periods, self.frequency)

    def _derive(self, values: np.ndarray, periods_dropped: int, tag: TransformTag) -> "TimeSeries":
        return TimeSeries(
            start=self.shifted_start(periods_dropped),
            frequency=self.frequency,
            values=values,
            lineage=self.lineage + (tag,),
            name=self.name,
        )

    def slice(self, i: int, j: int) -> "TimeSeries":
        """Sub-series of observations ``i:j``; lineage and name carry over."""
        if not (0 <= i < j <= len(self)):
            raise UsageError(f"invalid slice [{i}:{j}] of series of length {len(self)}")
        return TimeSeries(
            start=self.shifted_start(i),
            frequency=self.frequency,
            values=self.values[i:j],
            lineage=self.lineage,
            name=self.name,
        )


def _next_tag(x: TimeSeries, kind: str, param: int | None) -> TransformTag:
    return TransformTag(kind=kind, param=param, applied_at=len(x.lineage) + 1)


def log_transform(x: TimeSeries) -> TimeSeries:
    """Element-wise natural log; requires strictly positive values.

    Raises
    ------
    NonPositiveValue
        Carrying the position of the first offending value.
    """
    instance_setting("x", x, TimeSeries)
    nonpos = np.flatnonzero(x.values <= 0.0)
    if nonpos.size:
        i = int(nonpos[0])
        raise NonPositiveValue(i, float(x.values[i]))
    return x._derive(np.log(x.values), 0, _next_tag(x, LOG, None))


def seasonal_difference(x: TimeSeries, gap: int) -> TimeSeries:
    """Span-``gap`` difference x_t - x_{t-gap} (year over year when gap equals
    the frequency). The output is ``gap`` observations shorter and starts
    ``gap`` periods later."""
    instance_setting("x", x, TimeSeries)
    gap = int_setting("gap", gap, 1)
    if len(x) <= gap:
        raise SeriesTooShort(f"need more than {gap} observations, have {len(x)}")
    # A difference of finite values may overflow; TimeSeries reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        values = x.values[gap:] - x.values[:-gap]
    return x._derive(values, gap, _next_tag(x, SEASONAL_DIFF, gap))


def iterated_difference(x: TimeSeries, order: int) -> TimeSeries:
    """One-period difference operator applied ``order`` times.

    Note this is not a span-``order`` change: on a linear ramp the second
    and higher iterated differences vanish while the seasonal difference
    of any gap is constant and nonzero.
    """
    instance_setting("x", x, TimeSeries)
    order = int_setting("order", order, 1)
    if len(x) <= order:
        raise SeriesTooShort(f"need more than {order} observations, have {len(x)}")
    # A difference of finite values may overflow; TimeSeries reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.diff(x.values, n=order)
    return x._derive(values, order, _next_tag(x, ITERATED_DIFF, order))


def align(a: TimeSeries, b: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    """Trim both series to their overlapping date range.

    Raises
    ------
    FrequencyMismatch
        If the two series have different frequencies.
    NoOverlap
        If the date ranges do not intersect.
    """
    instance_setting("a", a, TimeSeries)
    instance_setting("b", b, TimeSeries)
    if a.frequency != b.frequency:
        raise FrequencyMismatch(a.frequency, b.frequency)
    lo = max(a.start_index, b.start_index)
    hi = min(a.end_index, b.end_index)
    if lo > hi:
        raise NoOverlap(
            f"no overlap between {a.start_label}..{a.end_label} and {b.start_label}..{b.end_label}"
        )
    a2 = a.slice(lo - a.start_index, hi - a.start_index + 1)
    b2 = b.slice(lo - b.start_index, hi - b.start_index + 1)
    return a2, b2


def has_differencing(x: TimeSeries) -> bool:
    """True when any lineage tag is a differencing operation."""
    instance_setting("x", x, TimeSeries)
    return any(tag.is_differencing for tag in x.lineage)


def lineage_summary(x: TimeSeries) -> str:
    if not x.lineage:
        return "raw"
    return " -> ".join(tag.label() for tag in x.lineage)
