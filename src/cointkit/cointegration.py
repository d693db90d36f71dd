"""Two-step Engle-Granger cointegration testing on levels.

Stage one regresses one level series on the other (plus intercept, plus an
optional linear trend); stage two runs an ADF with no deterministic terms
on the stage-one residuals and compares the t-ratio against two-variable
response-surface critical values.

The test is meaningful only on levels of I(1) series. Inputs whose lineage
records a differencing transform trip a guard warning; the test still runs,
because demonstrating what the misuse produces is itself a supported
workflow (see the Monte Carlo experiments), but the warning travels with
every report downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cointkit.critvals import LEVELS, MIN_N, SOURCE_ID, DeterministicSpec, critical_values_map
from cointkit.ecm import _levels_regression
from cointkit.errors import CointkitError, UsageError, flag_setting, instance_setting, int_setting
from cointkit.formats import JsonRecord, fmt12s, significance_stars
from cointkit.regression import OlsFit, _as_fit, _Solution, median
from cointkit.series import TimeSeries, align, has_differencing, lineage_summary, log_transform
from cointkit.unitroot import _adf, _adf_sample

LOGARITHMS = "logarithms"
UNTRANSFORMED = "untransformed"
NORMALIZE_FIRST = "first"
NORMALIZE_SECOND = "second"

MAX_LAGS = 24
SHORT_SAMPLE_THRESHOLD = 50
COLLINEARITY_CONDITION_LIMIT = 1e8

WARN_DIFFERENCED = "differenced_input"
WARN_SHORT_SAMPLE = "short_sample"
WARN_NEAR_COLLINEAR = "near_collinear_stage_one"

GRID_CSV_COLUMNS = (
    "transform",
    "normalized_on",
    "lags",
    "trend",
    "statistic",
    "stars",
    "cv1",
    "cv5",
    "cv10",
    "warnings",
)


@dataclass(frozen=True)
class EgSpec(JsonRecord):
    """One fully explicit Engle-Granger specification.

    ``normalize_on`` picks the stage-one dependent variable: ``"first"``
    normalizes the cointegrating vector on the first series passed to the
    test, ``"second"`` on the second. No field has a default; reports echo
    all four.
    """

    transform: str
    normalize_on: str
    lags: int
    trend_in_stage_one: bool

    def __post_init__(self):
        if self.transform not in (LOGARITHMS, UNTRANSFORMED):
            raise UsageError(f"transform must be {LOGARITHMS!r} or {UNTRANSFORMED!r}")
        if self.normalize_on not in (NORMALIZE_FIRST, NORMALIZE_SECOND):
            raise UsageError(f"normalize_on must be {NORMALIZE_FIRST!r} or {NORMALIZE_SECOND!r}")
        object.__setattr__(self, "lags", int_setting("lags", self.lags, 0, MAX_LAGS))
        trend = flag_setting("trend_in_stage_one", self.trend_in_stage_one)
        object.__setattr__(self, "trend_in_stage_one", trend)


@dataclass(frozen=True)
class GuardWarning(JsonRecord):
    """A diagnostic that rides along without changing any computed number."""

    code: str
    message: str


@dataclass(frozen=True)
class CointegrationReport(JsonRecord):
    """Everything one Engle-Granger run produced, warnings included."""

    _JSON_TYPE = "cointegration_report"

    spec: EgSpec
    stage_one: OlsFit
    statistic: float
    critical_values: dict[int, float]
    reject_at: dict[int, bool]
    n_effective: int
    stage_two_columns: tuple[str, ...]
    warnings: tuple[GuardWarning, ...]
    cv_source: str = SOURCE_ID

    @property
    def stars(self) -> str:
        return significance_stars(self.statistic, self.critical_values)

    def to_csv_rows(self) -> list[list[str]]:
        """The GRID_CSV_COLUMNS header and this report's one row."""
        return [list(GRID_CSV_COLUMNS), _csv_row(self.spec, self, None)]


def _csv_row(spec: EgSpec, report: CointegrationReport | None, error: str | None) -> list[str]:
    """One GRID_CSV_COLUMNS row; an error row leaves the numbers empty and names the error."""
    row = [spec.transform, spec.normalize_on, str(spec.lags), str(spec.trend_in_stage_one).lower()]
    if report is None:
        return row + [""] * 5 + [f"error:{error}"]
    return row + [
        fmt12s(report.statistic),
        report.stars,
        *(fmt12s(report.critical_values[level]) for level in LEVELS),
        ";".join(w.code for w in report.warnings),
    ]


def _series_display_name(x: TimeSeries, position: str) -> str:
    return x.name or f"{position} input"


def differencing_warning(a: TimeSeries, b: TimeSeries) -> GuardWarning | None:
    """The misuse guard: a warning when either input's lineage records differencing."""
    offenders = [
        f"{_series_display_name(s, pos)} ({lineage_summary(s)})"
        for s, pos in ((a, "first"), (b, "second"))
        if has_differencing(s)
    ]
    if not offenders:
        return None
    return GuardWarning(
        code=WARN_DIFFERENCED,
        message=(
            "input carries differencing transforms, but this test is designed for "
            "levels of I(1) series: " + "; ".join(offenders)
        ),
    )


def _collect_warnings(
    a: TimeSeries, b: TimeSeries, design: np.ndarray, n_effective: int
) -> tuple[GuardWarning, ...]:
    warnings: list[GuardWarning] = []
    guard = differencing_warning(a, b)
    if guard is not None:
        warnings.append(guard)
    if n_effective < SHORT_SAMPLE_THRESHOLD:
        warnings.append(
            GuardWarning(
                code=WARN_SHORT_SAMPLE,
                message=(
                    f"effective sample {n_effective} is below {SHORT_SAMPLE_THRESHOLD}; "
                    "response-surface critical values are unreliable this small"
                ),
            )
        )
    scaled = design / np.sqrt((design * design).sum(axis=0))
    cond = float(np.linalg.cond(scaled))
    if cond > COLLINEARITY_CONDITION_LIMIT:
        warnings.append(
            GuardWarning(
                code=WARN_NEAR_COLLINEAR,
                message=f"stage-one design is near-collinear (condition number {cond:.3g})",
            )
        )
    return tuple(warnings)


def _eg_regressions(
    dep: np.ndarray, other: np.ndarray, spec: EgSpec
) -> tuple[_Solution, _Solution, int]:
    """Both Engle-Granger stages on each row of (..., n) stacks of aligned levels.

    Regresses ``dep`` on ``other`` (plus trend, plus intercept), then runs
    the no-deterministics ADF on the residuals. Returns the stage-one and
    stage-two solutions and the effective sample size; the statistic is
    the stage-two ``t_stats[..., 0]``. ``spec.transform`` and
    ``spec.normalize_on`` have already been applied by the caller. The
    residuals are as long as the levels, so the ADF sample is checked first.
    """
    _adf_sample(dep.shape[-1], spec.lags)
    stage_one = _levels_regression(dep, other, spec.trend_in_stage_one)
    stage_two, n_eff = _adf(stage_one.resid, spec.lags, DeterministicSpec.none())
    return stage_one, stage_two, n_eff


def eg_critical_values(n_eff: int, trend_in_stage_one: bool) -> dict[int, float]:
    """Two-variable critical values for the stage-one deterministic terms."""
    det = (
        DeterministicSpec.constant_trend()
        if trend_in_stage_one
        else DeterministicSpec.constant_only()
    )
    return critical_values_map(2, max(n_eff, MIN_N), det)


def engle_granger_test(a: TimeSeries, b: TimeSeries, spec: EgSpec) -> CointegrationReport:
    """Two-step Engle-Granger test of ``a`` and ``b`` under ``spec``.

    The series are aligned to their overlapping range first. Stage two uses
    an ADF with no constant and no trend (stage-one residuals are already
    mean zero, and detrended when the stage-one trend is on); critical
    values come from the two-variable surface matching the stage-one
    deterministic terms.

    Raises
    ------
    NoOverlap, FrequencyMismatch, SeriesTooShort, NonPositiveValue, DegenerateInput
    """
    a_al, b_al = align(a, b)
    if spec.transform == LOGARITHMS:
        a_t, b_t = log_transform(a_al), log_transform(b_al)
    else:
        a_t, b_t = a_al, b_al

    if spec.normalize_on == NORMALIZE_FIRST:
        dep, other = a_t, b_t
    else:
        dep, other = b_t, a_t

    stage_one, stage_two, n_eff = _eg_regressions(dep.values, other.values, spec)
    statistic = float(stage_two.t_stats[0])
    cvs = eg_critical_values(n_eff, spec.trend_in_stage_one)

    return CointegrationReport(
        spec=spec,
        stage_one=_as_fit(stage_one),
        statistic=statistic,
        critical_values=cvs,
        reject_at={level: statistic < cvs[level] for level in LEVELS},
        warnings=_collect_warnings(a, b, stage_one.design, n_eff),
        n_effective=n_eff,
        stage_two_columns=stage_two.names,
    )


@dataclass(frozen=True)
class GridCell:
    """One grid position: its spec and either a report or an error string."""

    spec: EgSpec
    report: CointegrationReport | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass(frozen=True)
class GridReport:
    """Reports for every grid cell plus summary aggregates.

    Aggregates cover successfully computed cells only; errored cells are
    carried through (never aborting the grid) and counted separately.
    """

    cells: tuple[GridCell, ...]
    min_statistic: float | None
    max_statistic: float | None
    median_statistic: float | None
    reject_counts: dict[int, int]
    cells_ok: int
    cells_errored: int

    def to_json_dict(self) -> dict:
        return {
            "type": "grid_report",
            "cells": [
                {
                    "spec": cell.spec.to_json_dict(),
                    "report": cell.report.to_json_dict() if cell.report else None,
                    "error": cell.error,
                }
                for cell in self.cells
            ],
            "aggregates": {
                "min_statistic": self.min_statistic,
                "max_statistic": self.max_statistic,
                "median_statistic": self.median_statistic,
                "reject_counts": {str(l): self.reject_counts[l] for l in LEVELS},
                "cells_ok": self.cells_ok,
                "cells_errored": self.cells_errored,
            },
        }

    def to_csv_rows(self) -> list[list[str]]:
        """Fixed-order machine rows; see GRID_CSV_COLUMNS for the contract."""
        return [list(GRID_CSV_COLUMNS)] + [
            _csv_row(cell.spec, cell.report, cell.error) for cell in self.cells
        ]


def default_grid() -> list[EgSpec]:
    """The canonical 12-cell grid: {log, untransformed} x {first, second}
    x {(0 lags), (12 lags), (12 lags + trend)}."""
    variants = ((0, False), (12, False), (12, True))
    return [
        EgSpec(transform=tr, normalize_on=norm, lags=lags, trend_in_stage_one=trend)
        for tr in (LOGARITHMS, UNTRANSFORMED)
        for norm in (NORMALIZE_FIRST, NORMALIZE_SECOND)
        for lags, trend in variants
    ]


def run_spec_grid(a: TimeSeries, b: TimeSeries, grid: list[EgSpec] | None = None) -> GridReport:
    """Run a list of Engle-Granger specs and aggregate the statistics.

    A failing cell is recorded with its error and skipped by the
    aggregates; the rest of the grid still runs. ``grid=None`` means the
    12-cell default grid.
    """
    try:
        specs = default_grid() if grid is None else list(grid)
    except TypeError:  # not iterable
        raise UsageError(f"grid must be a sequence of EgSpec, got {grid!r}") from None
    for i, spec in enumerate(specs):
        instance_setting(f"grid[{i}]", spec, EgSpec)
    if not specs:
        raise UsageError("grid must contain at least one spec")

    cells: list[GridCell] = []
    for spec in specs:
        try:
            report = engle_granger_test(a, b, spec)
        except CointkitError as exc:  # recorded per-cell, grid keeps going
            cells.append(GridCell(spec=spec, report=None, error=f"{type(exc).__name__}: {exc}"))
        else:
            cells.append(GridCell(spec=spec, report=report, error=None))

    stats = [c.report.statistic for c in cells if c.report is not None]
    reject_counts = {
        level: sum(1 for c in cells if c.report is not None and c.report.reject_at[level])
        for level in LEVELS
    }
    return GridReport(
        cells=tuple(cells),
        min_statistic=min(stats) if stats else None,
        max_statistic=max(stats) if stats else None,
        median_statistic=median(stats) if stats else None,
        reject_counts=reject_counts,
        cells_ok=len(stats),
        cells_errored=len(cells) - len(stats),
    )
