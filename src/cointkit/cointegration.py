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

:func:`engle_granger_test` is the one-spec case of the grid's solve, which
solves each distinct stage once on the OLS core: stage one in one stack per
trend setting, one row per distinct transform and normalization, and stage
two in one stack per lags and trend, fed the residual rows of stage one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cointkit.critvals import LEVELS, SOURCE_ID, eg_critical_values
from cointkit.errors import CointkitError, UsageError, flag_setting, instance_setting, int_setting
from cointkit.formats import JsonRecord, fmt12s, significance_stars
from cointkit.regression import MAX_LAGS, OlsFit, _adf_sample, _as_fit, _eg_stage_two, _levels_regression, median
from cointkit.series import TimeSeries, align, has_differencing, lineage_summary, log_transform

LOGARITHMS = "logarithms"
UNTRANSFORMED = "untransformed"
NORMALIZE_FIRST = "first"
NORMALIZE_SECOND = "second"

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


def _collect_warnings(designs: np.ndarray) -> list[tuple[GuardWarning, ...]]:
    """The near-collinearity warning, or none, of each design in a stage-one stack.

    One stacked ``np.linalg.cond`` makes one SVD per design, so each value is
    bitwise that of its design alone.
    """
    scaled = designs / np.sqrt((designs * designs).sum(axis=-2, keepdims=True))
    return [
        (
            GuardWarning(
                code=WARN_NEAR_COLLINEAR,
                message=f"stage-one design is near-collinear (condition number {cond:.3g})",
            ),
        )
        if cond > COLLINEARITY_CONDITION_LIMIT
        else ()
        for cond in np.linalg.cond(scaled).tolist()
    ]


def _reports(a: TimeSeries, b: TimeSeries, specs: list[EgSpec]) -> list[CointegrationReport]:
    """The report of each spec on ``a`` and ``b``, each distinct stage solved once.

    The pair is aligned once, its lineage checked once by the differencing
    guard, and each series transformed once per transform used. Stage one
    is one stack per trend setting, one row per distinct (transform,
    normalization); its rows' fits and collinearity warnings are shared by
    every cell that uses them. Stage two is one stack per ``(lags, trend)``,
    one row per distinct stage one, and reads its critical values once. A
    slice of a stack is bitwise the solution of its design alone, so a
    report does not depend on the other specs. Every lag count's sample is
    checked first, then stage one, then stage two; the first
    :class:`CointkitError` raised propagates, so for one spec it is the
    error the spec raises alone.
    """
    a_al, b_al = align(a, b)
    guard = () if (warning := differencing_warning(a, b)) is None else (warning,)
    levels = {}
    for transform in dict.fromkeys(spec.transform for spec in specs):
        first, second = a_al, b_al
        if transform == LOGARITHMS:
            first, second = log_transform(a_al), log_transform(b_al)
        levels[transform, NORMALIZE_FIRST] = (first.values, second.values)
        levels[transform, NORMALIZE_SECOND] = (second.values, first.values)
    for lags in dict.fromkeys(spec.lags for spec in specs):
        _adf_sample(len(a_al), lags)
    pairs: dict[bool, dict[tuple[str, str], None]] = {}  # trend -> (transform, normalize_on)
    groups: dict[tuple[int, bool], list[EgSpec]] = {}  # (lags, trend) -> distinct specs
    for spec in dict.fromkeys(specs):
        pairs.setdefault(spec.trend_in_stage_one, {})[spec.transform, spec.normalize_on] = None
        groups.setdefault((spec.lags, spec.trend_in_stage_one), []).append(spec)

    firsts = {}  # (transform, normalize_on, trend) -> dependent levels, residuals, fit, warnings
    for trend, keys in pairs.items():
        dep, other = (np.stack(side) for side in zip(*map(levels.get, keys)))
        sol = _levels_regression(dep, other, trend)
        for row, (key, collinear) in enumerate(zip(keys, _collect_warnings(sol.design))):
            firsts[(*key, trend)] = (dep[row], sol.resid[row], _as_fit(sol.row(row)), collinear)
    reports = {}
    for (lags, trend), cells in groups.items():
        rows = [firsts[spec.transform, spec.normalize_on, trend] for spec in cells]
        dep, resid = (np.stack(side) for side in zip(*(row[:2] for row in rows)))
        stage_two, n_eff = _eg_stage_two(resid, dep, lags)
        cvs = eg_critical_values(n_eff, trend)
        short = ()
        if n_eff < SHORT_SAMPLE_THRESHOLD:
            message = (
                f"effective sample {n_eff} is below {SHORT_SAMPLE_THRESHOLD}; "
                "response-surface critical values are unreliable this small"
            )
            short = (GuardWarning(code=WARN_SHORT_SAMPLE, message=message),)
        for row, (spec, (_, _, fit, collinear)) in enumerate(zip(cells, rows)):
            statistic = float(stage_two.t_stats[row, 0])
            reports[spec] = CointegrationReport(
                spec=spec,
                stage_one=fit,
                statistic=statistic,
                critical_values=cvs,
                reject_at={level: statistic < cvs[level] for level in LEVELS},
                warnings=(*guard, *short, *collinear),
                n_effective=n_eff,
                stage_two_columns=stage_two.names,
            )
    return [reports[spec] for spec in specs]


def engle_granger_test(a: TimeSeries, b: TimeSeries, spec: EgSpec) -> CointegrationReport:
    """Two-step Engle-Granger test of ``a`` and ``b`` under ``spec``.

    The series are aligned to their overlapping range first. Stage two uses
    an ADF with no constant and no trend (stage-one residuals are already
    mean zero, and detrended when the stage-one trend is on); critical
    values come from the two-variable surface matching the stage-one
    deterministic terms. This is the one-spec case of the grid's stacked
    solve.

    Raises
    ------
    NoOverlap, FrequencyMismatch, SeriesTooShort, NonPositiveValue, DegenerateInput
    """
    instance_setting("spec", spec, EgSpec)
    return _reports(a, b, [spec])[0]


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

    Each distinct stage one (transform, normalization, trend) is solved
    once, and cells that share it share its fit; each distinct stage two
    is one row of a stack per lags and trend. Each cell's report is bitwise
    the one :func:`engle_granger_test` gives for it alone. If any transform, stack
    or report raises, every cell is run alone through
    :func:`engle_granger_test`, so each records what it gives by itself.
    """
    instance_setting("a", a, TimeSeries)  # before the grid, which records a cell's UsageError
    instance_setting("b", b, TimeSeries)
    try:
        specs = default_grid() if grid is None else list(grid)
    except TypeError:  # not iterable
        raise UsageError(f"grid must be a sequence of EgSpec, got {grid!r}") from None
    for i, spec in enumerate(specs):
        instance_setting(f"grid[{i}]", spec, EgSpec)
    if not specs:
        raise UsageError("grid must contain at least one spec")

    try:
        reports: list[CointegrationReport | None] = _reports(a, b, specs)
    except CointkitError:  # run every cell alone, so each records the error it raises
        reports = [None] * len(specs)
    cells: list[GridCell] = []
    for spec, report in zip(specs, reports):
        try:
            if report is None:
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
