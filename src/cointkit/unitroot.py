"""Augmented Dickey-Fuller unit-root testing.

The test regresses the first difference of a series on its lagged level,
caller-chosen deterministic terms, and ``lags`` lagged differences; the
statistic is the t-ratio on the lagged level. Lag order is always
caller-specified: the workflows built on top treat the lag count as part
of the reported specification, never as a fitted quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cointkit.critvals import LEVELS, SOURCE_ID, DeterministicSpec, adf_critical_values, rejections
from cointkit.errors import float_data, instance_setting
from cointkit.formats import fmt12s
from cointkit.regression import OlsFit, _adf, _adf_lags, _as_fit
from cointkit.series import TimeSeries

CSV_COLUMNS = (
    "statistic",
    "lags",
    "deterministic",
    "n_effective",
    "cv1",
    "cv5",
    "cv10",
    "reject1",
    "reject5",
    "reject10",
)


@dataclass(frozen=True)
class UnitRootReport:
    """Outcome of one ADF run: statistic, configuration, and decisions."""

    statistic: float
    lags: int
    det: DeterministicSpec
    n_effective: int
    critical_values: dict[int, float]
    reject_at: dict[int, bool]
    cv_source: str = SOURCE_ID

    def to_json_dict(self) -> dict:
        return {
            "type": "unit_root_report",
            "statistic": self.statistic,
            "lags": self.lags,
            "deterministic": self.det.label(),
            "n_effective": self.n_effective,
            "critical_values": {str(l): self.critical_values[l] for l in LEVELS},
            "reject_at": {str(l): self.reject_at[l] for l in LEVELS},
            "cv_source": self.cv_source,
        }

    def to_csv_rows(self) -> list[list[str]]:
        """The CSV_COLUMNS header and this report's one row."""
        row = [fmt12s(self.statistic), str(self.lags), self.det.label(), str(self.n_effective)]
        row += [fmt12s(self.critical_values[level]) for level in LEVELS]
        row += [str(self.reject_at[level]).lower() for level in LEVELS]
        return [list(CSV_COLUMNS), row]


def adf_regression(values: np.ndarray, lags: int, det: DeterministicSpec) -> tuple[float, int, OlsFit]:
    """ADF statistic, effective sample size, and the underlying fit.

    Operates on a bare value array, such as a regression residual; this is
    the one-series case of the stacked regression the Monte Carlo runners use.
    """
    instance_setting("det", det, DeterministicSpec)
    sol, n_eff = _adf(float_data("values", values).ravel(), _adf_lags(lags), det.constant, det.trend)
    return float(sol.t_stats[0]), n_eff, _as_fit(sol)


def adf_test(x: TimeSeries, lags: int, det: DeterministicSpec) -> UnitRootReport:
    """Augmented Dickey-Fuller test on a series.

    Parameters
    ----------
    x : TimeSeries
        Input series; needs at least ``lags`` + 11 observations so the
        effective sample is >= ``MIN_EFFECTIVE_SAMPLE`` (10).
    lags : int
        Number of lagged differences included; never chosen automatically.
    det : DeterministicSpec
        Deterministic terms of the test regression.

    Returns
    -------
    UnitRootReport
        With one-variable critical values; for samples below the table's
        minimum the surface is evaluated at its smallest supported size.
    """
    instance_setting("x", x, TimeSeries)
    lags = _adf_lags(lags)
    instance_setting("det", det, DeterministicSpec)
    sol, n_eff = _adf(x.values, lags, det.constant, det.trend)
    stat = float(sol.t_stats[0])
    cvs = adf_critical_values(n_eff, det)
    return UnitRootReport(
        statistic=stat,
        lags=lags,
        det=det,
        n_effective=n_eff,
        critical_values=cvs,
        reject_at=rejections(stat, cvs),
    )
