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

from cointkit.critvals import (
    LEVELS,
    MIN_N,
    SOURCE_ID,
    DeterministicSpec,
    critical_values_map,
)
from cointkit.errors import DegenerateInput, SeriesTooShort, UsageError
from cointkit.regression import OlsFit, _as_fit, _lstsq, _rowdot, _Solution
from cointkit.series import TimeSeries

MIN_EFFECTIVE_SAMPLE = 10

LEVEL_COLUMN = "level_lag1"


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


def _degenerate(values: np.ndarray, dx_resid: np.ndarray) -> np.ndarray:
    """Per row of a stack: is the largest |residual| negligible against the series scale?"""
    scale = np.fmax(1.0, np.abs(values).max(axis=-1))
    return np.abs(dx_resid).max(axis=-1, initial=0.0) <= 1e-12 * scale


def _lag_order(lags) -> int:
    """``lags`` as an int, which must be >= 0."""
    lags = int(lags)
    if lags < 0:
        raise UsageError(f"lags must be >= 0, got {lags}")
    return lags


def _adf(x: np.ndarray, lags: int, det: DeterministicSpec) -> tuple[_Solution, int]:
    """The ADF regression of each row of ``x`` (..., m), and the effective sample size.

    The statistic is ``t_stats[..., 0]``, the t-ratio on the lagged level.
    On a stack every check covers every row, and the first failure raises.
    """
    lags = _lag_order(lags)
    m = x.shape[-1]
    n_eff = m - 1 - lags
    if n_eff < MIN_EFFECTIVE_SAMPLE:
        raise SeriesTooShort(
            f"effective sample {n_eff} after differencing and {lags} lags; need >= {MIN_EFFECTIVE_SAMPLE}"
        )

    dx = np.diff(x, axis=-1)
    y = dx[..., lags:]

    # Zero innovation variance (e.g. an exact deterministic path) must fail
    # typed, not produce an unbounded t-ratio or a spurious rank error.
    probe = y
    if det.constant:
        probe = probe - _rowdot(probe, np.ones(n_eff))[..., None] / n_eff
    if det.trend:
        t_probe = np.arange(n_eff, dtype=float) - (n_eff - 1) / 2.0
        denom = float(t_probe @ t_probe)
        if denom > 0.0:
            probe = probe - (_rowdot(probe, t_probe) / denom)[..., None] * t_probe
    if _degenerate(x, probe).any():
        raise DegenerateInput()

    names = [LEVEL_COLUMN]
    columns = [x[..., lags:-1]]
    for i in range(1, lags + 1):
        names.append(f"diff_lag{i}")
        columns.append(dx[..., lags - i : m - 1 - i])
    if det.constant:
        names.append("intercept")
        columns.append(np.ones(n_eff))
    if det.trend:
        # Indexed by position in the input series; the intercept absorbs the offset.
        names.append("trend")
        columns.append(np.arange(lags + 1, m, dtype=float))
    design = np.stack(np.broadcast_arrays(*columns), axis=-1)

    sol = _lstsq(design, y, tuple(names))
    if _degenerate(x, sol.resid).any():
        raise DegenerateInput()
    return sol, n_eff


def adf_regression(values: np.ndarray, lags: int, det: DeterministicSpec) -> tuple[float, int, OlsFit]:
    """ADF statistic, effective sample size, and the underlying fit.

    Operates on a bare value array, such as a regression residual; this is
    the one-series case of the stacked regression the Monte Carlo runners use.
    """
    sol, n_eff = _adf(np.asarray(values, dtype=float).ravel(), lags, det)
    return float(sol.t_stats[0]), n_eff, _as_fit(sol)


def adf_critical_values(n_eff: int, det: DeterministicSpec) -> dict[int, float]:
    """One-variable critical values; below the table's minimum sample, at that minimum."""
    return critical_values_map(1, max(n_eff, MIN_N), det)


def adf_test(x: TimeSeries, lags: int, det: DeterministicSpec) -> UnitRootReport:
    """Augmented Dickey-Fuller test on a series.

    Parameters
    ----------
    x : TimeSeries
        Input series; needs at least ``lags`` + 11 observations so the
        effective sample is >= 10.
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
    stat, n_eff, _ = adf_regression(x.values, lags, det)
    cvs = adf_critical_values(n_eff, det)
    return UnitRootReport(
        statistic=stat,
        lags=int(lags),
        det=det,
        n_effective=n_eff,
        critical_values=cvs,
        reject_at={level: stat < cvs[level] for level in LEVELS},
    )
