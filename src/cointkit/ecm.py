"""Levels regression and error-correction (ARDL) estimation.

Two linked equations: a long-run levels regression of y on x, and a
short-run ARDL in span-``gap`` differences whose regressors are the
contemporaneous difference of x, lagged differences of both variables,
and the lagged levels residual (the error-correction term). The exact
regressor list of the second stage is recorded in ``control_manifest``
so that what-was-estimated can always be audited against
what-was-declared.

The error-correction term is only well defined when the levels pair is
actually cointegrated; estimation does not refuse to run without that
evidence (the failure mode is worth demonstrating), but the CLI prints a
caveat when a companion cointegration test cannot reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from cointkit.errors import (
    SeriesTooShort,
    UnsupportedCombination,
    UsageError,
    flag_setting,
    instance_setting,
    int_setting,
)
from cointkit.formats import JsonRecord, fmt12s
from cointkit.regression import MIN_EFFECTIVE_SAMPLE, OlsFit, _as_fit, _levels_regression, _lstsq, _Solution
from cointkit.series import TimeSeries, align


@dataclass(frozen=True)
class EcmSpec(JsonRecord):
    """Configuration of the error-correction / ARDL stage.

    ``seasonal_gap`` is the differencing span of the short-run equation:
    the series frequency (12 monthly, 4 quarterly) for a year-over-year
    ARDL, or 1 for a conventional one-period ECM. The error-correction
    term enters lagged by ``ect_lag`` periods; lagged differences of both
    variables enter up to ``ardl_control_lags``.
    """

    seasonal_gap: int
    ect_lag: int = 1
    ardl_control_lags: int = 1
    include_trend: bool = False

    def __post_init__(self):
        for name in ("seasonal_gap", "ect_lag", "ardl_control_lags"):
            object.__setattr__(self, name, int_setting(name, getattr(self, name), 1))
        object.__setattr__(self, "include_trend", flag_setting("include_trend", self.include_trend))


@dataclass(frozen=True)
class EcmFit:
    """Both stages of the error-correction estimation, fully itemized."""

    spec: EcmSpec
    levels_fit: OlsFit
    ect_series: TimeSeries
    ardl_fit: OlsFit
    ect_coefficient: float
    ect_t_stat: float
    control_manifest: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "type": "ecm_fit",
            "spec": self.spec.to_json_dict(),
            "levels_fit": self.levels_fit.to_json_dict(),
            "ardl_fit": self.ardl_fit.to_json_dict(),
            "ect_coefficient": self.ect_coefficient,
            "ect_t_stat": self.ect_t_stat,
            "control_manifest": list(self.control_manifest),
            "ect_series": {
                "start": self.ect_series.start_label,
                "length": len(self.ect_series),
            },
        }

    def to_csv_rows(self) -> list[list[str]]:
        """A header, then one row per term of the levels and then the ARDL equation."""
        rows = [["equation", "term", "coefficient", "stderr", "t_stat"]]
        for equation, fit in (("levels", self.levels_fit), ("ardl", self.ardl_fit)):
            for term in fit.column_names:
                numbers = (fit.coefficients[term], fit.stderrs[term], fit.t_stats[term])
                rows.append([equation, term, *map(fmt12s, numbers)])
        return rows


@dataclass(frozen=True)
class AuditReport:
    """Mismatch between a fit's actual regressors and a declared list."""

    present_but_undeclared: tuple[str, ...]
    declared_but_absent: tuple[str, ...]

    @property
    def is_clean(self) -> bool:
        return not self.present_but_undeclared and not self.declared_but_absent

    def to_json_dict(self) -> dict:
        return {
            "present_but_undeclared": list(self.present_but_undeclared),
            "declared_but_absent": list(self.declared_but_absent),
            "is_clean": self.is_clean,
        }


def estimate_levels(y: TimeSeries, x: TimeSeries, include_trend: bool = False) -> OlsFit:
    """Long-run levels regression of y on x (plus intercept, optional trend).

    With log inputs the slope is the long-run elasticity estimate. The
    control set contains nothing else by construction.
    """
    instance_setting("y", y, TimeSeries)
    instance_setting("x", x, TimeSeries)
    include_trend = flag_setting("include_trend", include_trend)
    y_al, x_al = align(y, x)
    return _as_fit(_levels_regression(y_al.values, x_al.values, include_trend))


def manifest_for(spec: EcmSpec, extra_names: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Regressor names of the ARDL stage, in design order."""
    gap = spec.seasonal_gap
    names = [f"s{gap}_x"]
    for j in range(1, spec.ardl_control_lags + 1):
        names.append(f"s{gap}_y_l{j}")
        names.append(f"s{gap}_x_l{j}")
    names.append(f"ect_l{spec.ect_lag}")
    names.extend(extra_names)
    if spec.include_trend:
        names.append("trend")
    names.append("intercept")
    return tuple(names)


def _ardl_rows(n: int, spec: EcmSpec, frequency: int) -> np.ndarray:
    """The ARDL sample rule: the positions, in a pair of ``n`` aligned levels,
    that the ARDL stage regresses, which must number >= ``MIN_EFFECTIVE_SAMPLE``.

    The differencing span must be the series frequency or one period.
    """
    gap = spec.seasonal_gap
    if gap != 1 and gap != frequency:
        raise UnsupportedCombination(
            f"seasonal_gap {gap} matches neither the series frequency ({frequency}) "
            "nor the conventional one-period form (1)"
        )
    rows = np.arange(max(gap + spec.ardl_control_lags, spec.ect_lag), n)
    if rows.size < MIN_EFFECTIVE_SAMPLE:
        raise SeriesTooShort(
            f"ARDL stage has {rows.size} effective observations after trimming; need >= {MIN_EFFECTIVE_SAMPLE}"
        )
    return rows


def _ecm_regressions(
    y: np.ndarray,
    x: np.ndarray,
    spec: EcmSpec,
    frequency: int,
    extras: Sequence[tuple[str, np.ndarray]] = (),
) -> tuple[_Solution, _Solution]:
    """Both error-correction stages on each row of (..., n) stacks of aligned levels.

    The sample is checked by :func:`_ardl_rows` before the levels regression,
    so a runner can check its setting once, before any replication. Returns
    the levels solution, whose residuals are the error-correction term, and
    the ARDL solution. ``extras`` are more named regressors, each given on
    the ``_ardl_rows`` positions, placed after the error-correction term.
    """
    n = y.shape[-1]
    gap = spec.seasonal_gap
    rows = _ardl_rows(n, spec, frequency)
    t0 = int(rows[0])
    levels = _levels_regression(y, x, spec.include_trend)

    sy = y[..., gap:] - y[..., :-gap]
    sx = x[..., gap:] - x[..., :-gap]

    def back(values: np.ndarray, offset: int) -> np.ndarray:
        # values[..., rows - offset], as a slice. sy[..., i] holds the span-gap
        # change ending at period i + gap, so its lag j sits at offset j + gap.
        return values[..., t0 - offset : n - offset]

    columns = [back(sx, gap)]  # in the order of manifest_for
    for j in range(1, spec.ardl_control_lags + 1):
        columns += [back(sy, j + gap), back(sx, j + gap)]
    columns.append(back(levels.resid, spec.ect_lag))
    columns += [column for _, column in extras]
    if spec.include_trend:
        columns.append((rows + 1).astype(float))
    columns.append(np.ones(rows.size))
    names = manifest_for(spec, tuple(name for name, _ in extras))
    design = np.empty(levels.resid.shape[:-1] + (rows.size, len(names)))
    for i, column in enumerate(columns):
        design[..., i] = column
    return levels, _lstsq(design, back(sy, gap), names)


def estimate_ecm(
    y: TimeSeries,
    x: TimeSeries,
    spec: EcmSpec,
    extra_controls: Mapping[str, TimeSeries] | None = None,
) -> EcmFit:
    """Two-stage error-correction estimation.

    Stage one is :func:`estimate_levels` on the aligned pair; its residuals,
    lagged by ``spec.ect_lag``, form the error-correction term. Stage two
    regresses the span-``gap`` difference of y on the span-``gap`` difference
    of x, lagged differences of both up to ``spec.ardl_control_lags``, the
    error-correction term, any caller-supplied extra controls, and the
    deterministic terms. Every regressor actually included is listed in the
    returned ``control_manifest``. This is the one-pair case of the stacked
    estimation the Monte Carlo runners use.

    ``extra_controls`` maps column names to series of the same frequency
    covering the regression sample. The differencing span, the ARDL sample
    size and the extra controls are checked before either regression runs.
    """
    instance_setting("spec", spec, EcmSpec)
    instance_setting("y", y, TimeSeries)
    instance_setting("x", x, TimeSeries)
    if extra_controls is not None:
        instance_setting("extra_controls", extra_controls, Mapping)
    controls = dict(extra_controls or {})
    y_al, x_al = align(y, x)
    rows = _ardl_rows(len(y_al), spec, y_al.frequency)
    builtin = set(manifest_for(spec))
    for name in controls:
        instance_setting("extra control name", name, str)
        if name in builtin:
            raise UsageError(f"extra control name {name!r} collides with a built-in regressor")
    extras = []
    for name, series in controls.items():
        instance_setting(f"extra_controls[{name!r}]", series, TimeSeries)
        if series.frequency != y_al.frequency:
            raise UnsupportedCombination(
                f"extra control {name!r} has frequency {series.frequency}, need {y_al.frequency}"
            )
        offsets = y_al.start_index + rows - series.start_index
        if offsets.min() < 0 or offsets.max() >= len(series):
            raise SeriesTooShort(f"extra control {name!r} does not cover the regression sample")
        extras.append((name, series.values[offsets]))

    levels, ardl = _ecm_regressions(y_al.values, x_al.values, spec, y_al.frequency, extras)
    ect_series = TimeSeries(
        start=y_al.shifted_start(spec.ect_lag),
        frequency=y_al.frequency,
        values=levels.resid[: len(y_al) - spec.ect_lag],
        lineage=(),
        name="ect",
    )
    ardl_fit = _as_fit(ardl)
    ect_name = f"ect_l{spec.ect_lag}"
    return EcmFit(
        spec=spec,
        levels_fit=_as_fit(levels),
        ect_series=ect_series,
        ardl_fit=ardl_fit,
        ect_coefficient=ardl_fit.coefficients[ect_name],
        ect_t_stat=ardl_fit.t_stats[ect_name],
        control_manifest=ardl_fit.column_names,
    )


def audit_controls(fit, declared: list[str]) -> AuditReport:
    """Compare a fit's actual regressors against a declared control list.

    Accepts an :class:`EcmFit`, an :class:`OlsFit`, or any iterable of
    column names. The report is empty exactly when the two sets match;
    ordering never matters.
    """
    if isinstance(fit, EcmFit):
        actual = list(fit.control_manifest)
    elif isinstance(fit, OlsFit):
        actual = list(fit.column_names)
    else:
        actual = [str(name) for name in instance_setting("fit", fit, Iterable)]
    declared_list = [str(name) for name in instance_setting("declared", declared, Iterable)]
    declared_set = set(declared_list)
    actual_set = set(actual)
    return AuditReport(
        present_but_undeclared=tuple(n for n in actual if n not in declared_set),
        declared_but_absent=tuple(n for n in declared_list if n not in actual_set),
    )
