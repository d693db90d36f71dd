"""Ordinary least squares via QR decomposition, with classical standard errors.

This is the numerical core under the unit-root, cointegration, and
error-correction estimators. Robust/HAC covariance is deliberately out of
scope; the tests built on top compare t-ratios against tabulations that
assume classical errors.

It also holds every stacked design that more than one layer runs, so the
Monte Carlo runners need no estimator module:

- :func:`_levels_regression`, y on x, optional trend and intercept: the
  long-run equation of ``ecm``, Engle-Granger stage one and the spurious
  regression experiment;
- :func:`_adf`, the augmented Dickey-Fuller regression, with its sample
  rule :func:`_adf_sample` (``MIN_EFFECTIVE_SAMPLE``) and degeneracy screen
  :func:`_degenerate`: ``unitroot``, the ADF size experiments and
  :func:`_eg_stage_two`;
- :func:`_difference`, the one differencing kernel, whose overflow raises a
  typed error and no numpy warning: both differencing transforms of
  ``series``, ``_adf`` and the eg-differences size block;
- :func:`_eg_stage_two`, the Engle-Granger stage two on the residuals of
  a levels regression: ``cointegration``, the companion check of the CLI's
  ``ecm``, the Engle-Granger size experiments and the ECT unit-root
  experiment. It applies no lag bound: :func:`_eg_lags`, the lag rule
  of every test read against the Engle-Granger critical values (0 to
  ``MAX_LAGS``, 24), checks the setting where it is given.

One kernel, :func:`_lstsq`, solves either one ``(n, k)`` design or a
stack ``(..., n, k)`` of them; :func:`ols_fit` is its one-design case
and the Monte Carlo runners pass it blocks of replications. A slice's
results are bitwise identical whatever stack it sits in, so statistics
do not depend on the block size or on how replications are split across
workers. That holds because every inner product and sum in the kernel is
a ``matmul`` (``@``), which makes one BLAS call per slice, and the
factorizations are stacked ``np.linalg.qr``/``solve``/``inv``, which
make one LAPACK call per slice: a stacked call makes exactly the calls
the unstacked one makes. ``einsum`` is not used: it sums in an order of
its own, which differs from BLAS in the last bits and is not documented
to be the same for every stack layout. ``np.vecdot`` and ``np.matvec``
would do, but need numpy 2, and the supported floor is numpy 1.24.

``matmul`` takes a different loop for a slice that is not C-contiguous
(a transposed design, or columns gathered with fancy indexing), and that
loop rounds differently. So the kernel copies the design and the
dependent variable to C order first, and a solution depends on the
values it is given, never on their memory layout.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from cointkit.errors import (
    DataError,
    DegenerateInput,
    DimensionMismatch,
    NumericalError,
    RankDeficient,
    SeriesTooShort,
    UsageError,
    check_finite,
    float_data,
    instance_setting,
    int_setting,
)

_EPS = np.finfo(float).eps

MIN_EFFECTIVE_SAMPLE = 10
MAX_LAGS = 24
# The lag rule of the Engle-Granger test and of every test read against its critical values.
_eg_lags = partial(int_setting, "lags", lo=0, hi=MAX_LAGS)
# The lag rule of the ADF test: any count the sample rule allows.
_adf_lags = partial(int_setting, "lags", lo=0)


@dataclass(frozen=True)
class DesignMatrix:
    """Named regressor columns stacked into an (n, k) array with n > k."""

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        data = float_data("design matrix", self.data)
        if data.ndim != 2:
            raise DataError("design matrix must be two-dimensional")
        n, k = data.shape
        names = tuple(instance_setting("names", self.names, Iterable))
        if len(names) != k:
            raise DimensionMismatch(f"{len(names)} names for {k} columns")
        if len(set(names)) != k:
            raise DataError("column names must be unique")
        _check_design(data)
        data.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_columns(cls, columns: Iterable[tuple[str, Sequence[float]]]) -> "DesignMatrix":
        pairs = list(instance_setting("columns", columns, Iterable))
        if not pairs:
            raise DataError("design matrix needs at least one column")
        names, arrays = [], []
        for i, pair in enumerate(pairs):
            try:
                name, vals = pair
            except (TypeError, ValueError):
                raise UsageError(f"columns[{i}] must be a (name, values) pair, got {pair!r}") from None
            names.append(name)
            arrays.append(float_data(f"column {name!r}", vals).ravel())
        lengths = {a.size for a in arrays}
        if len(lengths) != 1:
            raise DimensionMismatch(f"column lengths differ: {sorted(lengths)}")
        return cls(names=tuple(names), data=np.column_stack(arrays))

    @property
    def nobs(self) -> int:
        return int(self.data.shape[0])

    @property
    def ncols(self) -> int:
        return int(self.data.shape[1])


@dataclass(frozen=True)
class OlsFit:
    """Coefficients, residuals, and classical inference from one OLS fit.

    ``coefficients``, ``stderrs``, and ``t_stats`` are dicts keyed by column
    name in design order. A perfect fit yields zero standard errors and
    infinite t-statistics rather than an error; callers that cannot accept
    that (the unit-root tests) screen for degeneracy themselves.
    """

    coefficients: dict[str, float]
    residuals: np.ndarray
    stderrs: dict[str, float]
    t_stats: dict[str, float]
    r_squared: float
    dof: int
    nobs: int

    def __post_init__(self):
        resid = np.asarray(self.residuals, dtype=float)
        resid.setflags(write=False)
        object.__setattr__(self, "residuals", resid)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.coefficients)

    def to_json_dict(self) -> dict:
        return {
            "coefficients": dict(self.coefficients),
            "stderrs": dict(self.stderrs),
            "t_stats": dict(self.t_stats),
            "r_squared": self.r_squared,
            "dof": self.dof,
            "nobs": self.nobs,
        }


class _Solution(NamedTuple):
    """What :func:`_lstsq` computed for a design stack; arrays keep its leading dims."""

    names: tuple[str, ...]
    design: np.ndarray  # (..., n, k)
    y: np.ndarray  # (..., n)
    beta: np.ndarray  # (..., k)
    resid: np.ndarray  # (..., n)
    stderrs: np.ndarray  # (..., k)
    t_stats: np.ndarray  # (..., k)
    rss: np.ndarray  # (...)

    def row(self, i: int) -> "_Solution":
        """Slice ``i`` of a one-level stack, as the solution of one 2-D design."""
        return _Solution(self.names, *(field[i] for field in self[1:]))


def _check_design(A: np.ndarray) -> None:
    """The design rule, on one ``(n, k)`` design or a stack: n > k, and finite entries."""
    n, k = A.shape[-2:]
    if n <= k:
        raise DataError(f"need more observations ({n}) than columns ({k})")
    if not np.isfinite(A).all():
        raise DataError("design matrix contains non-finite entries")


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one BLAS dot per row of the stack."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _lstsq(A: np.ndarray, y: np.ndarray, names: tuple[str, ...]) -> _Solution:
    """Least squares of ``y[..., :]`` on ``A[..., :, :]``, one design or a stack of them.

    The checks below are those of :class:`DesignMatrix` and :func:`ols_fit`,
    in their order, then a :class:`NumericalError` when the design's squared
    column norms or the residual sum of squares overflow, when the design is
    so small that the squares of the inverse R factor overflow (values below
    about 1e-150), or when the squares of the standard errors do. On a stack
    they raise for the first slice that fails, so a caller that needs the
    error of a given slice reruns it alone.
    """
    A = np.ascontiguousarray(A)
    y = np.ascontiguousarray(y)
    _check_design(A)
    n, k = A.shape[-2:]
    if not np.isfinite(y).all():
        raise DataError("dependent variable contains non-finite entries")

    # Finite data may overflow, or make inf - inf, up to the standard errors: each
    # case raises a NumericalError, and numpy warns of nothing. solve and inv raise
    # LinAlgError only for a zero pivot, which the rank screen rules out.
    with np.errstate(over="ignore", invalid="ignore"):
        # Each |R_ii| is judged against its own column's norm (LINPACK dqrdc2's
        # rule), so one column's units cannot make another look dependent. Squares
        # of values above about 1.3e154 overflow; an infinite tolerance would call
        # every column dependent.
        col_sq = np.ones(n) @ (A * A)
        tol = n * _EPS * np.sqrt(col_sq)
        if not np.isfinite(tol).all():
            raise NumericalError("design overflows: squared column norms exceed the float range")

        Q, R = np.linalg.qr(A)
        weak = np.abs(np.diagonal(R, axis1=-2, axis2=-1)) <= tol
        if weak.any():
            raise RankDeficient(names[int(np.argwhere(weak)[0, -1])])

        beta = np.linalg.solve(R, Q.swapaxes(-1, -2) @ y[..., None])
        resid = y - (A @ beta)[..., 0]
        beta = beta[..., 0]
        r_inv = np.linalg.inv(R)
        rss = _rowdot(resid, resid)
        xtx_inv_diag = (r_inv * r_inv) @ np.ones(k)
        se = np.sqrt(rss[..., None] / (n - k) * xtx_inv_diag)
    if not np.isfinite(rss).all():
        raise NumericalError("residuals overflow: their sum of squares exceeds the float range")
    if not np.isfinite(xtx_inv_diag).all():
        raise NumericalError("design underflows: squares of the inverse R factor exceed the float range")
    if not np.isfinite(se).all():
        raise NumericalError("standard errors overflow: their squares exceed the float range")

    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = np.where(se > 0.0, beta / se, np.sign(beta) * np.inf)
    tstats = np.where((se == 0.0) & (beta == 0.0), np.nan, tstats)
    return _Solution(names, A, y, beta, resid, se, tstats, rss)


def _as_fit(sol: _Solution) -> OlsFit:
    """The :class:`OlsFit` of an unstacked solution (a 2-D design)."""
    A = sol.design
    n, k = A.shape
    # TSS and RSS are taken on y scaled by a power of two into [-1, 1], which
    # is exact, so R^2 is that of y itself and no square of y can overflow.
    e = math.frexp(float(np.abs(sol.y).max()))[1]
    y = np.ldexp(sol.y, -e)
    rss = math.ldexp(float(sol.rss), -2 * e)
    # A constant non-zero column; a column sum of |A - A[0]| is zero only if every term is.
    constant = (np.ones(n) @ np.abs(A - A[0])) == 0.0
    has_intercept = bool((constant & (A[0] != 0.0)).any())
    tss = float(((y - y.mean()) ** 2).sum()) if has_intercept else float((y**2).sum())
    # TSS and RSS are in squared y units, so "negligible" is judged on the
    # scale of y, whatever the scale of the regressors.
    y_tol = n * _EPS * float(np.abs(y).max())
    if tss <= y_tol * y_tol:
        r2 = 1.0 if rss <= y_tol * y_tol else 0.0
    else:
        r2 = 1.0 - rss / tss
    r2 = float(min(1.0, max(0.0, r2)))

    names = sol.names
    return OlsFit(
        coefficients=dict(zip(names, sol.beta.tolist())),
        residuals=sol.resid,
        stderrs=dict(zip(names, sol.stderrs.tolist())),
        t_stats=dict(zip(names, sol.t_stats.tolist())),
        r_squared=r2,
        dof=n - k,
        nobs=n,
    )


def ols_fit(y: Sequence[float], X: DesignMatrix) -> OlsFit:
    """Least squares of ``y`` on the columns of ``X``.

    Solved through a QR decomposition rather than the normal equations.
    Column i is called dependent when ``|R_ii| <= n * eps * ||X_i||``, the
    norm of its own column, so the rank screen does not depend on the units
    of the data; a dependent column is reported by name. This is the
    one-design case of the stacked kernel that the Monte Carlo runners use.

    Raises
    ------
    DimensionMismatch
        If ``y`` and ``X`` disagree on the number of observations.
    RankDeficient
        Naming the first column that is numerically dependent on its
        predecessors.
    NumericalError
        If a squared column norm, the residual sum of squares, a square of the
        inverse R factor or a squared standard error overflows.
    """
    instance_setting("X", X, DesignMatrix)
    yv = float_data("y", y).ravel()
    if yv.size != X.nobs:
        raise DimensionMismatch(f"y has {yv.size} observations, design has {X.nobs}")
    return _as_fit(_lstsq(X.data, yv, X.names))


def _levels_regression(y: np.ndarray, x: np.ndarray, include_trend: bool) -> _Solution:
    """The levels regression of each row of ``y`` on the same row of ``x``, (..., n) stacks.

    The design is x, the optional trend 1..n, and the intercept, in that order.
    """
    n = y.shape[-1]
    if n < MIN_EFFECTIVE_SAMPLE:
        message = f"levels regression needs >= {MIN_EFFECTIVE_SAMPLE} overlapping observations, have {n}"
        raise SeriesTooShort(message)
    names = ("x", "trend", "intercept") if include_trend else ("x", "intercept")
    design = np.empty(x.shape + (len(names),))
    design[..., 0] = x
    if include_trend:
        design[..., 1] = np.arange(1, n + 1, dtype=float)
    design[..., -1] = 1.0
    return _lstsq(design, y, names)


def _degenerate(scale: np.ndarray, dx_resid: np.ndarray) -> np.ndarray:
    """Per row of a stack: is the largest |residual| negligible against the row's ``scale``?

    ``scale`` is the largest |level| of the data, so the screen has no units.
    """
    return np.abs(dx_resid).max(axis=-1, initial=0.0) <= 1e-12 * scale


def _difference(x: np.ndarray, span: int = 1, order: int = 1) -> np.ndarray:
    """``order`` passes of x_t - x_{t-span} along the last axis; numpy's ``diff`` at span 1.

    ``span * order`` or fewer observations raise ``SeriesTooShort``. A
    difference of finite values may overflow: the result's first non-finite
    value raises the ``DataError`` of ``TimeSeries``, and numpy warns of
    nothing. A non-finite value in ``x`` itself is named first.
    """
    n = x.shape[-1]
    if n <= span * order:
        raise SeriesTooShort(f"need more than {span * order} observations, have {n}")
    dx = x
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(order):
            dx = dx[..., span:] - dx[..., :-span]
    if not np.isfinite(dx).all():
        check_finite(x, dx)
    return dx


def _adf_sample(m: int, lags: int) -> int:
    """The ADF sample rule: what ``m`` observations leave after differencing and ``lags`` lags."""
    lags = _adf_lags(lags)
    n_eff = m - 1 - lags
    if n_eff < MIN_EFFECTIVE_SAMPLE:
        raise SeriesTooShort(
            f"effective sample {n_eff} after differencing and {lags} lags; need >= {MIN_EFFECTIVE_SAMPLE}"
        )
    return n_eff


def _adf(
    x: np.ndarray, lags: int, constant: bool, trend: bool, scale: np.ndarray | None = None
) -> tuple[_Solution, int]:
    """The ADF regression of each row of ``x`` (..., m), and the effective sample size.

    ``constant`` and ``trend`` are the deterministic terms, a
    ``DeterministicSpec``'s fields. The statistic is ``t_stats[..., 0]``,
    the t-ratio on the lagged level. :func:`_adf_sample` checks the sample
    first, and runners call it once at configuration. On a stack every
    check covers every row; the first failure raises.

    A row is ``DegenerateInput`` when its residuals are negligible against
    its ``scale``, one value per row, by default its own largest |value|. When ``x``
    is a residual series, the caller passes the scale of the levels it
    came from: the residuals of an exact fit are rounding noise, which is
    never negligible against itself.
    """
    m = x.shape[-1]
    n_eff = _adf_sample(m, lags)
    if scale is None:
        scale = np.abs(x).max(axis=-1)

    dx = _difference(x)
    y = dx[..., lags:]

    # Zero innovation variance (e.g. an exact deterministic path) must fail
    # typed, not produce an unbounded t-ratio or a spurious rank error. A sum
    # of finite differences may overflow; the probe is then not negligible,
    # and _lstsq reports the overflow.
    probe = y
    with np.errstate(over="ignore", invalid="ignore"):
        if constant:
            probe = probe - _rowdot(probe, np.ones(n_eff))[..., None] / n_eff
        if trend:
            t_probe = np.arange(n_eff, dtype=float) - (n_eff - 1) / 2.0
            denom = float(t_probe @ t_probe)
            if denom > 0.0:
                probe = probe - (_rowdot(probe, t_probe) / denom)[..., None] * t_probe
    if _degenerate(scale, probe).any():
        raise DegenerateInput()

    names = ("level_lag1", *(f"diff_lag{i}" for i in range(1, lags + 1)))
    names += ("intercept",) if constant else ()
    names += ("trend",) if trend else ()
    design = np.empty(x.shape[:-1] + (n_eff, len(names)))
    design[..., 0] = x[..., lags:-1]
    for i in range(1, lags + 1):
        design[..., i] = dx[..., lags - i : m - 1 - i]
    if constant:
        design[..., lags + 1] = 1.0
    if trend:
        # Indexed by position in the input series; the intercept absorbs the offset.
        design[..., -1] = np.arange(lags + 1, m, dtype=float)

    sol = _lstsq(design, y, names)
    if _degenerate(scale, sol.resid).any():
        raise DegenerateInput()
    return sol, n_eff


def _eg_stage_two(resid: np.ndarray, dep: np.ndarray, lags: int) -> tuple[_Solution, int]:
    """The no-deterministics ADF with ``lags`` lags on (..., n) stage-one residuals.

    Degeneracy is judged on the scale of ``dep``, the levels the residuals
    came from: the residuals of an exact fit are rounding noise.
    """
    return _adf(resid, lags, False, False, np.abs(dep).max(axis=-1))


def median(values: Sequence[float]) -> float:
    """``float(np.median(values))``, bitwise, for a non-empty 1-D sequence.

    It makes numpy's own ``np.partition`` call (the middle index or
    indices, then -1) and takes ``np.mean`` of the middle slice, but reads
    a NaN from the last partitioned value itself: on numpy 2, ``np.median``'s
    NaN check imports ``numpy.ma`` on its first call, a cost paid by every
    fresh CLI process.
    """
    a = np.asarray(values, dtype=float)
    half, odd = divmod(a.size, 2)
    part = np.partition(a, ([half] if odd else [half - 1, half]) + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[half - 1 + odd : half + 1]))
