"""Finite-sample critical values from the MacKinnon (2010) response surfaces.

:data:`SURFACES` is the table, as published: each cell gives coefficients
(b0, b1, b2, b3) of

    cv(n) = b0 + b1/n + b2/n^2 + b3/n^3

where ``b0`` is the asymptotic critical value and ``n`` the effective
sample size of the test regression. Surfaces are keyed by the deterministic
terms of the regression whose distribution is being tabulated and the
number of I(1) variables ``k``; each holds one row per test level in
``LEVELS``. The table holds the five surfaces cointkit reads: k = 1 (ADF)
with a constant, a constant and trend, or no terms, and k = 2
(Engle-Granger) with a constant or a constant and trend.

Reference: MacKinnon, J.G. (2010), "Critical Values for Cointegration
Tests", Queen's Economics Department Working Paper 1227. The
no-deterministics column retains his 1996 numbers, which were not
re-estimated in 2010 and exist only for k = 1.

:func:`adf_critical_values` and :func:`eg_critical_values` are the one
rule by which the tests and the Monte Carlo experiments read the table:
one or two variables, at the effective sample size or at the table's
minimum if that is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

from cointkit.errors import (
    UnsupportedCombination,
    UsageError,
    flag_setting,
    instance_setting,
    int_setting,
)

SOURCE_ID = "mackinnon-2010"
LEVELS = (1, 5, 10)

MIN_N = 20


@dataclass(frozen=True)
class DeterministicSpec:
    """Deterministic terms of a test regression: intercept and/or linear trend."""

    constant: bool
    trend: bool

    def __post_init__(self):
        object.__setattr__(self, "constant", flag_setting("constant", self.constant))
        object.__setattr__(self, "trend", flag_setting("trend", self.trend))
        if self.trend and not self.constant:
            raise UsageError("a trend term requires a constant term")

    @classmethod
    def none(cls) -> "DeterministicSpec":
        return cls(constant=False, trend=False)

    @classmethod
    def constant_only(cls) -> "DeterministicSpec":
        return cls(constant=True, trend=False)

    @classmethod
    def constant_trend(cls) -> "DeterministicSpec":
        return cls(constant=True, trend=True)

    @property
    def key(self) -> str:
        if self.trend:
            return "ct"
        return "c" if self.constant else "n"

    def label(self) -> str:
        return {"n": "none", "c": "constant", "ct": "constant+trend"}[self.key]

    @classmethod
    def from_label(cls, label: str) -> "DeterministicSpec":
        table = {
            "none": cls.none(),
            "constant": cls.constant_only(),
            "constant-trend": cls.constant_trend(),
            "constant+trend": cls.constant_trend(),
        }
        if label not in table:
            raise UsageError(f"unknown deterministic spec {label!r}")
        return table[label]


# (det key, k) -> (1% row, 5% row, 10% row), each row (b0, b1, b2, b3) as published.
SURFACES: dict[tuple[str, int], tuple[tuple[float, float, float, float], ...]] = {
    ("c", 1): ((-3.43035, -6.5393, -16.786, -79.433),
               (-2.86154, -2.8903, -4.234, -40.040),
               (-2.56677, -1.5384, -2.809, 0.0)),
    ("c", 2): ((-3.89644, -10.9519, -33.527, 0.0),
               (-3.33613, -6.1101, -6.823, 0.0),
               (-3.04445, -4.2412, -2.720, 0.0)),
    ("ct", 1): ((-3.95877, -9.0531, -28.428, -134.155),
                (-3.41049, -4.3904, -9.036, -45.374),
                (-3.12705, -2.5856, -3.925, -22.380)),
    ("ct", 2): ((-4.32762, -15.4387, -35.679, 0.0),
                (-3.78057, -9.5106, -12.074, 0.0),
                (-3.49631, -7.0815, -7.538, 21.892)),
    ("n", 1): ((-2.56574, -2.2358, -3.627, 0.0),
               (-1.94100, -0.2686, -3.365, 31.223),
               (-1.61682, 0.2656, -2.714, 25.364)),
}


def critical_value(k: int, n: int, level: int, det: DeterministicSpec) -> float:
    """Finite-sample critical value for ``k`` I(1) variables at sample size ``n``.

    The package's one reader of :data:`SURFACES`: ``b0 + b1/n + b2/n^2 +
    b3/n^3`` with the row of ``(det.key, k)`` at ``level``.

    Parameters
    ----------
    k : int
        Number of I(1) variables under the no-cointegration null; 1 for a
        plain unit-root test, 2 for a two-variable residual-based test.
        The table holds k = 1 with ``det`` constant, constant and trend, or
        none, and k = 2 with ``det`` constant or constant and trend.
    n : int
        Effective sample size of the test regression, at least 20.
    level : int
        Test level in percent: 1, 5, or 10.
    det : DeterministicSpec
        Deterministic terms of the regression the distribution refers to.

    Raises
    ------
    UnsupportedCombination
        For ``n`` below 20, or a ``(k, level, det)`` the table does not hold.
    UsageError
        For a ``k``, ``n`` or ``level`` that is not an integer, or a ``det``
        that is not a :class:`DeterministicSpec`.
    """
    k, n, level = int_setting("k", k), int_setting("n", n), int_setting("level", level)
    instance_setting("det", det, DeterministicSpec)
    if n < MIN_N:
        raise UnsupportedCombination(f"sample size must be >= {MIN_N}, got {n}")
    rows = SURFACES.get((det.key, k))
    if rows is None or level not in LEVELS:
        raise UnsupportedCombination(
            f"no tabulated surface for k={k}, level={level}%, deterministic={det.label()}"
        )
    b0, b1, b2, b3 = rows[LEVELS.index(level)]
    return b0 + b1 / n + b2 / n**2 + b3 / n**3


def critical_values_map(k: int, n: int, det: DeterministicSpec) -> dict[int, float]:
    """All three tabulated levels at once, keyed by percent level."""
    return {level: critical_value(k, n, level, det) for level in LEVELS}


def adf_critical_values(n_eff: int, det: DeterministicSpec) -> dict[int, float]:
    """One-variable critical values; below the table's minimum sample, at that minimum."""
    return critical_values_map(1, max(n_eff, MIN_N), det)


def eg_critical_values(n_eff: int, trend_in_stage_one: bool) -> dict[int, float]:
    """Two-variable critical values for the stage-one deterministic terms."""
    det = (
        DeterministicSpec.constant_trend()
        if trend_in_stage_one
        else DeterministicSpec.constant_only()
    )
    return critical_values_map(2, max(n_eff, MIN_N), det)
