"""Independent oracles used across the test suite.

The least-squares oracle solves the normal equations in exact rational
arithmetic (fractions over the binary float inputs), a deliberately
different route from the QR path in the package. The ADF oracle builds
its regression from raw arrays and solves it with that oracle.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cointkit.series import MONTHLY, TimeSeries


def exact_ols(y, X) -> tuple[list[float], list[float]]:
    """Normal-equations solve in exact rationals: (coefficients, stderrs).

    ``X`` is a list of rows. Standard errors are classical, computed from
    the exact residual sum of squares and the exact inverse of X'X.
    """
    n = len(y)
    k = len(X[0])
    Xf = [[Fraction(float(v)) for v in row] for row in X]
    yf = [Fraction(float(v)) for v in y]

    xtx = [[sum(Xf[i][a] * Xf[i][b] for i in range(n)) for b in range(k)] for a in range(k)]
    xty = [sum(Xf[i][a] * yf[i] for i in range(n)) for a in range(k)]

    # Invert X'X by exact Gauss-Jordan on [X'X | I | X'y].
    M = [xtx[a][:] + [Fraction(int(a == b)) for b in range(k)] + [xty[a]] for a in range(k)]
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(M[r][col]))
        if M[piv][col] == 0:
            raise ZeroDivisionError("singular normal equations")
        M[col], M[piv] = M[piv], M[col]
        pivot = M[col][col]
        M[col] = [v / pivot for v in M[col]]
        for r in range(k):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]

    beta = [M[a][2 * k] for a in range(k)]
    inv_diag = [M[a][k + a] for a in range(k)]

    rss = Fraction(0)
    for i in range(n):
        fitted = sum(Xf[i][a] * beta[a] for a in range(k))
        rss += (yf[i] - fitted) ** 2
    sigma2 = rss / (n - k)
    stderrs = [float(sigma2 * d) ** 0.5 for d in inv_diag]
    return [float(b) for b in beta], stderrs


def exact_adf(x, lags, det):
    """The ADF regression rebuilt from raw arrays and solved in exact rationals.

    Said & Dickey (1984): the difference of ``x`` on its lagged level,
    ``lags`` lagged differences and the deterministic terms. Returns the
    t-ratio on the lagged level and the number of observations.
    """
    dx = np.diff(x)
    rows = [
        [x[t - 1]]
        + [dx[t - 1 - i] for i in range(1, lags + 1)]
        + ([1.0] if det.constant else [])
        # Any start will do for the trend, since the intercept absorbs the offset.
        + ([float(t)] if det.trend else [])
        for t in range(lags + 1, x.size)
    ]
    beta, se = exact_ols(dx[lags:].tolist(), rows)
    return beta[0] / se[0], len(rows)


def monthly_series(values, start=(2000, 1), name="") -> TimeSeries:
    return TimeSeries(start=start, frequency=MONTHLY, values=np.asarray(values, float), name=name)


def random_walk_pair(rng, n, sd=1.0):
    """Two independent random walks as raw monthly series."""
    innov = rng.standard_normal((2, n)) * sd
    return (
        monthly_series(np.cumsum(innov[0]), name="rw_a"),
        monthly_series(np.cumsum(innov[1]), name="rw_b"),
    )
