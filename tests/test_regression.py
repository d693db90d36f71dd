import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cointkit.ecm as ecm
import cointkit.regression as regression
from cointkit.cointegration import NORMALIZE_FIRST, UNTRANSFORMED, EgSpec, engle_granger_test
from cointkit.ecm import EcmSpec, _ardl_rows, _ecm_regressions
from cointkit.errors import CointkitError, DataError, DimensionMismatch, NumericalError, RankDeficient
from cointkit.regression import MAX_LAGS, DesignMatrix, _adf, _levels_regression, _lstsq, median, ols_fit
from cointkit.series import MONTHLY, TimeSeries
from helpers import exact_ols, overflow_pair


def design(**columns):
    return DesignMatrix.from_columns(list(columns.items()))


class TestExamples:
    def test_exact_proportional_fit(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = ols_fit(2.0 * x, design(x=x))
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(fit.residuals, 0.0, atol=1e-13)
        assert fit.r_squared == 1.0

    def test_closed_form_two_column_fit(self):
        # Normal equations by hand: slope 1/2, intercept 2/3.
        fit = ols_fit(
            [1.0, 2.0, 2.0],
            design(intercept=np.ones(3), x=np.array([1.0, 2.0, 3.0])),
        )
        assert fit.coefficients["x"] == pytest.approx(0.5, abs=1e-12)
        assert fit.coefficients["intercept"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_duplicated_column_is_rank_deficient(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(RankDeficient) as exc:
            ols_fit(x, design(x=x, x_copy=x))
        assert exc.value.column == "x_copy"

    def test_nonfinite_dependent_variable(self):
        with pytest.raises(DataError, match="^dependent variable contains non-finite entries$"):
            ols_fit([1.0, math.nan, 3.0, 4.0], design(c=np.ones(4)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ols_fit([1.0, 2.0], design(x=np.arange(3.0)))

    def test_design_too_small_for_its_inverse_is_a_numerical_error(self):
        # The squares of 1 / R_ii overflow: no infinite standard error, no warning.
        x = np.array([1.0, 2.0, 4.0, 3.0]) * 1e-160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^design underflows: "):
                ols_fit([1.0, 0.0, 2.0, 1.0], design(x=x))


class TestDesignMatrix:
    def test_unique_names_required(self):
        with pytest.raises(DataError):
            DesignMatrix(("a", "a"), np.ones((3, 2)))

    def test_more_rows_than_columns_required(self):
        with pytest.raises(DataError):
            DesignMatrix(("a", "b"), np.ones((2, 2)))

    def test_rejects_nonfinite(self):
        data = np.ones((4, 1))
        data[2, 0] = np.inf
        with pytest.raises(DataError):
            DesignMatrix(("a",), data)

    def test_mismatched_column_lengths(self):
        with pytest.raises(DimensionMismatch):
            DesignMatrix.from_columns([("a", np.ones(3)), ("b", np.ones(4))])


class TestProperties:
    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        X = design(
            intercept=np.ones(40),
            x1=rng.standard_normal(40),
            x2=rng.standard_normal(40),
        )
        y = rng.standard_normal(40)
        base = ols_fit(y, X)
        for c in (3.0, -0.25, 1e6):
            scaled = ols_fit(c * y, X)
            for name in X.names:
                assert scaled.coefficients[name] == pytest.approx(
                    c * base.coefficients[name], rel=1e-10
                )
                assert scaled.stderrs[name] == pytest.approx(
                    abs(c) * base.stderrs[name], rel=1e-10
                )
                assert scaled.t_stats[name] == pytest.approx(
                    np.sign(c) * base.t_stats[name], rel=1e-10
                )

    def test_regressing_y_on_itself(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(60) + 4.0
        fit = ols_fit(y, design(y=y, intercept=np.ones(60)))
        assert fit.coefficients["y"] == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients["intercept"] == pytest.approx(0.0, abs=1e-10)

    def test_randomized_identities(self):
        # Orthogonality, the t = coef/stderr identity, and dof bookkeeping
        # across 1000 random small designs.
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(5, 30))
            k = int(rng.integers(1, min(4, n - 1) + 1))
            data = rng.standard_normal((n, k)) * rng.uniform(0.5, 20.0)
            X = DesignMatrix(tuple(f"c{j}" for j in range(k)), data)
            y = rng.standard_normal(n) * rng.uniform(0.5, 20.0)
            fit = ols_fit(y, X)

            dots = X.data.T @ fit.residuals
            scale = np.linalg.norm(X.data, axis=0) * np.linalg.norm(fit.residuals) + 1e-30
            assert np.all(np.abs(dots) <= 1e-8 * scale)

            for name in X.names:
                se = fit.stderrs[name]
                if se > 0:
                    assert fit.t_stats[name] == pytest.approx(
                        fit.coefficients[name] / se, rel=1e-12
                    )
            assert fit.dof == n - k > 0
            assert 0.0 <= fit.r_squared <= 1.0

    def test_agreement_with_exact_rational_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            if k >= n:
                k = n - 1
            data = rng.standard_normal((n, k))
            data[:, 0] = 1.0  # intercept column keeps designs well scaled
            y = rng.standard_normal(n)
            X = DesignMatrix(tuple(f"c{j}" for j in range(k)), data)
            fit = ols_fit(y, X)
            beta, se = exact_ols(y, data.tolist())
            got = [fit.coefficients[f"c{j}"] for j in range(k)]
            got_se = [fit.stderrs[f"c{j}"] for j in range(k)]
            assert np.allclose(got, beta, rtol=1e-9, atol=1e-9)
            assert np.allclose(got_se, se, rtol=1e-7, atol=1e-9)

    def test_uncentered_r_squared_without_intercept(self):
        x = np.array([1.0, 2.0, 3.0])
        fit = ols_fit(x, design(x=x))
        assert fit.r_squared == 1.0


def _scale_pair():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    return x, 0.5 * x + rng.standard_normal(200)


class TestRSquaredScale:
    def test_tiny_y_against_large_x(self):
        # TSS (y units) was once compared with a tolerance built from the
        # x column norms, which called this fit perfect.
        x, y = _scale_pair()
        base = ols_fit(y, design(x=x, intercept=np.ones(200)))
        fit = ols_fit(1e-9 * y, design(x=1e6 * x, intercept=np.ones(200)))
        assert base.r_squared == pytest.approx(0.23636148355804, rel=1e-12)
        assert fit.r_squared == pytest.approx(base.r_squared, rel=1e-12)
        assert fit.t_stats["x"] == pytest.approx(base.t_stats["x"], rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(a=st.integers(-12, 12), b=st.integers(-12, 12), intercept=st.booleans())
    def test_invariant_to_scaling_y_and_x(self, a, b, intercept):
        x, y = _scale_pair()
        columns = dict(x=x, intercept=np.ones(200)) if intercept else dict(x=x)
        base = ols_fit(y, design(**columns))
        columns["x"] = 10.0**b * x
        fit = ols_fit(10.0**a * y, design(**columns))
        assert fit.r_squared == pytest.approx(base.r_squared, rel=1e-12)


class TestOverflow:
    """Finite data whose fit overflows raises a NumericalError, and numpy warns of nothing."""

    def test_overflowing_projection_of_y(self):
        # Q'y overflows; the solve takes it as numbers and the residuals are not finite.
        x, y = overflow_pair()
        a, b = TimeSeries((2010, 1), 12, y), TimeSeries((2010, 1), 12, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (
                lambda: ols_fit(y, design(x=x, intercept=np.ones(40))),
                lambda: ecm.estimate_levels(a, b),
                lambda: engle_granger_test(a, b, EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, 0, False)),
            ):
                with pytest.raises(NumericalError, match="^residuals overflow: "):
                    fit()

    def test_huge_y_on_a_tiny_design(self):
        # A @ beta makes inf - inf.
        rng = np.random.default_rng(0)
        y = 1e200 * rng.standard_normal(40)
        X = design(a=1e-120 * rng.standard_normal(40), b=np.full(40, 1e-120))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^residuals overflow: "):
                ols_fit(y, X)

    @settings(max_examples=300, deadline=None)
    @given(e=st.integers(-1100, 1100), f=st.integers(-1100, 1100), trend=st.booleans())
    @example(e=1022, f=0, trend=False)  # Q'y overflows
    @example(e=0, f=-1076, trend=False)  # A @ beta makes inf - inf
    @example(e=150, f=-515, trend=False)  # the squares of the standard errors overflow
    def test_any_power_of_two_scaling_fits_or_raises_typed(self, e, f, trend):
        # y scaled by 2**e and the design by 2**f, across the float exponent range.
        x, y = _scale_pair()
        with np.errstate(over="ignore"):  # a value beyond the float range is inf, a DataError
            y, x, one = np.ldexp(y, e), np.ldexp(x, f), np.ldexp(np.ones(200), f)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for fit in (
                lambda: ols_fit(y, design(x=x, intercept=one)),
                lambda: ecm.estimate_levels(
                    TimeSeries((2000, 1), 12, y), TimeSeries((2000, 1), 12, x), trend
                ),
            ):
                try:
                    coefficients = fit().coefficients
                except CointkitError:
                    continue
                assert all(map(math.isfinite, coefficients.values())), coefficients
        assert [str(w.message) for w in caught] == []


class TestMemoryLayout:
    def test_transposed_design_solves_bitwise_equal(self):
        # The same values, stored column-major per slice and with a strided
        # dependent variable, give the same bits as C-ordered copies.
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 90, 5))
        A[..., -1] = 1.0
        y = rng.standard_normal((6, 90))
        names = ("a", "b", "c", "d", "intercept")
        A_t = np.ascontiguousarray(A.swapaxes(-1, -2)).swapaxes(-1, -2)
        y_strided = np.repeat(y, 2, axis=-1)[..., ::2]
        assert not A_t.flags.c_contiguous and not y_strided.flags.c_contiguous
        for a, b in (
            (_lstsq(A, y, names), _lstsq(A_t, y_strided, names)),
            (_lstsq(A[2], y[2], names), _lstsq(A_t[2], y_strided[2], names)),
        ):
            for field in ("beta", "resid", "stderrs", "t_stats", "rss"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.one_of(st.floats(allow_nan=False), _SPECIAL), min_size=1, max_size=64))
@example(values=[-0.0])
@example(values=[0.0, -0.0])
@example(values=[-0.0, 0.0, -0.0, 0.0])
@example(values=[math.inf, -math.inf])
@example(values=[1.0, math.nan, 2.0])
def test_median_is_bitwise_numpy_median(values):
    # inf - inf in the middle pair, or an overflowing sum, warns in both.
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = np.median(values)
        got = median(values)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", expected)
        strided = np.repeat(np.array(values), 2)[::2]  # as a column of the Monte Carlo runners
        assert struct.pack("<d", median(strided)) == struct.pack("<d", np.median(strided))


class TestInPlaceDesigns:
    """Each stacked design is written into one C-ordered array, and equals the
    column stack ``np.stack(np.broadcast_arrays(*columns), axis=-1)`` bitwise."""

    @staticmethod
    def _designs(monkeypatch):
        """The designs handed to the kernel, as built, before any copy it makes."""
        designs = []

        def spy(A, y, names):
            designs.append(A)
            return _lstsq(A, y, names)

        monkeypatch.setattr(regression, "_lstsq", spy)
        monkeypatch.setattr(ecm, "_lstsq", spy)
        return designs

    @staticmethod
    def _assert_same(built, columns):
        reference = np.stack(np.broadcast_arrays(*columns), axis=-1)
        assert built.flags.c_contiguous and built.dtype == np.float64
        assert built.shape == reference.shape and built.tobytes() == reference.tobytes()

    def test_adf(self, monkeypatch):
        designs = self._designs(monkeypatch)
        rng = np.random.default_rng(90)
        m = 60
        for rows in ((), (1,), (2,), (5,)):
            x = np.cumsum(rng.standard_normal((*rows, m)), axis=-1)
            dx = np.diff(x, axis=-1)
            for lags in range(MAX_LAGS + 1):
                n_eff = m - 1 - lags
                for constant, trend in ((False, False), (True, False), (True, True)):
                    _adf(x, lags, constant, trend)
                    columns = [x[..., lags:-1]]
                    columns += [dx[..., lags - i : m - 1 - i] for i in range(1, lags + 1)]
                    columns += [np.ones(n_eff)] if constant else []
                    columns += [np.arange(lags + 1, m, dtype=float)] if trend else []
                    self._assert_same(designs.pop(), columns)

    def test_levels_regression(self, monkeypatch):
        designs = self._designs(monkeypatch)
        rng = np.random.default_rng(91)
        n = 40
        for rows in ((), (1,), (3,), (5,)):
            y, x = np.cumsum(rng.standard_normal((2, *rows, n)), axis=-1)
            for trend in (False, True):
                _levels_regression(y, x, trend)
                trend_column = [np.arange(1, n + 1, dtype=float)] if trend else []
                self._assert_same(designs.pop(), [x, *trend_column, np.ones(n)])

    def test_ecm_regressions(self, monkeypatch):
        designs = self._designs(monkeypatch)
        rng = np.random.default_rng(92)
        n = 80
        y, x = 100.0 + np.cumsum(rng.standard_normal((2, 3, n)), axis=-1)
        for gap, ect_lag, control_lags, trend, n_extras in itertools.product(
            (1, 12), (1, 2, 3), (1, 2, 3), (False, True), (0, 1)
        ):
            spec = EcmSpec(gap, ect_lag, control_lags, trend)
            rows = _ardl_rows(n, spec, MONTHLY)
            extras = [("extra", rng.standard_normal(rows.size))][:n_extras]
            levels, _ = _ecm_regressions(y, x, spec, MONTHLY, extras)
            t0 = int(rows[0])
            sy, sx = y[..., gap:] - y[..., :-gap], x[..., gap:] - x[..., :-gap]
            columns = [sx[..., t0 - gap : n - gap]]
            for j in range(1, control_lags + 1):
                columns += [sy[..., t0 - j - gap : n - j - gap], sx[..., t0 - j - gap : n - j - gap]]
            columns.append(levels.resid[..., t0 - ect_lag : n - ect_lag])
            columns += [column for _, column in extras]
            columns += [(rows + 1).astype(float)] if trend else []
            columns.append(np.ones(rows.size))
            self._assert_same(designs.pop(), columns)
            designs.pop()  # the levels regression's
