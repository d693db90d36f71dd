import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointkit.errors import DataError, DimensionMismatch, RankDeficient
from cointkit.regression import DesignMatrix, _lstsq, ols_fit
from helpers import exact_ols


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ols_fit([1.0, 2.0], design(x=np.arange(3.0)))


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
