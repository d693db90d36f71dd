import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointkit.critvals import SOURCE_ID, DeterministicSpec, critical_value
from cointkit.errors import DegenerateInput, SeriesTooShort, UsageError
from cointkit.regression import _adf
from cointkit.unitroot import adf_regression, adf_test
from helpers import exact_adf, exact_ols, monthly_series

C = DeterministicSpec.constant_only()
CT = DeterministicSpec.constant_trend()
NONE = DeterministicSpec.none()


class TestDegenerate:
    def test_deterministic_ramp_with_constant_and_trend(self):
        x = monthly_series(np.arange(1.0, 41.0))
        with pytest.raises(DegenerateInput):
            adf_test(x, 0, CT)

    def test_deterministic_ramp_with_constant(self):
        x = monthly_series(np.arange(1.0, 41.0))
        with pytest.raises(DegenerateInput):
            adf_test(x, 0, C)

    def test_constant_series_without_deterministics(self):
        x = monthly_series(np.full(40, 3.0))
        with pytest.raises(DegenerateInput):
            adf_test(x, 0, NONE)


class TestMonteCarloBehaviour:
    def test_white_noise_rejects_almost_surely(self):
        rng = np.random.default_rng(21)
        rejections = 0
        reps = 2000
        for _ in range(reps):
            x = monthly_series(rng.standard_normal(300))
            rejections += adf_test(x, 0, C).reject_at[5]
        assert rejections / reps >= 0.99

    def test_random_walk_rejection_matches_nominal_size(self):
        rng = np.random.default_rng(22)
        rejections = 0
        reps = 2000
        for _ in range(reps):
            x = monthly_series(np.cumsum(rng.standard_normal(300)))
            rejections += adf_test(x, 0, C).reject_at[5]
        assert 0.03 <= rejections / reps <= 0.07


_WALK = monthly_series(np.cumsum(np.random.default_rng(26).standard_normal(150)))


class TestInvariances:
    def test_affine_invariance_with_constant(self):
        rng = np.random.default_rng(23)
        x = monthly_series(np.cumsum(rng.standard_normal(150)))
        base = adf_test(x, 2, C).statistic
        shifted = monthly_series(3.7 * x.values - 250.0)
        assert abs(adf_test(shifted, 2, C).statistic - base) <= 1e-10

    def test_affine_invariance_with_trend(self):
        rng = np.random.default_rng(24)
        x = monthly_series(np.cumsum(rng.standard_normal(150)))
        base = adf_test(x, 1, CT).statistic
        shifted = monthly_series(0.002 * x.values + 9.0)
        assert abs(adf_test(shifted, 1, CT).statistic - base) <= 1e-10

    @settings(max_examples=150, deadline=None)
    @given(
        log_a=st.floats(-3.0, 3.0),
        negative=st.booleans(),
        b=st.floats(-1e3, 1e3),
        lags=st.integers(0, 3),
    )
    def test_affine_invariance_with_constant_property(self, log_a, negative, b, lags):
        # y -> a*y + b with 1e-3 <= |a| <= 1e3 and |b| <= 1e3: the shift is
        # absorbed by the constant and the scale cancels in the t-ratio. A
        # large b on a small a*y costs digits (5e-11 seen), hence 1e-9 relative.
        a = -(10.0**log_a) if negative else 10.0**log_a
        base = adf_test(_WALK, lags, C).statistic
        moved = adf_test(monthly_series(a * _WALK.values + b), lags, C).statistic
        assert moved == pytest.approx(base, rel=1e-9)

    def test_bitwise_reproducibility(self):
        rng = np.random.default_rng(25)
        x = monthly_series(np.cumsum(rng.standard_normal(80)))
        a = adf_test(x, 3, CT)
        b = adf_test(x, 3, CT)
        assert a.statistic == b.statistic
        assert a.critical_values == b.critical_values
        assert a.reject_at == b.reject_at


class TestBookkeeping:
    def test_effective_sample_decreases_one_per_lag(self):
        rng = np.random.default_rng(26)
        x = monthly_series(np.cumsum(rng.standard_normal(60)))
        sizes = [adf_test(x, lags, C).n_effective for lags in range(4)]
        assert sizes == [59, 58, 57, 56]

    def test_minimum_effective_sample(self):
        rng = np.random.default_rng(27)
        values = np.cumsum(rng.standard_normal(12))
        with pytest.raises(SeriesTooShort):
            adf_test(monthly_series(values), 2, C)
        report = adf_test(monthly_series(np.append(values, 1.5)), 2, C)
        assert report.n_effective == 10

    def test_negative_lags_rejected(self):
        x = monthly_series(np.arange(30.0))
        with pytest.raises(UsageError):
            adf_test(x, -1, C)

    def test_rejections_follow_critical_values(self):
        rng = np.random.default_rng(28)
        x = monthly_series(rng.standard_normal(120))
        report = adf_test(x, 0, C)
        for level in (1, 5, 10):
            assert report.reject_at[level] == (
                report.statistic < report.critical_values[level]
            )

    def test_report_json_shape(self):
        rng = np.random.default_rng(29)
        x = monthly_series(rng.standard_normal(60))
        doc = adf_test(x, 1, CT).to_json_dict()
        assert doc["type"] == "unit_root_report"
        assert doc["cv_source"] == SOURCE_ID
        assert doc["deterministic"] == "constant+trend"
        assert set(doc["critical_values"]) == {"1", "5", "10"}

    def test_critical_values_match_table(self):
        rng = np.random.default_rng(30)
        x = monthly_series(rng.standard_normal(130))
        report = adf_test(x, 2, C)
        for level in (1, 5, 10):
            assert report.critical_values[level] == critical_value(
                1, report.n_effective, level, C
            )


class TestOracle:
    def test_statistic_matches_exact_rational_regression(self):
        # Rebuild the ADF regression by hand and solve it exactly.
        rng = np.random.default_rng(31)
        x = rng.standard_normal(25).cumsum()
        lags = 2
        dx = np.diff(x)
        y = dx[lags:]
        rows = []
        for i in range(lags, dx.size):
            rows.append([x[i], dx[i - 1], dx[i - 2], 1.0])
        beta, se = exact_ols(y.tolist(), rows)
        expected_t = beta[0] / se[0]

        report = adf_test(monthly_series(x), lags, C)
        assert report.statistic == pytest.approx(expected_t, rel=1e-9)
        assert report.n_effective == y.size


class TestExactReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(30, 80),
        lags=st.integers(0, 3),
        det=st.sampled_from([NONE, C, CT]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_statistic_matches_an_exact_solve(self, n, lags, det, seed):
        walks = np.cumsum(np.random.default_rng(seed).standard_normal((2, n)), axis=1)
        t_ratio, n_obs = exact_adf(walks[0], lags, det)
        report = adf_test(monthly_series(walks[0]), lags, det)
        assert report.statistic == pytest.approx(t_ratio, rel=1e-9)
        assert report.n_effective == n_obs
        # The same series as the first row of a two-row stack.
        sol, n_eff = _adf(walks, lags, det.constant, det.trend)
        assert sol.t_stats[0, 0] == pytest.approx(t_ratio, rel=1e-9)
        assert n_eff == n_obs


class TestLargeValues:
    def test_statistic_where_the_fit_would_overflow(self):
        # The squares of these values overflow, but the ADF t-ratio is finite.
        rng = np.random.default_rng(1)
        x = (-1.0) ** np.arange(21) * 2.0e153 * (1 + 0.01 * rng.standard_normal(21))
        report = adf_test(monthly_series(x), 0, NONE)
        sol, n_eff = _adf(np.stack([x, x]), 0, False, False)
        assert report.statistic == sol.t_stats[0, 0] == pytest.approx(-1004.315, rel=1e-6)
        assert report.n_effective == n_eff == 20
        # The fit's R^2 is taken on the regressand scaled by a power of two.
        statistic, n_eff, fit = adf_regression(x, 0, NONE)
        assert (statistic, n_eff) == (report.statistic, 20)
        assert 0.0 <= fit.r_squared <= 1.0

    @pytest.mark.parametrize("lags", [0, 12])
    @pytest.mark.parametrize("det", [C, CT], ids=["c", "ct"])
    def test_statistic_in_the_units_of_nominal_gdp(self, det, lags):
        # At 2e13 (US nominal GDP in dollars is about 2.7e13) the intercept's
        # |R_ii| lies below n * eps times the data column's norm, though the
        # intercept is independent of it; the rank screen judges each column
        # by its own norm.
        x = 100 + np.cumsum(np.random.default_rng(5).standard_normal(300))
        base = adf_test(monthly_series(x), lags, det).statistic
        scaled = adf_test(monthly_series(x * 2e13), lags, det).statistic
        assert scaled == pytest.approx(base, rel=1e-12)


class TestSmallValues:
    @pytest.mark.parametrize("scale", [1e-12, 1e-14])
    @pytest.mark.parametrize("lags", [0, 12])
    @pytest.mark.parametrize("det", [NONE, C, CT], ids=["none", "c", "ct"])
    def test_statistic_in_small_units(self, det, lags, scale):
        # Residuals of about 1e-13 are negligible in a series of unit scale,
        # not in one whose largest value is 1e-10: degeneracy is judged
        # against the series' own largest |value|, with no absolute floor.
        x = 100 + 0.1 * np.cumsum(np.random.default_rng(5).standard_normal(300))
        base = adf_test(monthly_series(x), lags, det).statistic
        scaled = adf_test(monthly_series(x * scale), lags, det).statistic
        assert scaled == pytest.approx(base, rel=1e-12)


class TestCsvRows:
    def test_header_and_one_row_of_the_report(self):
        x = monthly_series(np.cumsum(np.random.default_rng(3).standard_normal(120)))
        report = adf_test(x, 2, CT)
        header, row = report.to_csv_rows()
        assert header == ["statistic", "lags", "deterministic", "n_effective"] + [
            f"{name}{level}" for name in ("cv", "reject") for level in (1, 5, 10)
        ]
        assert row == [
            f"{report.statistic:.12g}",
            "2",
            CT.label(),
            str(report.n_effective),
            *(f"{report.critical_values[level]:.12g}" for level in (1, 5, 10)),
            *(str(report.reject_at[level]).lower() for level in (1, 5, 10)),
        ]
