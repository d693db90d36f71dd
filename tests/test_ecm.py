import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cointkit.montecarlo as mc
from cointkit.critvals import DeterministicSpec
from cointkit.ecm import (
    EcmSpec,
    _ecm_regressions,
    audit_controls,
    estimate_ecm,
    estimate_levels,
    manifest_for,
)
from cointkit.errors import SeriesTooShort, UnsupportedCombination, UsageError
from cointkit.regression import DesignMatrix, ols_fit
from cointkit.series import MONTHLY, QUARTERLY, TimeSeries
from helpers import exact_adf, exact_ols, monthly_series, random_walk_pair


def cointegrated_pair(rng, n, beta=0.7, adjust=0.3, sd=1.0):
    u = rng.standard_normal(n + 100) * sd
    e = rng.standard_normal(n + 100) * sd
    x = np.cumsum(u)
    y = np.zeros(n + 100)
    for t in range(1, n + 100):
        y[t] = y[t - 1] + adjust * (beta * x[t - 1] - y[t - 1]) + e[t]
    return monthly_series(x[100:], name="x"), monthly_series(y[100:], name="y")


class TestSpec:
    def test_defaults(self):
        spec = EcmSpec(seasonal_gap=12)
        assert spec.ect_lag == 1 and spec.ardl_control_lags == 1
        assert not spec.include_trend

    def test_rejects_nonpositive_lags(self):
        for kwargs in (
            {"seasonal_gap": 0},
            {"seasonal_gap": 12, "ect_lag": 0},
            {"seasonal_gap": 12, "ardl_control_lags": 0},
        ):
            with pytest.raises(UsageError):
                EcmSpec(**kwargs)

    def test_gap_must_match_frequency_or_be_one(self):
        rng = np.random.default_rng(71)
        x, y = cointegrated_pair(rng, 200)
        with pytest.raises(UnsupportedCombination):
            estimate_ecm(y, x, EcmSpec(seasonal_gap=4))
        estimate_ecm(y, x, EcmSpec(seasonal_gap=12))
        estimate_ecm(y, x, EcmSpec(seasonal_gap=1))


class TestLevels:
    def test_identity_fit(self):
        rng = np.random.default_rng(72)
        x = monthly_series(np.cumsum(rng.standard_normal(50)))
        fit = estimate_levels(x, x)
        assert fit.coefficients["x"] == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficients["intercept"] == pytest.approx(0.0, abs=1e-10)

    def test_super_consistency_under_cointegration(self):
        rng = np.random.default_rng(73)
        x_vals = np.cumsum(rng.standard_normal(500))
        y_vals = 0.7 * x_vals + rng.standard_normal(500)
        fit = estimate_levels(monthly_series(y_vals), monthly_series(x_vals))
        assert fit.coefficients["x"] == pytest.approx(0.7, abs=0.05)

    def test_slope_error_shrinks_with_sample(self):
        errors = {200: [], 2000: []}
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            for n in errors:
                x_vals = np.cumsum(rng.standard_normal(n))
                y_vals = 0.7 * x_vals + rng.standard_normal(n)
                fit = estimate_levels(monthly_series(y_vals), monthly_series(x_vals))
                errors[n].append(abs(fit.coefficients["x"] - 0.7))
        assert np.median(errors[2000]) < np.median(errors[200])

    def test_trend_column_present_when_requested(self):
        rng = np.random.default_rng(74)
        a, b = random_walk_pair(rng, 60)
        fit = estimate_levels(a, b, include_trend=True)
        assert fit.column_names == ("x", "trend", "intercept")

    def test_short_sample(self):
        a = monthly_series(np.arange(5.0))
        with pytest.raises(SeriesTooShort):
            estimate_levels(a, a)

    @pytest.mark.parametrize("trend", [False, True])
    def test_r_squared_of_y_whose_squares_overflow(self, trend):
        # Scaled by 2**508, the total sum of squares of y exceeds the float
        # range and its residual sum of squares does not (2**510 overflows
        # that too). R^2 is taken on y scaled back by a power of two, which is
        # exact.
        rng = np.random.default_rng(76)
        x = np.cumsum(rng.standard_normal(120)) + 50.0
        y = 2.0 * x + 0.5 * rng.standard_normal(120)
        fit = estimate_levels(monthly_series(y), monthly_series(x), trend)
        huge = estimate_levels(monthly_series(y * 2.0**508), monthly_series(x), trend)
        assert 0.0 < fit.r_squared < 1.0
        assert huge.r_squared == fit.r_squared


class TestEcmStructure:
    def test_control_manifest_matches_definition(self):
        rng = np.random.default_rng(75)
        x, y = cointegrated_pair(rng, 300)
        fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=12, ect_lag=1, ardl_control_lags=1))
        assert fit.control_manifest == (
            "s12_x",
            "s12_y_l1",
            "s12_x_l1",
            "ect_l1",
            "intercept",
        )

    def test_manifest_with_trend_and_more_lags(self):
        rng = np.random.default_rng(76)
        x, y = cointegrated_pair(rng, 300)
        spec = EcmSpec(seasonal_gap=12, ect_lag=2, ardl_control_lags=2, include_trend=True)
        fit = estimate_ecm(y, x, spec)
        assert fit.control_manifest == (
            "s12_x",
            "s12_y_l1",
            "s12_x_l1",
            "s12_y_l2",
            "s12_x_l2",
            "ect_l2",
            "trend",
            "intercept",
        )
        assert fit.control_manifest == manifest_for(spec)

    def test_ect_series_is_lagged_levels_residuals(self):
        rng = np.random.default_rng(77)
        x, y = cointegrated_pair(rng, 250)
        for ect_lag in (1, 3):
            fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=12, ect_lag=ect_lag))
            resid = fit.levels_fit.residuals
            assert np.array_equal(fit.ect_series.values, resid[: len(resid) - ect_lag])
            assert fit.ect_series.start_label == y.label_at(ect_lag)

    def test_ect_coefficient_read_from_ardl_fit(self):
        rng = np.random.default_rng(78)
        x, y = cointegrated_pair(rng, 300)
        fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=12))
        assert fit.ect_coefficient == fit.ardl_fit.coefficients["ect_l1"]
        assert fit.ect_t_stat == fit.ardl_fit.t_stats["ect_l1"]

    def test_manifest_equals_design_columns_across_random_specs(self):
        rng = np.random.default_rng(79)
        x, y = cointegrated_pair(rng, 400)
        for _ in range(25):
            spec = EcmSpec(
                seasonal_gap=int(rng.choice([1, 12])),
                ect_lag=int(rng.integers(1, 4)),
                ardl_control_lags=int(rng.integers(1, 4)),
                include_trend=bool(rng.integers(0, 2)),
            )
            fit = estimate_ecm(y, x, spec)
            assert fit.control_manifest == fit.ardl_fit.column_names
            assert len(fit.ardl_fit.coefficients) == len(fit.control_manifest)
            assert audit_controls(fit, list(fit.control_manifest)).is_clean

    def test_too_short_for_ardl_stage(self):
        rng = np.random.default_rng(80)
        x, y = cointegrated_pair(rng, 200)
        short_y = y.slice(0, 22)
        short_x = x.slice(0, 22)
        with pytest.raises(SeriesTooShort):
            estimate_ecm(short_y, short_x, EcmSpec(seasonal_gap=12))

    def test_extra_controls_joined_by_period(self):
        rng = np.random.default_rng(81)
        x, y = cointegrated_pair(rng, 200)
        extra = monthly_series(rng.standard_normal(len(y)), name="z")
        fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=12), extra_controls={"z": extra})
        assert "z" in fit.control_manifest
        assert fit.control_manifest.index("z") == len(fit.control_manifest) - 2

    def test_extra_control_name_collision(self):
        rng = np.random.default_rng(82)
        x, y = cointegrated_pair(rng, 200)
        extra = monthly_series(rng.standard_normal(len(y)))
        with pytest.raises(UsageError):
            estimate_ecm(y, x, EcmSpec(seasonal_gap=12), extra_controls={"ect_l1": extra})

    def test_extra_control_must_cover_sample(self):
        rng = np.random.default_rng(83)
        x, y = cointegrated_pair(rng, 200)
        stub = monthly_series(rng.standard_normal(30), start=(2000, 1))
        with pytest.raises(SeriesTooShort):
            estimate_ecm(y, x, EcmSpec(seasonal_gap=12), extra_controls={"z": stub})

    def test_extra_control_must_share_the_frequency(self):
        rng = np.random.default_rng(84)
        x, y = cointegrated_pair(rng, 200)
        quarterly = TimeSeries((2000, 1), QUARTERLY, rng.standard_normal(80))
        with pytest.raises(UnsupportedCombination, match="^extra control 'z' has frequency 4, need 12$"):
            estimate_ecm(y, x, EcmSpec(seasonal_gap=12), extra_controls={"z": quarterly})


class TestEcmRecovery:
    def test_one_period_form_recovers_adjustment_speed(self):
        hits = 0
        for seed in range(60):
            rng = np.random.default_rng(5000 + seed)
            x, y = cointegrated_pair(rng, 400, beta=1.0, adjust=0.3)
            fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=1))
            hits += (-0.45 < fit.ect_coefficient < -0.15) and fit.ect_t_stat < -3
        assert hits / 60 >= 0.9

    def test_seasonal_form_makes_ect_redundant(self):
        # With one-period lag controls the differencing identity folds the
        # error-correction term into the other regressors: its coefficient
        # concentrates near zero however strong the true adjustment is.
        coefs = []
        for seed in range(40):
            rng = np.random.default_rng(6000 + seed)
            x, y = cointegrated_pair(rng, 400, beta=1.0, adjust=0.3)
            fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=12))
            coefs.append(fit.ect_coefficient)
        assert abs(float(np.median(coefs))) < 0.1


def _exact_ecm(y, x, spec, extra=None):
    """Both error-correction stages rebuilt from raw arrays and solved in exact rationals.

    The levels stage regresses y_t on x_t, the trend t + 1 if asked and an
    intercept. The ARDL stage regresses the span-``gap`` change of y on the
    same change of x, lags 1..``ardl_control_lags`` of both changes, the
    levels residual ``ect_lag`` periods back, ``extra`` if given, the trend
    and an intercept, at every period where each of them exists. Returns
    the levels coefficients and residuals, and the ARDL coefficients and
    t-ratios.
    """
    n, gap, lags = y.size, spec.seasonal_gap, spec.ardl_control_lags

    def trend(t):
        return [t + 1.0] if spec.include_trend else []

    rows = [[x[t]] + trend(t) + [1.0] for t in range(n)]
    beta, _ = exact_ols(y.tolist(), rows)
    ect = y - np.array(rows) @ np.array(beta)

    def change(v, t):
        return v[t] - v[t - gap]

    dep, design = [], []
    for t in range(max(gap + lags, spec.ect_lag), n):
        row = [change(x, t)]
        for j in range(1, lags + 1):
            row += [change(y, t - j), change(x, t - j)]
        row.append(ect[t - spec.ect_lag])
        row += [] if extra is None else [extra[t]]
        row += trend(t) + [1.0]
        dep.append(change(y, t))
        design.append(row)
    gamma, se = exact_ols(dep, design)
    return beta, ect, gamma, [g / s for g, s in zip(gamma, se)]


class TestExactReference:
    """``estimate_ecm``, a stacked ``_ecm_regressions`` and the two ECM Monte
    Carlo blocks against the exact reference, to 1e-9 relative."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(30, 80),
        spec=st.builds(
            EcmSpec, st.sampled_from([1, MONTHLY]), st.integers(1, 3), st.integers(1, 3), st.booleans()
        ),
        extra=st.booleans(),
        adf_lags=st.integers(0, 2),
        stack=st.integers(1, 4),
        row=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_stages_match_an_exact_solve(self, n, spec, extra, adf_lags, stack, row, seed):
        rng = np.random.default_rng(seed)
        ys, xs = np.cumsum(rng.standard_normal((2, stack, n)), axis=-1)
        z = rng.standard_normal(n) if extra else None
        row %= stack
        y, x = ys[row], xs[row]
        beta, ect, gamma, t_ratios = _exact_ecm(y, x, spec, z)
        ect_name = f"ect_l{spec.ect_lag}"

        controls = None if z is None else {"z": monthly_series(z)}
        fit = estimate_ecm(monthly_series(y), monthly_series(x), spec, controls)
        assert list(fit.levels_fit.coefficients.values()) == pytest.approx(beta, rel=1e-9)
        assert np.abs(fit.levels_fit.residuals - ect).max() <= 1e-9 * np.abs(ect).max()
        assert list(fit.ardl_fit.coefficients.values()) == pytest.approx(gamma, rel=1e-9)
        assert list(fit.ardl_fit.t_stats.values()) == pytest.approx(t_ratios, rel=1e-9)
        assert fit.ect_t_stat == pytest.approx(t_ratios[fit.control_manifest.index(ect_name)], rel=1e-9)

        first = max(spec.seasonal_gap + spec.ardl_control_lags, spec.ect_lag)
        extras = [] if z is None else [("z", np.tile(z[first:], (stack, 1)))]
        levels, ardl = _ecm_regressions(ys, xs, spec, MONTHLY, extras)
        assert levels.beta[row].tolist() == pytest.approx(beta, rel=1e-9)
        assert ardl.beta[row].tolist() == pytest.approx(gamma, rel=1e-9)
        assert ardl.t_stats[row].tolist() == pytest.approx(t_ratios, rel=1e-9)

        if z is not None:  # the blocks take no extra control
            _, _, gamma, t_ratios = _exact_ecm(y, x, spec)
        # The recovery block regresses its second stack on its first.
        col = manifest_for(spec).index(ect_name)
        recovery = mc._recovery_block(spec, xs, ys)[row].tolist()
        assert recovery == pytest.approx([gamma[col], t_ratios[col]], rel=1e-9)
        unit_root = mc._ect_unit_root_block(spec, adf_lags, ys, xs)[row]
        t_ratio, _ = exact_adf(ect[: n - spec.ect_lag], adf_lags, DeterministicSpec.none())
        assert unit_root == pytest.approx(t_ratio, rel=1e-9)


class TestAudit:
    def test_clean_when_declared_matches(self):
        report = audit_controls(["a", "b"], ["b", "a"])
        assert report.is_clean

    def test_leaked_controls_detected_on_levels_fit(self):
        # A levels equation contaminated with short-run regressors must
        # surface them as present-but-undeclared.
        rng = np.random.default_rng(84)
        x, y = cointegrated_pair(rng, 300)
        ecm_fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=12))
        declared_levels_controls = ["x", "intercept"]
        report = audit_controls(ecm_fit.ardl_fit, declared_levels_controls)
        assert not report.is_clean
        assert "ect_l1" in report.present_but_undeclared
        assert "s12_y_l1" in report.present_but_undeclared
        assert "x" in report.declared_but_absent

    def test_declared_but_absent(self):
        rng = np.random.default_rng(85)
        x, y = cointegrated_pair(rng, 200)
        fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=12))
        report = audit_controls(fit, list(fit.control_manifest) + ["ghost"])
        assert report.declared_but_absent == ("ghost",)
        assert report.present_but_undeclared == ()

    def test_accepts_plain_ols_fit(self):
        X = DesignMatrix.from_columns(
            [("x", np.arange(1.0, 13.0)), ("intercept", np.ones(12))]
        )
        fit = ols_fit(np.arange(12.0), X)
        assert audit_controls(fit, ["x", "intercept"]).is_clean

    def test_json_shape(self):
        report = audit_controls(["a"], ["b"])
        doc = report.to_json_dict()
        assert doc == {
            "present_but_undeclared": ["a"],
            "declared_but_absent": ["b"],
            "is_clean": False,
        }


class TestCsvRows:
    def test_one_row_per_term_of_each_equation(self):
        y, x = random_walk_pair(np.random.default_rng(4), 120)
        fit = estimate_ecm(y, x, EcmSpec(seasonal_gap=1))
        header, *rows = fit.to_csv_rows()
        assert header == ["equation", "term", "coefficient", "stderr", "t_stat"]
        expected = [("levels", t) for t in fit.levels_fit.column_names]
        expected += [("ardl", t) for t in fit.ardl_fit.column_names]
        assert [tuple(row[:2]) for row in rows] == expected
        equation, term, coefficient, stderr, t_stat = rows[-1]
        assert coefficient == f"{fit.ardl_fit.coefficients[term]:.12g}"
        assert stderr == f"{fit.ardl_fit.stderrs[term]:.12g}"
        assert t_stat == f"{fit.ardl_fit.t_stats[term]:.12g}"
