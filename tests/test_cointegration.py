import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointkit.cointegration import (
    GRID_CSV_COLUMNS,
    LOGARITHMS,
    NORMALIZE_FIRST,
    NORMALIZE_SECOND,
    UNTRANSFORMED,
    WARN_DIFFERENCED,
    WARN_NEAR_COLLINEAR,
    WARN_SHORT_SAMPLE,
    EgSpec,
    default_grid,
    engle_granger_test,
    run_spec_grid,
)
import cointkit.cointegration as coint
from cointkit.critvals import DeterministicSpec
from cointkit.ecm import EcmSpec, estimate_ecm
from cointkit.errors import (
    CointkitError,
    DataError,
    DegenerateInput,
    FrequencyMismatch,
    NoOverlap,
    SeriesTooShort,
    UsageError,
)
from cointkit.formats import json_dumps
from cointkit.series import (
    MONTHLY,
    QUARTERLY,
    TimeSeries,
    iterated_difference,
    seasonal_difference,
)
from cointkit.unitroot import adf_test
from helpers import exact_ols, monthly_series, random_walk_pair


def spec(transform=UNTRANSFORMED, normalize=NORMALIZE_FIRST, lags=0, trend=False):
    return EgSpec(
        transform=transform, normalize_on=normalize, lags=lags, trend_in_stage_one=trend
    )


def cointegrated_pair(rng, n, beta=2.0, adjust=0.5, sd=1.0):
    u = rng.standard_normal(n + 100) * sd
    e = rng.standard_normal(n + 100) * sd
    x = np.cumsum(u)
    y = np.zeros(n + 100)
    for t in range(1, n + 100):
        y[t] = y[t - 1] + adjust * (beta * x[t - 1] - y[t - 1]) + e[t]
    return monthly_series(x[100:], name="x"), monthly_series(y[100:], name="y")


_SCALE_PAIR = random_walk_pair(np.random.default_rng(47), 200)


def _positive_pair(rng, n):
    """Two independent random walks around 100, so every log cell runs."""
    a, b = random_walk_pair(rng, n)
    return monthly_series(100.0 + a.values, name="a"), monthly_series(100.0 + b.values, name="b")


def _assert_cells_run_alone(grid, a, b, specs):
    """Each grid cell holds what ``engle_granger_test`` gives for its spec alone:
    a report with the same repr, JSON text and residual bytes, or the same error."""
    assert [cell.spec for cell in grid.cells] == list(specs)
    for cell in grid.cells:
        try:
            alone = engle_granger_test(a, b, cell.spec)
        except CointkitError as exc:
            assert (cell.report, cell.error) == (None, f"{type(exc).__name__}: {exc}")
        else:
            assert cell.error is None
            assert repr(cell.report) == repr(alone)
            assert json_dumps(cell.report.to_json_dict()) == json_dumps(alone.to_json_dict())
            assert cell.report.stage_one.residuals.tobytes() == alone.stage_one.residuals.tobytes()


class TestSpecValidation:
    def test_rejects_unknown_transform(self):
        with pytest.raises(UsageError):
            EgSpec("levels", NORMALIZE_FIRST, 0, False)

    def test_rejects_unknown_normalization(self):
        with pytest.raises(UsageError):
            EgSpec(UNTRANSFORMED, "third", 0, False)

    def test_rejects_absurd_lag_counts(self):
        for lags in (-1, 25):
            with pytest.raises(UsageError):
                EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, lags, False)


class TestEngleGranger:
    def test_cointegrated_pair_rejects_at_one_percent(self):
        rng = np.random.default_rng(41)
        x, y = cointegrated_pair(rng, 400)
        report = engle_granger_test(x, y, spec())
        assert report.reject_at[1]

    def test_noisy_multiple_of_random_walk_rejects_at_one_percent(self):
        rng = np.random.default_rng(62)
        a = monthly_series(np.cumsum(rng.standard_normal(400)), name="a")
        b = monthly_series(2.0 * a.values + rng.standard_normal(400), name="b")
        report = engle_granger_test(a, b, spec())
        assert report.reject_at[1]
        assert report.warnings == () or all(
            w.code != WARN_DIFFERENCED for w in report.warnings
        )

    def test_differenced_inputs_warn_but_still_compute(self):
        rng = np.random.default_rng(42)
        a, b = random_walk_pair(rng, 300)
        da, db = iterated_difference(a, 1), iterated_difference(b, 1)
        report = engle_granger_test(da, db, spec())
        codes = [w.code for w in report.warnings]
        assert WARN_DIFFERENCED in codes
        assert np.isfinite(report.statistic)
        # Stationary inputs make the misused test reject overwhelmingly.
        assert report.reject_at[1]
        message = next(w for w in report.warnings if w.code == WARN_DIFFERENCED).message
        assert "rw_a" in message and "iterated_diff(order=1)" in message

    def test_seasonal_difference_also_trips_guard(self):
        rng = np.random.default_rng(43)
        a, b = random_walk_pair(rng, 300)
        report = engle_granger_test(seasonal_difference(a, 12), b, spec())
        assert WARN_DIFFERENCED in [w.code for w in report.warnings]

    def test_guard_completeness_over_random_transform_chains(self):
        from cointkit.series import log_transform

        rng = np.random.default_rng(44)
        for _ in range(300):
            raw_a, raw_b = random_walk_pair(rng, 80)
            pair = [
                monthly_series(raw_a.values + 1000.0, name="a"),
                monthly_series(raw_b.values + 1000.0, name="b"),
            ]
            differenced = False
            for i in range(2):
                cur = pair[i]
                for _ in range(int(rng.integers(0, 3))):
                    op = rng.integers(0, 3)
                    if op == 0:
                        if (cur.values > 0).all():
                            cur = log_transform(cur)
                    elif op == 1:
                        cur = iterated_difference(cur, 1)
                        differenced = True
                    else:
                        cur = seasonal_difference(cur, int(rng.integers(1, 4)))
                        differenced = True
                pair[i] = cur
            report = engle_granger_test(pair[0], pair[1], spec())
            fired = WARN_DIFFERENCED in [w.code for w in report.warnings]
            assert fired == differenced

    def test_scale_invariance(self):
        rng = np.random.default_rng(45)
        a, b = random_walk_pair(rng, 250)
        base = engle_granger_test(a, b, spec(lags=2)).statistic
        for ca, cb in ((3.0, 1.0), (1.0, 0.004), (250.0, 7.0)):
            scaled = engle_granger_test(
                monthly_series(ca * a.values),
                monthly_series(cb * b.values),
                spec(lags=2),
            ).statistic
            assert abs(scaled - base) <= 1e-10

    @settings(max_examples=150, deadline=None)
    @given(
        log_ca=st.floats(-4.0, 4.0),
        log_cb=st.floats(-4.0, 4.0),
        lags=st.integers(0, 3),
        trend=st.booleans(),
        normalize=st.sampled_from([NORMALIZE_FIRST, NORMALIZE_SECOND]),
    )
    def test_positive_rescaling_property(self, log_ca, log_cb, lags, trend, normalize):
        # Rescaling either series by a factor in [1e-4, 1e4] rescales the
        # stage-one residual and leaves its ADF t-ratio unchanged, to 1e-12
        # relative.
        a, b = _SCALE_PAIR
        eg = spec(normalize=normalize, lags=lags, trend=trend)
        base = engle_granger_test(a, b, eg).statistic
        scaled = engle_granger_test(
            monthly_series(10.0**log_ca * a.values), monthly_series(10.0**log_cb * b.values), eg
        ).statistic
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_trend_regression_on_a_regressor_in_large_units(self):
        # Scaled by 1e12, the regressor's column norm dwarfs the trend's and
        # the intercept's; each is judged by its own norm, so none looks
        # dependent.
        a, b = _SCALE_PAIR
        eg = spec(trend=True)
        base = engle_granger_test(a, b, eg).statistic
        scaled = engle_granger_test(a, monthly_series(1e12 * b.values), eg).statistic
        assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1e-14])
    @pytest.mark.parametrize("trend", [False, True])
    def test_statistic_in_small_units(self, trend, scale):
        # Stage two judges its residuals against the dependent level's largest
        # |value|, so a pair in small units is not called degenerate.
        rng = np.random.default_rng(5)
        a, b = (100 + 0.1 * np.cumsum(rng.standard_normal((2, 300)), axis=1))
        eg = spec(trend=trend)
        base = engle_granger_test(monthly_series(a), monthly_series(b), eg).statistic
        scaled = engle_granger_test(monthly_series(a * scale), monthly_series(b * scale), eg).statistic
        assert scaled == pytest.approx(base, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        k_a=st.integers(-60, 60),
        k_b=st.integers(-60, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_rescaling_is_bitwise_exact(self, k_a, k_b, seed):
        # Scaling by 2^k is exact in every operation, so it leaves each
        # statistic that does not depend on the units bitwise unchanged.
        a, b = random_walk_pair(np.random.default_rng(seed), 120)
        sa, sb = (monthly_series(s.values * 2.0**k) for s, k in ((a, k_a), (b, k_b)))
        for det in (DeterministicSpec.none(), DeterministicSpec.constant_only(), DeterministicSpec.constant_trend()):
            for series, scaled in ((a, sa), (b, sb)):
                assert adf_test(scaled, 2, det).statistic == adf_test(series, 2, det).statistic
        for normalize in (NORMALIZE_FIRST, NORMALIZE_SECOND):
            for trend in (False, True):
                eg = spec(normalize=normalize, lags=1, trend=trend)
                assert engle_granger_test(sa, sb, eg).statistic == engle_granger_test(a, b, eg).statistic
        for gap in (1, MONTHLY):
            ecm = EcmSpec(seasonal_gap=gap)
            assert estimate_ecm(sa, sb, ecm).ect_t_stat == estimate_ecm(a, b, ecm).ect_t_stat

    def test_log_spec_equals_untransformed_on_exponentiated_data(self):
        rng = np.random.default_rng(46)
        a, b = random_walk_pair(rng, 200, sd=0.05)
        exp_a = monthly_series(np.exp(a.values))
        exp_b = monthly_series(np.exp(b.values))
        log_stat = engle_granger_test(exp_a, exp_b, spec(transform=LOGARITHMS)).statistic
        raw_stat = engle_granger_test(a, b, spec()).statistic
        assert log_stat == pytest.approx(raw_stat, rel=1e-12)

    def test_normalization_changes_statistic_not_critical_values(self):
        rng = np.random.default_rng(47)
        a, b = random_walk_pair(rng, 300)
        first = engle_granger_test(a, b, spec(normalize=NORMALIZE_FIRST))
        second = engle_granger_test(a, b, spec(normalize=NORMALIZE_SECOND))
        assert first.statistic != second.statistic
        assert first.critical_values == second.critical_values

    def test_stage_two_has_no_deterministic_terms(self):
        rng = np.random.default_rng(48)
        a, b = random_walk_pair(rng, 200)
        report = engle_granger_test(a, b, spec(lags=3, trend=True))
        assert set(report.stage_two_columns) == {
            "level_lag1",
            "diff_lag1",
            "diff_lag2",
            "diff_lag3",
        }

    def test_trend_variant_changes_critical_values(self):
        rng = np.random.default_rng(49)
        a, b = random_walk_pair(rng, 200)
        plain = engle_granger_test(a, b, spec())
        trended = engle_granger_test(a, b, spec(trend=True))
        assert "trend" in trended.stage_one.coefficients
        assert trended.critical_values[5] < plain.critical_values[5]

    def test_deterministic_report(self):
        rng = np.random.default_rng(50)
        a, b = random_walk_pair(rng, 150)
        r1 = engle_granger_test(a, b, spec(lags=1))
        r2 = engle_granger_test(a, b, spec(lags=1))
        assert r1.statistic == r2.statistic
        assert r1.stage_one.coefficients == r2.stage_one.coefficients

    def test_exact_linear_combination_is_degenerate(self):
        a = monthly_series(np.cumsum(np.random.default_rng(51).standard_normal(100)))
        b = monthly_series(2.0 * a.values)
        with pytest.raises(DegenerateInput):
            engle_granger_test(b, a, spec())

    def test_no_overlap_and_frequency_mismatch_propagate(self):
        a = monthly_series(np.arange(30.0), start=(2000, 1))
        b = monthly_series(np.arange(30.0), start=(2010, 1))
        with pytest.raises(NoOverlap):
            engle_granger_test(a, b, spec())
        q = TimeSeries((2000, 1), QUARTERLY, np.arange(30.0))
        with pytest.raises(FrequencyMismatch):
            engle_granger_test(a, q, spec())

    def test_short_sample_errors_below_minimum(self):
        rng = np.random.default_rng(52)
        a, b = random_walk_pair(rng, 12)
        with pytest.raises(SeriesTooShort):
            engle_granger_test(a, b, spec(lags=2))

    def test_short_sample_warning(self):
        rng = np.random.default_rng(53)
        a, b = random_walk_pair(rng, 40)
        report = engle_granger_test(a, b, spec())
        assert WARN_SHORT_SAMPLE in [w.code for w in report.warnings]

    def test_near_collinear_stage_one_warning(self):
        rng = np.random.default_rng(54)
        n = 120
        x = monthly_series(5.0 + 1e-10 * rng.standard_normal(n))
        y = monthly_series(np.cumsum(rng.standard_normal(n)))
        report = engle_granger_test(y, x, spec(normalize=NORMALIZE_FIRST))
        assert WARN_NEAR_COLLINEAR in [w.code for w in report.warnings]

    def test_effective_sample_bookkeeping(self):
        rng = np.random.default_rng(55)
        a, b = random_walk_pair(rng, 200)
        for lags in (0, 4, 12):
            report = engle_granger_test(a, b, spec(lags=lags))
            assert report.n_effective == 200 - 1 - lags


def _exact_eg(a, b, eg, stage_one_resid):
    """Both Engle-Granger stages rebuilt from raw arrays and solved in exact rationals.

    Stage one regresses the dependent level on the other (Engle & Granger
    1987), with the trend 1..n if asked and an intercept; stage two is the
    ADF regression with no deterministic terms on ``stage_one_resid``, the
    residuals cointkit computed. Returns the stage-one coefficients and
    residuals, and the stage-two t-ratio on the lagged level.
    """
    levels = [np.log(v) if eg.transform == LOGARITHMS else v for v in (a, b)]
    y, x = levels if eg.normalize_on == NORMALIZE_FIRST else levels[::-1]
    n = y.size
    rows = [[x[t]] + ([t + 1.0] if eg.trend_in_stage_one else []) + [1.0] for t in range(n)]
    beta, _ = exact_ols(y.tolist(), rows)
    resid = y - np.array(rows) @ np.array(beta)

    e = stage_one_resid
    de = np.diff(e)
    lags = eg.lags
    rows = [[e[t]] + [de[t - i] for i in range(1, lags + 1)] for t in range(lags, de.size)]
    gamma, se = exact_ols(de[lags:].tolist(), rows)
    return beta, resid, gamma[0] / se[0]


class TestExactReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(30, 80),
        eg=st.builds(
            EgSpec,
            st.sampled_from([LOGARITHMS, UNTRANSFORMED]),
            st.sampled_from([NORMALIZE_FIRST, NORMALIZE_SECOND]),
            st.integers(0, 3),
            st.booleans(),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_stages_match_an_exact_solve(self, n, eg, seed):
        a, b = _positive_pair(np.random.default_rng(seed), n)
        # The grid cell sits in a stack beside the other three transform and
        # normalization rows of its lags and trend.
        specs = [
            EgSpec(tr, norm, eg.lags, eg.trend_in_stage_one)
            for tr in (LOGARITHMS, UNTRANSFORMED)
            for norm in (NORMALIZE_FIRST, NORMALIZE_SECOND)
        ]
        cell = run_spec_grid(a, b, specs).cells[specs.index(eg)].report
        for report in (engle_granger_test(a, b, eg), cell):
            fit = report.stage_one
            beta, resid, t_ratio = _exact_eg(a.values, b.values, eg, fit.residuals)
            assert list(fit.coefficients.values()) == pytest.approx(beta, rel=1e-9)
            scale = np.abs(resid).max()
            assert np.abs(fit.residuals - resid).max() <= 1e-9 * scale
            assert report.statistic == pytest.approx(t_ratio, rel=1e-9)
            assert report.n_effective == n - 1 - eg.lags


class TestGrid:
    def test_default_grid_is_the_twelve_cell_table(self):
        grid = default_grid()
        assert len(grid) == 12
        combos = {
            (s.transform, s.normalize_on, s.lags, s.trend_in_stage_one) for s in grid
        }
        assert combos == {
            (tr, norm, lags, trend)
            for tr in (LOGARITHMS, UNTRANSFORMED)
            for norm in (NORMALIZE_FIRST, NORMALIZE_SECOND)
            for lags, trend in ((0, False), (12, False), (12, True))
        }

    def test_singleton_grid_aggregates_equal_cell(self):
        rng = np.random.default_rng(56)
        x, y = cointegrated_pair(rng, 300)
        one = spec()
        grid = run_spec_grid(x, y, [one])
        cell = grid.cells[0].report
        assert grid.min_statistic == grid.max_statistic == grid.median_statistic == cell.statistic
        assert grid.cells_ok == 1 and grid.cells_errored == 0
        for level in (1, 5, 10):
            assert grid.reject_counts[level] == int(cell.reject_at[level])

    def test_log_cells_error_per_cell_without_aborting(self):
        rng = np.random.default_rng(57)
        a, b = random_walk_pair(rng, 200)  # walks cross zero: logs undefined
        assert (a.values <= 0).any()
        grid = run_spec_grid(a, b)
        assert grid.cells_errored == 6
        assert grid.cells_ok == 6
        errored = [c for c in grid.cells if not c.ok]
        assert all(c.spec.transform == LOGARITHMS for c in errored)
        assert all("NonPositiveValue" in c.error for c in errored)

    def test_grid_csv_contract(self):
        rng = np.random.default_rng(58)
        a, b = random_walk_pair(rng, 200)
        rows = run_spec_grid(a, b).to_csv_rows()
        assert rows[0] == list(GRID_CSV_COLUMNS)
        assert len(rows) == 13
        ok_row = next(r for r in rows[1:] if r[4] != "")
        assert ok_row[0] in (LOGARITHMS, UNTRANSFORMED)
        assert ok_row[2] in ("0", "12")
        assert ok_row[3] in ("true", "false")
        float(ok_row[4])  # statistic parses
        err_row = next(r for r in rows[1:] if r[4] == "")
        assert err_row[9].startswith("error:")

    def test_grid_cells_keep_spec_order(self):
        rng = np.random.default_rng(59)
        a, b = random_walk_pair(rng, 150)
        specs = [spec(), spec(lags=1), spec(lags=2)]
        grid = run_spec_grid(a, b, specs)
        assert [c.spec for c in grid.cells] == specs

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("a bug, not a data problem")

        a, b = random_walk_pair(np.random.default_rng(62), 100)
        for stage in ("_levels_regression", "_eg_stage_two"):
            with monkeypatch.context() as patch:
                patch.setattr(coint, stage, broken)
                with pytest.raises(RuntimeError):
                    run_spec_grid(a, b, [spec()])

    def test_typed_errors_become_error_cells(self, monkeypatch):
        def bad_data(*args):
            raise DataError("cell cannot be computed")

        a, b = random_walk_pair(np.random.default_rng(63), 100)
        for stage in ("_levels_regression", "_eg_stage_two"):
            with monkeypatch.context() as patch:
                patch.setattr(coint, stage, bad_data)
                grid = run_spec_grid(a, b, [spec()])
            assert grid.cells_errored == 1
            assert grid.to_csv_rows()[1][9] == "error:DataError: cell cannot be computed"

    @staticmethod
    def _count_stages(monkeypatch):
        """Record the stage-one, stage-two, fit and warning calls the grid makes."""
        calls = {"one": [], "two": [], "fits": [], "warnings": []}
        one, two = coint._levels_regression, coint._eg_stage_two
        fit, warnings = coint._as_fit, coint._collect_warnings

        def counting_one(dep, other, trend):
            calls["one"].append((dep.shape, other.shape, trend))
            return one(dep, other, trend)

        def counting_two(resid, dep, lags):
            calls["two"].append((resid.shape, dep.shape, lags))
            return two(resid, dep, lags)

        def counting_fit(sol):
            calls["fits"].append(sol.design.shape)
            return fit(sol)

        def counting_warnings(designs):
            calls["warnings"].append(designs.shape)
            return warnings(designs)

        monkeypatch.setattr(coint, "_levels_regression", counting_one)
        monkeypatch.setattr(coint, "_eg_stage_two", counting_two)
        monkeypatch.setattr(coint, "_as_fit", counting_fit)
        monkeypatch.setattr(coint, "_collect_warnings", counting_warnings)
        return calls

    def test_default_grid_solves_three_stacks(self, monkeypatch):
        # Three stage-two stacks, one per (lags, trend); they share two
        # stage-one stacks, one per trend setting, of the four distinct
        # (transform, normalization) rows.
        calls = self._count_stages(monkeypatch)
        x, y = _positive_pair(np.random.default_rng(64), 150)
        grid = run_spec_grid(x, y)
        assert grid.cells_ok == 12
        assert calls["one"] == [((4, 150), (4, 150), False), ((4, 150), (4, 150), True)]
        assert calls["two"] == [((4, 150), (4, 150), 0), ((4, 150), (4, 150), 12), ((4, 150), (4, 150), 12)]
        assert calls["fits"] == [(150, 2)] * 4 + [(150, 3)] * 4
        assert calls["warnings"] == [(4, 150, 2), (4, 150, 3)]
        by_stage_one = {}
        for cell in grid.cells:
            key = (cell.spec.transform, cell.spec.normalize_on, cell.spec.trend_in_stage_one)
            first = by_stage_one.setdefault(key, cell.report)
            assert cell.report.stage_one is first.stage_one
        assert len(by_stage_one) == 8

    def test_guard_runs_once_per_grid_and_critical_values_once_per_stack(self, monkeypatch):
        guards, tables = [], []
        guard, table = coint.differencing_warning, coint.eg_critical_values

        def counting_guard(a, b):
            guards.append((a.name, b.name))
            return guard(a, b)

        def counting_table(n_eff, trend):
            tables.append((n_eff, trend))
            return table(n_eff, trend)

        monkeypatch.setattr(coint, "differencing_warning", counting_guard)
        monkeypatch.setattr(coint, "eg_critical_values", counting_table)
        x, y = _positive_pair(np.random.default_rng(64), 150)
        grid = run_spec_grid(x, y)
        assert grid.cells_ok == 12
        assert guards == [(x.name, y.name)]
        assert tables == [(149, False), (137, False), (137, True)]
        # Differenced, every cell warns; the logarithm cells fail, so every
        # cell reruns alone, each running the guard once more.
        guards.clear()
        dx, dy = iterated_difference(x, 1), iterated_difference(y, 1)
        untransformed = [cell for cell in default_grid() if cell.transform == UNTRANSFORMED]
        grid = run_spec_grid(dx, dy, untransformed)
        assert all(WARN_DIFFERENCED in [w.code for w in c.report.warnings] for c in grid.cells)
        assert len(guards) == 1
        guards.clear()
        grid = run_spec_grid(dx, dy)
        assert grid.cells_errored == 6
        assert len(guards) == 1 + 12

    def test_engle_granger_test_is_one_row_of_the_stacked_solve(self, monkeypatch):
        calls = self._count_stages(monkeypatch)
        x, y = _positive_pair(np.random.default_rng(66), 90)
        engle_granger_test(x, y, spec(transform=LOGARITHMS, normalize=NORMALIZE_SECOND, lags=2, trend=True))
        assert calls == {
            "one": [((1, 90), (1, 90), True)],
            "two": [((1, 90), (1, 90), 2)],
            "fits": [(90, 3)],
            "warnings": [(1, 90, 3)],
        }

    def test_stacked_condition_numbers_are_those_of_each_design(self, monkeypatch):
        conds = []
        cond = np.linalg.cond

        def recording(a):
            conds.append(cond(a))
            return conds[-1]

        monkeypatch.setattr(np.linalg, "cond", recording)
        rng = np.random.default_rng(68)
        for _ in range(300):
            rows, n, k = rng.integers(1, 6), rng.integers(20, 601), rng.integers(2, 4)
            designs = rng.standard_normal((rows, n, k)) * 10.0 ** rng.uniform(-6, 12, (rows, 1, k))
            designs[::2, :, -1] = designs[::2, :, 0] * (1.0 + 1e-9 * rng.standard_normal(n))
            warnings = coint._collect_warnings(designs)
            for design, stacked, warned in zip(designs, conds.pop(), warnings):
                alone = cond(design / np.sqrt((design * design).sum(axis=0)))
                assert stacked.tobytes() == alone.tobytes()
                near_collinear = bool(alone > coint.COLLINEARITY_CONDITION_LIMIT)
                assert [w.code for w in warned] == [WARN_NEAR_COLLINEAR] * near_collinear

    def test_one_failing_cell_runs_every_cell_alone(self, monkeypatch):
        calls = []
        alone = coint.engle_granger_test

        def counting(a, b, eg):
            calls.append(eg)
            return alone(a, b, eg)

        monkeypatch.setattr(coint, "engle_granger_test", counting)
        x, y = _positive_pair(np.random.default_rng(67), 30)
        # 30 months leave 5 observations after 24 lags: only that cell fails.
        specs = default_grid() + [spec(lags=24)]
        grid = run_spec_grid(x, y, specs)
        assert calls == specs
        assert grid.cells_ok == 12
        assert grid.cells[-1].error.startswith("SeriesTooShort: ")
        _assert_cells_run_alone(grid, x, y, specs)

    def test_cells_that_raise_in_a_stack_record_their_own_error(self):
        rng = np.random.default_rng(65)
        x = 100.0 + np.cumsum(rng.standard_normal(120))
        huge = monthly_series(1e160 * x, name="huge")
        close = monthly_series(x + 1e-8 * rng.standard_normal(120), name="close")
        # Untransformed "second" rows overflow the design, so each stack fails as a whole.
        full = run_spec_grid(huge, close)
        # Here the stack and both reports succeed: the squares of the first
        # cell's y overflow, but R^2 is taken on y scaled by a power of two.
        one_stack = [spec(), spec(transform=LOGARITHMS, normalize=NORMALIZE_SECOND)]
        part = run_spec_grid(huge, close, one_stack)
        for grid, specs in ((full, default_grid()), (part, one_stack)):
            _assert_cells_run_alone(grid, huge, close, specs)
        assert [c.ok for c in part.cells] == [True, True]
        assert {c.error for c in full.cells if c.spec.normalize_on == NORMALIZE_SECOND} == {
            None,
            "NumericalError: design overflows: squared column norms exceed the float range",
        }

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(
            st.builds(
                EgSpec,
                st.sampled_from([LOGARITHMS, UNTRANSFORMED]),
                st.sampled_from([NORMALIZE_FIRST, NORMALIZE_SECOND]),
                st.one_of(st.sampled_from([0, 12]), st.integers(0, 24)),
                st.booleans(),
            ),
            min_size=1,
            max_size=14,
        ),
        n_a=st.integers(20, 120),
        n_b=st.integers(20, 120),
        shift=st.integers(-30, 30),
        levels=st.tuples(st.sampled_from([100.0, 0.0]), st.sampled_from([100.0, 0.0])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_grid_equals_its_cells_run_alone(self, specs, n_a, n_b, shift, levels, seed):
        # A level of 0 makes a walk cross zero, so its log cells fail; short
        # overlaps leave too few observations for the longer lags.
        rng = np.random.default_rng(seed)
        a = monthly_series(levels[0] + np.cumsum(rng.standard_normal(n_a)), name="a")
        start_b = (2000 + (shift + 12) // 12, (shift + 12) % 12 + 1)
        b = monthly_series(levels[1] + np.cumsum(rng.standard_normal(n_b)), start=start_b, name="b")
        _assert_cells_run_alone(run_spec_grid(a, b, specs), a, b, specs)

    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(
            st.builds(
                EgSpec,
                st.sampled_from([LOGARITHMS, UNTRANSFORMED]),
                st.sampled_from([NORMALIZE_FIRST, NORMALIZE_SECOND]),
                st.sampled_from([0, 1, 2, 3, 12, 24]),
                st.booleans(),
            ),
            min_size=1,
            max_size=14,
        ),
        n=st.integers(30, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_stages_equal_each_cell_run_alone(self, specs, n, seed):
        # Below 35 observations the 24-lag cells fail, and every cell reruns alone.
        x, y = _positive_pair(np.random.default_rng(seed), n)
        _assert_cells_run_alone(run_spec_grid(x, y, specs), x, y, specs)

    def test_empty_grid_rejected(self):
        rng = np.random.default_rng(60)
        a, b = random_walk_pair(rng, 100)
        with pytest.raises(UsageError):
            run_spec_grid(a, b, [])

    def test_independent_walks_rarely_reject_anywhere_on_grid(self):
        # Under the no-cointegration null the whole default grid should
        # almost always come back empty-handed at the 1% level.
        rng = np.random.default_rng(61)
        clean = 0
        reps = 500
        for _ in range(reps):
            a, b = random_walk_pair(rng, 120)
            grid = run_spec_grid(a, b)
            clean += grid.reject_counts[1] == 0
        assert clean / reps >= 0.95
