import numpy as np
import pytest

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
from cointkit.errors import (
    DataError,
    DegenerateInput,
    FrequencyMismatch,
    NoOverlap,
    SeriesTooShort,
    UsageError,
)
from cointkit.series import (
    QUARTERLY,
    TimeSeries,
    iterated_difference,
    seasonal_difference,
)
from helpers import monthly_series, random_walk_pair


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
        def broken(a, b, spec):
            raise RuntimeError("a bug, not a data problem")

        monkeypatch.setattr(coint, "engle_granger_test", broken)
        a, b = random_walk_pair(np.random.default_rng(62), 100)
        with pytest.raises(RuntimeError):
            run_spec_grid(a, b, [spec()])

    def test_typed_errors_become_error_cells(self, monkeypatch):
        def bad_data(a, b, spec):
            raise DataError("cell cannot be computed")

        monkeypatch.setattr(coint, "engle_granger_test", bad_data)
        a, b = random_walk_pair(np.random.default_rng(63), 100)
        grid = run_spec_grid(a, b, [spec()])
        assert grid.cells_errored == 1
        assert grid.to_csv_rows()[1][9] == "error:DataError: cell cannot be computed"

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
