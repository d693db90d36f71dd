"""Acceptance suite: every gate below prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Each
test pins its tolerances inline; seeded experiments are deterministic, so
a green run here is reproducible bitwise.

The grid-replication gate needs the original two-series dataset, which is
not distributed with the package; point COINTKIT_REPLICATION_DATA at a
directory holding ``encounters.csv`` and ``openings.csv`` to enable it.
Absent that data the gate is skipped and the property-suite gate stands
in for it.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from statistics import NormalDist

import numpy as np
import pytest

import cointkit.montecarlo as mc
from cointkit.cli import main
from cointkit.cointegration import (
    LOGARITHMS,
    NORMALIZE_FIRST,
    NORMALIZE_SECOND,
    UNTRANSFORMED,
    WARN_DIFFERENCED,
    EgSpec,
    engle_granger_test,
)
from cointkit.critvals import LEVELS, SURFACES, DeterministicSpec, critical_value
from cointkit.regression import DesignMatrix, ols_fit
from cointkit.series import (
    TimeSeries,
    iterated_difference,
    log_transform,
    seasonal_difference,
)
from helpers import exact_ols, monthly_series, random_walk_pair

C = DeterministicSpec.constant_only()
CT = DeterministicSpec.constant_trend()
NONE = DeterministicSpec.none()


@contextmanager
def gate(name: str):
    detail = {}
    try:
        yield detail
    except pytest.skip.Exception as exc:
        print(f"acceptance {name}: SKIP ({exc})")
        raise
    except BaseException:
        print(f"acceptance {name}: FAIL {detail.get('note', '')}")
        raise
    else:
        print(f"acceptance {name}: PASS {detail.get('note', '')}")


def test_misuse_false_positive_rate():
    with gate("misuse-false-positive-rate") as detail:
        start = time.perf_counter()
        result = mc.run_false_positive_experiment(
            n=300, reps=1000, level=1, base_seed=20250801
        )
        elapsed = time.perf_counter() - start
        detail["note"] = (
            f"(rate@1% {result.rejection_rate[1]:.3f}, guard "
            f"{result.guard_warning_count}/1000, {elapsed:.1f}s)"
        )
        assert result.rejection_rate[1] >= 0.99
        assert result.guard_warning_count == 1000
        assert elapsed <= 30.0


def test_levels_test_nominal_size():
    with gate("levels-test-nominal-size") as detail:
        start = time.perf_counter()
        result = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 300),
            reps=1000,
            base_seed=20250802,
        )
        elapsed = time.perf_counter() - start
        detail["note"] = (
            f"(rate@1% {result.rejection_rate[1]:.3f}, "
            f"rate@5% {result.rejection_rate[5]:.3f}, {elapsed:.1f}s)"
        )
        assert 0.0 <= result.rejection_rate[1] <= 0.025
        assert 0.03 <= result.rejection_rate[5] <= 0.07
        assert elapsed <= 30.0


# Engle-Granger on levels of independent random walks: series length,
# augmentation lags, trend in stage one. MacKinnon's surfaces are fitted to
# the unaugmented statistic, so the 12-lag cells are expected to be undersized.
SIZE_CELLS = [(n, lags, trend) for n in (281, 91) for lags, trend in ((0, False), (12, False), (12, True))]


def test_finite_sample_size_by_lag_order():
    with gate("finite-sample-size") as detail:
        start = time.perf_counter()
        results = {
            (n, lags, trend): mc.run_size_experiment(
                mc.TestConfig(kind=mc.EG_LEVELS, lags=lags, trend=trend),
                mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, n),
                reps=5000,
                base_seed=11,
            )
            for n, lags, trend in SIZE_CELLS
        }
        elapsed = time.perf_counter() - start
        detail["note"] = "(" + "; ".join(
            f"n={n} lags={lags}{' trend' if trend else ''}: "
            + "/".join(f"{result.rejection_rate[level]:.3f}" for level in LEVELS)
            for (n, lags, trend), result in results.items()
        ) + f"; {elapsed:.1f}s)"
        for (n, lags, trend), result in results.items():
            for level in LEVELS:
                lo, hi = result.wilson_interval_95[level]
                if lags == 0:
                    assert lo <= level / 100 <= hi, (n, lags, trend, level)
                elif level in (5, 10):
                    assert hi < level / 100, (n, lags, trend, level)
        assert elapsed <= 30.0


# Reference statistics for the replication dataset, keyed by
# (transform, normalized_on, lags, trend); input = encounters,
# input2 = openings, so "first" normalizes on encounters.
REPLICATION_GRID_EXPECTED = {
    (LOGARITHMS, NORMALIZE_FIRST, 0, False): -3.153,
    (LOGARITHMS, NORMALIZE_FIRST, 12, False): -2.614,
    (LOGARITHMS, NORMALIZE_FIRST, 12, True): -2.968,
    (LOGARITHMS, NORMALIZE_SECOND, 0, False): -2.183,
    (LOGARITHMS, NORMALIZE_SECOND, 12, False): -1.922,
    (LOGARITHMS, NORMALIZE_SECOND, 12, True): -3.052,
    (UNTRANSFORMED, NORMALIZE_FIRST, 0, False): -4.061,
    (UNTRANSFORMED, NORMALIZE_FIRST, 12, False): -2.182,
    (UNTRANSFORMED, NORMALIZE_FIRST, 12, True): -2.860,
    (UNTRANSFORMED, NORMALIZE_SECOND, 0, False): -3.156,
    (UNTRANSFORMED, NORMALIZE_SECOND, 12, False): -1.851,
    (UNTRANSFORMED, NORMALIZE_SECOND, 12, True): -3.790,
}


def test_replication_grid():
    with gate("replication-grid") as detail:
        data_dir = os.environ.get("COINTKIT_REPLICATION_DATA")
        if not data_dir:
            pytest.skip(
                "replication dataset not available; property-suites gate applies instead"
            )
        from cointkit.cointegration import run_spec_grid
        from cointkit.ingest import ingest_csv

        start = time.perf_counter()
        encounters = ingest_csv(os.path.join(data_dir, "encounters.csv"))
        openings = ingest_csv(os.path.join(data_dir, "openings.csv"))
        grid = run_spec_grid(encounters, openings)
        elapsed = time.perf_counter() - start

        assert grid.cells_errored == 0
        for cell in grid.cells:
            spec = cell.spec
            key = (spec.transform, spec.normalize_on, spec.lags, spec.trend_in_stage_one)
            assert cell.report.statistic == pytest.approx(
                REPLICATION_GRID_EXPECTED[key], abs=0.01
            )
        assert grid.median_statistic == pytest.approx(-2.914, abs=0.005)
        rejecting = sum(
            1 for cell in grid.cells if cell.report.reject_at[5] or cell.report.reject_at[1]
        )
        assert rejecting == 1
        assert elapsed <= 5.0
        detail["note"] = f"(median {grid.median_statistic:.3f}, {elapsed:.1f}s)"


# Independent transcription of the published response-surface asymptotes
# (level order 1, 5, 10 percent).
PUBLISHED_ASYMPTOTES = {
    ("c", 1): (-3.43035, -2.86154, -2.56677),
    ("c", 2): (-3.89644, -3.33613, -3.04445),
    ("ct", 1): (-3.95877, -3.41049, -3.12705),
    ("ct", 2): (-4.32762, -3.78057, -3.49631),
    ("n", 1): (-2.56574, -1.94100, -1.61682),
}


def test_critical_value_anchors():
    with gate("critical-value-anchors") as detail:
        assert set(SURFACES) == set(PUBLISHED_ASYMPTOTES)
        for key, expected in PUBLISHED_ASYMPTOTES.items():
            for row, value in zip(SURFACES[key], expected, strict=True):
                assert row[0] == value

        monthly = critical_value(2, 281, 1, C)
        quarterly = critical_value(2, 91, 1, C)
        assert monthly == pytest.approx(-3.936, abs=0.01)
        assert quarterly == pytest.approx(-4.020, abs=0.01)
        detail["note"] = f"(monthly {monthly:.4f}, quarterly {quarterly:.4f})"


# The five surfaces cointkit reads, each at 0 lags on independent random
# walks: ADF on the first walk for k=1, Engle-Granger on levels for k=2.
SURFACE_TESTS = {
    "k=1 none": mc.TestConfig(kind=mc.ADF, det=NONE),
    "k=1 c": mc.TestConfig(kind=mc.ADF, det=C),
    "k=1 ct": mc.TestConfig(kind=mc.ADF, det=CT),
    "k=2 c": mc.TestConfig(kind=mc.EG_LEVELS),
    "k=2 ct": mc.TestConfig(kind=mc.EG_LEVELS, trend=True),
}
SURFACE_REPS = 20_000


def test_critical_value_size():
    # All 45 rates (5 surfaces x 3 sample sizes x 3 levels) are judged jointly:
    # each must lie within a Bonferroni normal bound of its nominal level, two
    # sided at family level 5%. Cells at the same n share draws, which
    # Bonferroni allows and a chi-square test would not.
    z_bound = NormalDist().inv_cdf(1 - 0.05 / 90)
    with gate("critical-value-size") as detail:
        start = time.perf_counter()
        scores = {}
        for n in (30, 91, 281):
            for name, test in SURFACE_TESTS.items():
                result = mc.run_size_experiment(
                    test,
                    mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, n),
                    reps=SURFACE_REPS,
                    base_seed=11,
                    workers=min(2, os.cpu_count() or 1),
                )
                for level in LEVELS:
                    p = level / 100
                    scores[name, n, level] = (result.rejection_rate[level] - p) / math.sqrt(
                        p * (1 - p) / SURFACE_REPS
                    )
        elapsed = time.perf_counter() - start
        worst = max(scores, key=lambda cell: abs(scores[cell]))
        detail["note"] = (
            f"(largest |z| {abs(scores[worst]):.2f} at {worst}, bound {z_bound:.2f}, "
            f"{elapsed:.1f}s)"
        )
        assert all(abs(score) <= z_bound for score in scores.values()), scores
        assert elapsed <= 30.0


def test_operator_distinction():
    with gate("operator-distinction") as detail:
        ramp = monthly_series(np.arange(1.0, 25.0))
        yearly = seasonal_difference(ramp, 12)
        twelfth = iterated_difference(ramp, 12)
        assert np.array_equal(yearly.values, np.full(12, 12.0))
        assert np.array_equal(twelfth.values, np.zeros(12))

        rng = np.random.default_rng(20250803)
        ints = monthly_series(rng.integers(-1000, 1000, size=48).astype(float))
        diffed = seasonal_difference(ints, 12)
        rebuilt = list(ints.values[:12])
        for t, dv in enumerate(diffed.values):
            rebuilt.append(dv + rebuilt[t])
        assert np.array_equal(np.asarray(rebuilt), ints.values)
        detail["note"] = "(seasonal constant 12, iterated zero, inversion exact)"


def test_spurious_regression_rate():
    with gate("spurious-regression-rate") as detail:
        start = time.perf_counter()
        result = mc.run_spurious_regression_experiment(
            n=500, reps=1000, base_seed=20250804
        )
        elapsed = time.perf_counter() - start
        detail["note"] = f"(rate {result.exceed_rate:.3f}, {elapsed:.1f}s)"
        assert result.exceed_rate > 0.60
        assert elapsed <= 60.0


def test_ect_pathology():
    with gate("ect-pathology") as detail:
        unit_root = mc.run_ect_unit_root_experiment(n=500, reps=500, base_seed=20250805)
        fail_to_reject = 1.0 - unit_root.rejection_rate[5]
        assert fail_to_reject >= 0.90

        recovery = mc.run_ect_recovery_experiment(
            n=500, reps=500, base_seed=20250806, adjust=0.3
        )
        assert recovery.joint_rate >= 0.90
        detail["note"] = (
            f"(non-rejection {fail_to_reject:.3f}, recovery {recovery.joint_rate:.3f}, "
            f"median coef {recovery.median_coefficient:.3f})"
        )


class TestPropertySuites:
    def test_ols_oracle_equivalence(self):
        with gate("property-ols-oracle") as detail:
            rng = np.random.default_rng(20250807)
            worst = 0.0
            for _ in range(1000):
                n = int(rng.integers(4, 9))
                k = int(rng.integers(1, 4))
                if k >= n:
                    k = n - 1
                data = rng.standard_normal((n, k))
                data[:, 0] = 1.0
                y = rng.standard_normal(n)
                X = DesignMatrix(tuple(f"c{j}" for j in range(k)), data)
                fit = ols_fit(y, X)

                beta, _ = exact_ols(y, data.tolist())
                got = np.array([fit.coefficients[f"c{j}"] for j in range(k)])
                err = float(np.max(np.abs(got - np.array(beta)) / (1.0 + np.abs(beta))))
                worst = max(worst, err)
                assert err <= 1e-9

                dots = X.data.T @ fit.residuals
                scale = (
                    np.linalg.norm(X.data, axis=0) * np.linalg.norm(fit.residuals) + 1e-30
                )
                assert np.all(np.abs(dots) <= 1e-8 * scale)
            detail["note"] = f"(1000 instances, worst relative error {worst:.2e})"

    def test_eg_scale_invariance(self):
        with gate("property-eg-scale-invariance") as detail:
            rng = np.random.default_rng(20250808)
            a, b = random_walk_pair(rng, 300)
            spec = EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, 2, False)
            base = engle_granger_test(a, b, spec).statistic
            worst = 0.0
            for ca, cb in ((7.0, 1.0), (1.0, 0.001), (3000.0, 0.5), (0.02, 40.0)):
                stat = engle_granger_test(
                    monthly_series(ca * a.values),
                    monthly_series(cb * b.values),
                    spec,
                ).statistic
                worst = max(worst, abs(stat - base))
                assert abs(stat - base) <= 1e-10
            detail["note"] = f"(max deviation {worst:.2e})"

    def test_guard_has_no_false_negatives(self):
        with gate("property-guard-completeness") as detail:
            rng = np.random.default_rng(20250809)
            spec = EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, 0, False)
            checked = 0
            for _ in range(1000):
                raw_a, raw_b = random_walk_pair(rng, 60)
                pair = [
                    monthly_series(raw_a.values + 500.0, name="a"),
                    monthly_series(raw_b.values + 500.0, name="b"),
                ]
                differenced = False
                for i in range(2):
                    cur = pair[i]
                    for _ in range(int(rng.integers(0, 3))):
                        op = int(rng.integers(0, 3))
                        if op == 0 and (cur.values > 0).all():
                            cur = log_transform(cur)
                        elif op == 1:
                            cur = iterated_difference(cur, 1)
                            differenced = True
                        elif op == 2:
                            cur = seasonal_difference(cur, int(rng.integers(1, 5)))
                            differenced = True
                    pair[i] = cur
                report = engle_granger_test(pair[0], pair[1], spec)
                fired = WARN_DIFFERENCED in [w.code for w in report.warnings]
                if differenced:
                    checked += 1
                    assert fired
            detail["note"] = f"({checked} differenced chains, zero false negatives)"

    def test_seeded_commands_are_bitwise_reproducible(self, tmp_path):
        with gate("property-bitwise-reproducibility") as detail:
            falsepos = [
                "mc-falsepos", "--n", "300", "--reps", "1000", "--level", "1",
                "--seed", "42", "--format", "both",
            ]
            size = [
                "mc-size", "--test", "eg-levels", "--n", "150", "--reps", "300",
                "--seed", "7", "--format", "both",
            ]
            for label, args in (("falsepos", falsepos), ("size", size)):
                out1 = tmp_path / f"{label}_1"
                out2 = tmp_path / f"{label}_2"
                assert main(args + ["--output", str(out1)]) == 0
                assert main(args + ["--output", str(out2)]) == 0
                for ext in (".json", ".csv"):
                    b1 = (tmp_path / f"{label}_1{ext}").read_bytes()
                    b2 = (tmp_path / f"{label}_2{ext}").read_bytes()
                    assert b1 == b2
            doc = json.loads((tmp_path / "falsepos_1.json").read_text())
            assert doc["rejection_rate"]["1"] >= 0.99
            detail["note"] = "(mc-falsepos and mc-size byte-identical across runs)"
