import os
from dataclasses import replace

import numpy as np
import pytest

import cointkit.montecarlo as mc
from cointkit.cli import main
from cointkit.cointegration import (
    NORMALIZE_FIRST,
    UNTRANSFORMED,
    EgSpec,
    _eg_regressions,
    engle_granger_test,
)
from cointkit.critvals import DeterministicSpec
from cointkit.ecm import EcmSpec
from cointkit.errors import DataError, MissingGuardWarning, RankDeficient, UsageError
from cointkit.series import iterated_difference
from cointkit.unitroot import _adf, adf_test


class TestDgp:
    def test_validation(self):
        with pytest.raises(UsageError):
            mc.DgpSpec("brownian", 100)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 10)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 100, adjust=0.0)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 100, adjust=1.5)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, innovation_sd=-1.0)
        with pytest.raises(UsageError):
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, seed=2**64)

    def test_same_seed_is_bitwise_identical(self):
        for kind in (mc.INDEPENDENT_RANDOM_WALKS, mc.COINTEGRATED_PAIR, mc.WHITE_NOISE_PAIR):
            a1, b1 = mc.generate(mc.DgpSpec(kind, 100, seed=99))
            a2, b2 = mc.generate(mc.DgpSpec(kind, 100, seed=99))
            assert np.array_equal(a1.values, a2.values)
            assert np.array_equal(b1.values, b2.values)

    def test_different_seeds_differ(self):
        a1, _ = mc.generate(mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, seed=1))
        a2, _ = mc.generate(mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 100, seed=2))
        assert not np.array_equal(a1.values, a2.values)

    def test_zero_innovation_limit_is_identically_zero(self):
        for kind in (mc.INDEPENDENT_RANDOM_WALKS, mc.COINTEGRATED_PAIR, mc.WHITE_NOISE_PAIR):
            a, b = mc.generate(mc.DgpSpec(kind, 60, innovation_sd=0.0, seed=3))
            assert np.array_equal(a.values, np.zeros(60))
            assert np.array_equal(b.values, np.zeros(60))

    def test_requested_length_and_raw_lineage(self):
        a, b = mc.generate(mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 123, seed=4))
        assert len(a) == len(b) == 123
        assert a.lineage == () and b.lineage == ()

    def test_cointegrated_equilibrium_error_is_mean_zero(self):
        # beta*x - y is a stationary AR(1) with coefficient 1-adjust; for
        # beta=2, adjust=0.5, unit innovations its variance is 5/(1-0.25)
        # and the standard error of its mean over n=1000 is about 0.14.
        x, y = mc.generate(mc.DgpSpec(mc.COINTEGRATED_PAIR, 1000, seed=5, beta=2.0, adjust=0.5))
        z = 2.0 * x.values - y.values
        assert abs(z.mean()) <= 3 * 0.142


class TestSeeds:
    def test_replication_seed_is_pure(self):
        assert mc.replication_seed(42, 7) == mc.replication_seed(42, 7)

    def test_replication_seed_varies(self):
        seeds = {mc.replication_seed(42, r) for r in range(200)}
        assert len(seeds) == 200
        assert mc.replication_seed(42, 0) != mc.replication_seed(43, 0)


class TestWilson:
    def test_brackets_point_rate(self):
        for k, n in ((0, 100), (3, 100), (50, 100), (100, 100), (999, 1000)):
            lo, hi = mc.wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_width_shrinks_with_replications(self):
        lo1, hi1 = mc.wilson_interval(10, 100)
        lo2, hi2 = mc.wilson_interval(1000, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)


class TestFalsePositiveExperiment:
    def test_small_sample_rate_still_extreme(self):
        result = mc.run_false_positive_experiment(n=50, reps=100, level=1, base_seed=7)
        assert result.rejection_rate[1] >= 0.95
        assert result.guard_warning_count == 100

    def test_rejects_too_few_replications(self):
        with pytest.raises(UsageError):
            mc.run_false_positive_experiment(n=50, reps=50, level=1, base_seed=7)

    def test_rejects_unknown_level(self):
        with pytest.raises(UsageError):
            mc.run_false_positive_experiment(n=50, reps=100, level=2, base_seed=7)

    def test_missing_guard_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(mc, "differencing_warning", lambda a, b: None)
        with pytest.raises(MissingGuardWarning) as caught:
            mc.run_false_positive_experiment(n=50, reps=100, level=1, base_seed=7)
        assert caught.value.replication == 0


class TestSizeExperiment:
    def test_levels_test_near_nominal_size(self):
        result = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 200),
            reps=200,
            base_seed=11,
        )
        assert 0.0 <= result.rejection_rate[5] <= 0.12
        lo, hi = result.wilson_interval_95[5]
        assert lo <= result.rejection_rate[5] <= hi

    def test_power_against_cointegrated_alternative(self):
        result = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.COINTEGRATED_PAIR, 300, adjust=0.3),
            reps=150,
            base_seed=12,
        )
        assert result.rejection_rate[5] >= 0.9

    def test_adf_power_on_white_noise(self):
        result = mc.run_size_experiment(
            mc.TestConfig(kind=mc.ADF, det=DeterministicSpec.constant_only()),
            mc.DgpSpec(mc.WHITE_NOISE_PAIR, 300),
            reps=200,
            base_seed=13,
        )
        assert result.rejection_rate[5] >= 0.99

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # Every runner, at 101 replications: a partial last block, and pool
        # chunks of unequal size. Two workers are allowed on any host.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        runners = {
            "size": lambda w: mc.run_size_experiment(
                mc.TestConfig(kind=mc.EG_LEVELS, lags=1),
                mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60),
                reps=101,
                base_seed=14,
                workers=w,
            ),
            "false_positive": lambda w: mc.run_false_positive_experiment(
                n=50, reps=101, base_seed=14, workers=w
            ),
            "spurious": lambda w: mc.run_spurious_regression_experiment(
                n=60, reps=101, base_seed=14, workers=w
            ),
            "ect_unit_root": lambda w: mc.run_ect_unit_root_experiment(
                n=60, reps=101, base_seed=14, workers=w
            ),
            "ect_recovery": lambda w: mc.run_ect_recovery_experiment(
                n=60, reps=101, base_seed=14, workers=w
            ),
        }
        for name, run in runners.items():
            assert run(1).to_json_dict() == run(2).to_json_dict(), name

    def test_rates_stable_across_base_seeds(self):
        results = [
            mc.run_size_experiment(
                mc.TestConfig(kind=mc.EG_LEVELS),
                mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 150),
                reps=400,
                base_seed=seed,
            )
            for seed in (110, 111, 112, 113, 114)
        ]
        for r1 in results:
            for r2 in results:
                lo, hi = r2.wilson_interval_95[5]
                assert lo <= r1.rejection_rate[5] <= hi


class TestDigest:
    def test_digest_changes_with_any_field(self):
        base = dict(
            test=mc.TestConfig(kind=mc.EG_LEVELS),
            dgp=mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60),
            reps=100,
            base_seed=1,
        )
        reference = mc.run_size_experiment(**base)
        variants = [
            dict(base, test=mc.TestConfig(kind=mc.EG_LEVELS, lags=1)),
            dict(base, dgp=mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 61)),
            dict(base, reps=101),
            dict(base, base_seed=2),
        ]
        for kwargs in variants:
            assert mc.run_size_experiment(**kwargs).config_digest != reference.config_digest

    def test_digest_stable_for_identical_config(self):
        kwargs = dict(
            test=mc.TestConfig(kind=mc.ADF),
            dgp=mc.DgpSpec(mc.WHITE_NOISE_PAIR, 60),
            reps=100,
            base_seed=3,
        )
        assert (
            mc.run_size_experiment(**kwargs).config_digest
            == mc.run_size_experiment(**kwargs).config_digest
        )

    def test_template_seed_is_not_part_of_config(self):
        a = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60, seed=1),
            reps=100,
            base_seed=4,
        )
        b = mc.run_size_experiment(
            mc.TestConfig(kind=mc.EG_LEVELS),
            mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60, seed=999),
            reps=100,
            base_seed=4,
        )
        assert a.config_digest == b.config_digest
        assert a.rejections == b.rejections


class TestSpuriousRegression:
    def test_rate_well_above_nominal(self):
        result = mc.run_spurious_regression_experiment(n=500, reps=200, base_seed=21)
        assert result.exceed_rate > 0.6
        lo, hi = result.wilson_interval_95
        assert lo <= result.exceed_rate <= hi


class TestEctExperiments:
    def test_ect_unit_root_rarely_rejects_under_null(self):
        result = mc.run_ect_unit_root_experiment(n=300, reps=150, base_seed=22)
        assert result.rejection_rate[5] <= 0.12

    def test_ect_recovery_under_cointegration(self):
        result = mc.run_ect_recovery_experiment(n=400, reps=120, base_seed=23, adjust=0.3)
        assert result.joint_rate >= 0.9
        assert -0.45 < result.median_coefficient < -0.15
        assert result.median_t_stat < -3

    def test_recovery_respects_custom_spec(self):
        result = mc.run_ect_recovery_experiment(
            n=400,
            reps=100,
            base_seed=24,
            adjust=0.3,
            ecm_spec=EcmSpec(seasonal_gap=12),
        )
        # Year-over-year differencing with one-period controls makes the
        # term redundant: recovery collapses.
        assert result.joint_rate <= 0.1


class TestResultShapes:
    def test_experiment_result_json_and_csv(self):
        result = mc.run_false_positive_experiment(n=50, reps=100, level=1, base_seed=31)
        doc = result.to_json_dict()
        assert doc["type"] == "experiment_result"
        assert doc["config"]["prng"] == mc.PRNG_ID
        assert doc["guard_warning_count"] == 100
        assert set(doc["rejection_rate"]) == {"1", "5", "10"}
        rows = result.to_csv_rows()
        assert rows[0] == ["level", "rate", "wilson_lo", "wilson_hi"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["1", "5", "10"]


def _two_cpus_and_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", refuse)


class TestWorkerBound:
    @pytest.mark.parametrize("workers", [0, 3])
    def test_out_of_range_rejected_before_any_process(self, monkeypatch, workers):
        _two_cpus_and_no_pool(monkeypatch)
        with pytest.raises(UsageError, match="workers must be in 1..2"):
            mc.run_false_positive_experiment(n=50, reps=100, workers=workers)

    @pytest.mark.parametrize("workers", ["0", "3"])
    def test_cli_reports_usage_error(self, monkeypatch, capsys, workers):
        _two_cpus_and_no_pool(monkeypatch)
        code = main(["mc-size", "--n", "50", "--reps", "100", "--workers", workers])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cointkit-error: ")
        assert '"UsageError"' in err


def _pairs(test, dgp, base_seed, reps):
    pairs = [mc.generate(replace(dgp, seed=mc.replication_seed(base_seed, r))) for r in range(reps)]
    if test.kind == mc.EG_DIFFERENCES:
        pairs = [(iterated_difference(a, 1), iterated_difference(b, 1)) for a, b in pairs]
    return pairs


class TestStackedEqualsScalar:
    """The block path must reproduce the one-replication path bit for bit."""

    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("kind", [mc.EG_LEVELS, mc.EG_DIFFERENCES, mc.ADF])
    @pytest.mark.parametrize(
        "dgp_kind", [mc.INDEPENDENT_RANDOM_WALKS, mc.COINTEGRATED_PAIR, mc.WHITE_NOISE_PAIR]
    )
    def test_statistics_and_outcomes(self, dgp_kind, kind, deterministic):
        det = (
            DeterministicSpec.constant_trend() if deterministic else DeterministicSpec.constant_only()
        )
        test = mc.TestConfig(kind=kind, lags=2, trend=deterministic, det=det)
        dgp = mc.DgpSpec(dgp_kind, 80)
        pairs = _pairs(test, dgp, 5, 40)

        if kind == mc.ADF:
            scalar = [adf_test(a, test.lags, det).statistic for a, _ in pairs]

            def stacked(rows):
                solution, _ = _adf(np.stack([a.values for a, _ in rows]), test.lags, det)
                return solution.t_stats[:, 0]

        else:
            spec = EgSpec(UNTRANSFORMED, NORMALIZE_FIRST, test.lags, deterministic)
            scalar = [engle_granger_test(a, b, spec).statistic for a, b in pairs]

            def stacked(rows):
                first = np.stack([a.values for a, _ in rows])
                second = np.stack([b.values for _, b in rows])
                return _eg_regressions(first, second, spec)[1].t_stats[:, 0]

        for size in (40, 17, 1):
            pieces = [stacked(pairs[i : i + size]) for i in range(0, len(pairs), size)]
            assert np.concatenate(pieces).tolist() == scalar

        cvs = mc._size_critical_values(test, dgp)
        blocked = mc._run_replications("size", (test, dgp, cvs), 5, 100, 1)
        assert blocked == [mc._size_outcome(test, dgp, 5, r) for r in range(100)]

    def test_failing_block_raises_the_scalar_error(self, monkeypatch):
        # In the second block, replication 33 is rank deficient in stage one
        # and generating replication 35 fails; one at a time, 33 fails first.
        real = mc.generate
        zero_seed = mc.replication_seed(9, 33)
        bad_seed = mc.replication_seed(9, 35)

        def generate(dgp):
            if dgp.seed == bad_seed:
                raise DataError("replication 35 cannot be drawn")
            if dgp.seed == zero_seed:
                return real(replace(dgp, innovation_sd=0.0))
            return real(dgp)

        monkeypatch.setattr(mc, "generate", generate)
        test = mc.TestConfig(kind=mc.EG_LEVELS)
        dgp = mc.DgpSpec(mc.INDEPENDENT_RANDOM_WALKS, 60)
        with pytest.raises(RankDeficient) as scalar:
            for r in range(100):
                mc._size_outcome(test, dgp, 9, r)
        with pytest.raises(RankDeficient) as blocked:
            mc.run_size_experiment(test, dgp, reps=100, base_seed=9)
        assert str(blocked.value) == str(scalar.value)
