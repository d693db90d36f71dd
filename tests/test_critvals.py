import pytest

from cointkit.critvals import (
    LEVELS,
    SURFACES,
    DeterministicSpec,
    critical_value,
    critical_values_map,
)
from cointkit.errors import UnsupportedCombination, UsageError

C = DeterministicSpec.constant_only()
CT = DeterministicSpec.constant_trend()
N = DeterministicSpec.none()

# Published asymptotic values for the surfaces we encode most often.
ASYMPTOTIC_SPOT_CHECKS = {
    ("c", 1): (-3.43035, -2.86154, -2.56677),
    ("c", 2): (-3.89644, -3.33613, -3.04445),
    ("ct", 1): (-3.95877, -3.41049, -3.12705),
    ("ct", 2): (-4.32762, -3.78057, -3.49631),
    ("n", 1): (-2.56574, -1.94100, -1.61682),
}


class TestAsymptotics:
    def test_encoded_asymptotic_values_are_exact(self):
        assert set(SURFACES) == set(ASYMPTOTIC_SPOT_CHECKS)
        for key, expected in ASYMPTOTIC_SPOT_CHECKS.items():
            for row, value in zip(SURFACES[key], expected, strict=True):
                assert row[0] == value

    def test_large_sample_value_approaches_asymptote(self):
        big = critical_value(1, 10_000_000, 5, C)
        assert big == pytest.approx(SURFACES[("c", 1)][LEVELS.index(5)][0], abs=1e-5)

    def test_one_variable_constant_band(self):
        # Large-sample 5% value for the demeaned single-series case.
        assert -2.93 <= critical_value(1, 100_000, 5, C) <= -2.79


class TestFiniteSample:
    def test_two_variable_one_percent_at_monthly_macro_sample(self):
        # Effective samples typical of a two-decade monthly macro overlap.
        assert critical_value(2, 281, 1, C) == pytest.approx(-3.936, abs=0.01)
        for n in range(260, 301):
            assert critical_value(2, n, 1, C) == pytest.approx(-3.936, abs=0.01)

    def test_two_variable_one_percent_at_quarterly_macro_sample(self):
        assert critical_value(2, 91, 1, C) == pytest.approx(-4.020, abs=0.01)
        for n in range(87, 97):
            assert critical_value(2, n, 1, C) == pytest.approx(-4.020, abs=0.01)

    def test_quantile_ordering(self):
        for det in (C, CT):
            for k in range(1, 3):
                for n in (20, 50, 100, 1000):
                    cv1, cv5, cv10 = (critical_value(k, n, l, det) for l in LEVELS)
                    assert cv1 < cv5 < cv10

    def test_monotone_in_number_of_variables(self):
        for det in (C, CT):
            for level in LEVELS:
                for n in (20, 50, 100, 1000, 100000):
                    values = [critical_value(k, n, level, det) for k in range(1, 3)]
                    assert all(a > b for a, b in zip(values, values[1:]))

    def test_values_are_finite_across_domain(self):
        import math

        for det in (C, CT):
            for k in range(1, 3):
                for level in LEVELS:
                    for n in (20, 25, 400, 10**6):
                        assert math.isfinite(critical_value(k, n, level, det))


class TestValidation:
    def test_rejects_out_of_range_k(self):
        for k in (0, 3, 7):
            with pytest.raises(UnsupportedCombination):
                critical_value(k, 100, 5, C)

    def test_rejects_small_sample(self):
        with pytest.raises(UnsupportedCombination):
            critical_value(1, 19, 5, C)

    def test_rejects_unknown_level(self):
        with pytest.raises(UnsupportedCombination):
            critical_value(1, 100, 2, C)

    def test_no_deterministics_only_tabulated_for_one_variable(self):
        assert critical_value(1, 100, 5, N) < 0
        with pytest.raises(UnsupportedCombination):
            critical_value(2, 100, 5, N)

    def test_trend_requires_constant(self):
        with pytest.raises(UsageError):
            DeterministicSpec(constant=False, trend=True)

    def test_labels_round_trip(self):
        for det in (C, CT, N):
            assert DeterministicSpec.from_label(det.label()) == det

    @pytest.mark.parametrize("label", [[1], {}, None, 3, b"constant"])
    def test_a_non_label_is_a_usage_error(self, label):
        with pytest.raises(UsageError, match="^unknown deterministic spec "):
            DeterministicSpec.from_label(label)

    def test_map_covers_all_levels(self):
        cvs = critical_values_map(2, 200, C)
        assert set(cvs) == set(LEVELS)
