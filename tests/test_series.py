import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cointkit.errors import (
    DataError,
    FrequencyMismatch,
    NonPositiveValue,
    NoOverlap,
    SeriesTooShort,
    UsageError,
)
from cointkit.regression import _difference
from cointkit.series import (
    MONTHLY,
    QUARTERLY,
    TimeSeries,
    align,
    has_differencing,
    iterated_difference,
    lineage_summary,
    log_transform,
    seasonal_difference,
)
from helpers import monthly_series


class TestLogTransform:
    def test_constant_ones_map_to_zeros(self):
        out = log_transform(monthly_series([1.0, 1.0, 1.0]))
        assert np.array_equal(out.values, [0.0, 0.0, 0.0])

    def test_powers_of_e(self):
        out = log_transform(monthly_series([math.e, math.e**2, math.e**3]))
        assert np.allclose(out.values, [1.0, 2.0, 3.0], rtol=0, atol=1e-12)

    def test_against_arbitrary_precision_oracle(self):
        getcontext().prec = 40
        expected = [float(Decimal(2).ln()), float(Decimal(4).ln())]
        out = log_transform(monthly_series([2.0, 4.0]))
        assert np.allclose(out.values, expected, rtol=1e-12, atol=0)

    def test_rejects_nonpositive_with_index(self):
        with pytest.raises(NonPositiveValue) as exc:
            log_transform(monthly_series([1.0, 0.0, 2.0]))
        assert exc.value.index == 1

    def test_preserves_length_and_dates(self):
        x = monthly_series([1.0, 2.0, 3.0], start=(2011, 5))
        out = log_transform(x)
        assert len(out) == len(x)
        assert out.start == x.start


class TestSeasonalDifference:
    def test_constant_series_vanishes(self):
        out = seasonal_difference(monthly_series([7.0] * 15), 12)
        assert np.array_equal(out.values, np.zeros(3))

    def test_linear_ramp_gives_constant_gap(self):
        x = monthly_series(np.arange(1.0, 15.0))
        out = seasonal_difference(x, 12)
        assert np.array_equal(out.values, [12.0, 12.0])

    def test_hand_subtraction(self):
        out = seasonal_difference(monthly_series([5.0, 1.0, 4.0, 7.0]), 1)
        assert np.array_equal(out.values, [-4.0, 3.0, 3.0])

    def test_length_and_start_shift(self):
        x = monthly_series(np.arange(20.0), start=(2000, 1))
        out = seasonal_difference(x, 12)
        assert len(out) + 12 == len(x)
        assert out.start_label == "2001-01"

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            seasonal_difference(monthly_series(np.ones(12)), 12)

    def test_bad_gap(self):
        with pytest.raises(UsageError):
            seasonal_difference(monthly_series(np.ones(5)), 0)

    def test_round_trip_integer_values_bitwise(self):
        rng = np.random.default_rng(5)
        x = monthly_series(rng.integers(-50, 50, size=40).astype(float))
        gap = 12
        d = seasonal_difference(x, gap)
        rebuilt = np.array(x.values[:gap])
        for t, dv in enumerate(d.values):
            rebuilt = np.append(rebuilt, dv + rebuilt[t])
        assert np.array_equal(rebuilt, x.values)

    def test_round_trip_float_values(self):
        rng = np.random.default_rng(6)
        x = monthly_series(rng.standard_normal(40) * 3.7)
        gap = 7
        d = seasonal_difference(x, gap)
        rebuilt = list(x.values[:gap])
        for t, dv in enumerate(d.values):
            rebuilt.append(dv + rebuilt[t])
        assert np.allclose(rebuilt, x.values, rtol=1e-12, atol=0)


class TestIteratedDifference:
    def test_annihilates_linear_trend(self):
        x = monthly_series(np.arange(1.0, 21.0))
        for order in (2, 3, 5):
            out = iterated_difference(x, order)
            assert np.array_equal(out.values, np.zeros(20 - order))

    def test_triangular_numbers(self):
        out = iterated_difference(monthly_series([1.0, 3.0, 6.0, 10.0]), 1)
        assert np.array_equal(out.values, [2.0, 3.0, 4.0])

    def test_disagrees_with_seasonal_on_ramp(self):
        x = monthly_series(np.arange(1.0, 21.0))
        twelfth = iterated_difference(x, 12)
        yearly = seasonal_difference(x, 12)
        assert np.array_equal(twelfth.values, np.zeros(8))
        assert np.array_equal(yearly.values, np.full(8, 12.0))

    def test_composition_equals_repeated_first_difference(self):
        rng = np.random.default_rng(7)
        x = monthly_series(rng.standard_normal(30))
        for order in (1, 2, 4):
            direct = iterated_difference(x, order)
            stepwise = x
            for _ in range(order):
                stepwise = iterated_difference(stepwise, 1)
            assert np.array_equal(direct.values, stepwise.values)
            assert direct.start == stepwise.start

    def test_matches_seasonal_at_span_one(self):
        rng = np.random.default_rng(8)
        x = monthly_series(rng.standard_normal(25))
        assert np.array_equal(
            iterated_difference(x, 1).values, seasonal_difference(x, 1).values
        )

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            iterated_difference(monthly_series([1.0, 2.0]), 2)


@pytest.mark.parametrize(
    "transform",
    [
        lambda x: iterated_difference(x, 1),
        lambda x: iterated_difference(x, 2),
        lambda x: seasonal_difference(x, 1),
    ],
    ids=["iterated-1", "iterated-2", "seasonal-1"],
)
def test_difference_that_overflows_is_a_data_error(transform):
    # Finite levels whose differences overflow: TimeSeries reports the first
    # non-finite value, and numpy warns of nothing.
    x = monthly_series(np.where(np.arange(120) % 2 == 0, 1.5e308, -1.5e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^non-finite value at position 0$"):
            transform(x)


def _first_non_finite(values: np.ndarray) -> str:
    return f"^non-finite value at position {np.argwhere(~np.isfinite(values))[0][-1]}$"


# Finite values up to +-1e308, where a difference of two may overflow.
_big_finite = st.one_of(st.floats(-1e308, 1e308), st.sampled_from([1e308, -1e308, 6e307, -6e307]))


@settings(max_examples=300, deadline=None)
@given(
    stack=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 30)), elements=_big_finite),
    gap=st.integers(1, 13),
    order=st.integers(1, 3),
)
def test_differencing_kernel_is_numpys_subtraction_or_names_its_first_non_finite_value(stack, gap, order):
    """``_difference`` on the stack and both transforms on each row give numpy's own
    result bitwise, or raise at its first non-finite value, and numpy warns of nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        seasonal = stack[:, gap:] - stack[:, :-gap]
        iterated = np.diff(stack, n=order)
    cases = [
        (seasonal, (gap, 1), lambda x: seasonal_difference(x, gap)),
        (iterated, (1, order), lambda x: iterated_difference(x, order)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for expected, (span, passes), transform in cases:
            n = stack.shape[1]
            if n <= span * passes:
                message = f"^need more than {span * passes} observations, have {n}$"
                with pytest.raises(SeriesTooShort, match=message):
                    _difference(stack, span, passes)
                with pytest.raises(SeriesTooShort, match=message):
                    transform(monthly_series(stack[0]))
                continue
            if np.isfinite(expected).all():
                assert _difference(stack, span, passes).tobytes() == expected.tobytes()
            else:
                with pytest.raises(DataError, match=_first_non_finite(expected)):
                    _difference(stack, span, passes)
            for row, want in zip(stack, expected):
                if np.isfinite(want).all():
                    assert transform(monthly_series(row)).values.tobytes() == want.tobytes()
                else:
                    with pytest.raises(DataError, match=_first_non_finite(want)):
                        transform(monthly_series(row))


class TestLineage:
    def test_raw_series_has_empty_lineage(self):
        assert monthly_series([1.0, 2.0]).lineage == ()

    def test_each_transform_appends_one_tag(self):
        x = monthly_series(np.linspace(1.0, 9.0, 30))
        out = seasonal_difference(iterated_difference(log_transform(x), 1), 12)
        kinds = [tag.kind for tag in out.lineage]
        assert kinds == ["log", "iterated_diff", "seasonal_diff"]
        assert [tag.applied_at for tag in out.lineage] == [1, 2, 3]
        assert out.lineage[2].param == 12

    def test_differencing_detection(self):
        x = monthly_series(np.linspace(1.0, 9.0, 30))
        assert not has_differencing(x)
        assert not has_differencing(log_transform(x))
        assert has_differencing(iterated_difference(x, 1))
        assert has_differencing(seasonal_difference(log_transform(x), 12))

    def test_lineage_summary(self):
        x = monthly_series(np.linspace(1.0, 9.0, 30))
        assert lineage_summary(x) == "raw"
        out = seasonal_difference(log_transform(x), 12)
        assert lineage_summary(out) == "log -> seasonal_diff(gap=12)"


class TestAlign:
    def test_identical_ranges_unchanged(self):
        a = monthly_series([1.0, 2.0, 3.0])
        b = monthly_series([4.0, 5.0, 6.0])
        a2, b2 = align(a, b)
        assert a2 == a and b2 == b

    def test_interval_intersection(self):
        a = TimeSeries((2000, 1), MONTHLY, np.arange(12.0))
        b = TimeSeries((2000, 7), MONTHLY, np.arange(100.0, 112.0))
        a2, b2 = align(a, b)
        assert len(a2) == len(b2) == 6
        assert a2.start_label == b2.start_label == "2000-07"
        assert a2.end_label == "2000-12"
        assert np.array_equal(a2.values, np.arange(6.0, 12.0))
        assert np.array_equal(b2.values, np.arange(100.0, 106.0))

    def test_disjoint_ranges(self):
        a = TimeSeries((2000, 1), MONTHLY, np.arange(5.0))
        b = TimeSeries((2001, 1), MONTHLY, np.arange(5.0))
        with pytest.raises(NoOverlap):
            align(a, b)

    def test_frequency_mismatch(self):
        a = TimeSeries((2000, 1), MONTHLY, np.arange(5.0))
        b = TimeSeries((2000, 1), QUARTERLY, np.arange(5.0))
        with pytest.raises(FrequencyMismatch):
            align(a, b)

    def test_quarterly_alignment(self):
        a = TimeSeries((2000, 1), QUARTERLY, np.arange(8.0))
        b = TimeSeries((2001, 4), QUARTERLY, np.arange(8.0))
        a2, b2 = align(a, b)
        assert a2.start_label == "2001Q2"
        assert len(a2) == 3


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            monthly_series([1.0, float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            monthly_series([])

    def test_rejects_bad_frequency(self):
        with pytest.raises(DataError):
            TimeSeries((2000, 1), 52, [1.0])

    def test_rejects_bad_quarter_month(self):
        with pytest.raises(DataError):
            TimeSeries((2000, 2), QUARTERLY, [1.0])

    def test_values_are_immutable(self):
        x = monthly_series([1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 5.0

    def test_quarterly_labels(self):
        x = TimeSeries((2020, 7), QUARTERLY, [1.0, 2.0, 3.0])
        assert x.start_label == "2020Q3"
        assert x.end_label == "2021Q1"

    def test_slice_validation(self):
        x = monthly_series([1.0, 2.0, 3.0])
        with pytest.raises(UsageError):
            x.slice(2, 2)

    def test_integral_float_frequency_is_the_integer(self):
        x = TimeSeries((2000, 1), 12.0, [1.0, 2.0])
        assert type(x.frequency) is int and x == TimeSeries((2000, 1), MONTHLY, [1.0, 2.0])
        assert (x.start_label, x.end_label) == ("2000-01", "2000-02")

    def test_non_integral_start_month_is_rejected(self):
        # Not truncated to January.
        with pytest.raises(UsageError, match=r"^start month must be an integer, got 1\.5$"):
            TimeSeries((2000, 1.5), MONTHLY, [1.0])
