"""Property tests for the ``date,value`` ingest grammar.

Labels are built here by offset arithmetic from the start period, a route
independent of the period-index codec in ``cointkit.series``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointkit.errors import GapInDates
from cointkit.ingest import ingest_csv
from cointkit.series import MONTHLY, QUARTERLY

# (frequency, year, sub-period): month 1..12 or quarter 1..4
starts = st.one_of(
    st.tuples(st.just(MONTHLY), st.integers(1000, 9000), st.integers(1, 12)),
    st.tuples(st.just(QUARTERLY), st.integers(1000, 9000), st.integers(1, 4)),
)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _label(start, k: int, lower_q: bool = False) -> str:
    """Label of the period ``k`` steps after ``start`` (``k`` may be negative)."""
    frequency, year, sub = start
    carry, r = divmod(sub - 1 + k, frequency)
    if frequency == MONTHLY:
        return f"{year + carry:04d}-{r + 1:02d}"
    return f"{year + carry:04d}{'q' if lower_q else 'Q'}{r + 1}"


def _write(path, labels, values) -> None:
    rows = [f"{label},{value!r}" for label, value in zip(labels, values)]
    path.write_text("date,value\n" + "\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "series.csv"


@settings(max_examples=150, deadline=None)
@given(start=starts, values=st.lists(finite, min_size=1, max_size=60), lower_q=st.booleans())
def test_round_trip(csv_path, start, values, lower_q):
    labels = [_label(start, k, lower_q) for k in range(len(values))]
    _write(csv_path, labels, values)
    series = ingest_csv(str(csv_path))

    frequency, year, sub = start
    first_month = sub if frequency == MONTHLY else (sub - 1) * 3 + 1
    assert (series.frequency, series.start) == (frequency, (year, first_month))
    assert np.array_equal(series.values, np.array(values))
    upper = [_label(start, k) for k in range(len(values))]
    assert [series.label_at(i) for i in range(len(series))] == upper
    assert series.end_label == series.label_at(len(values) - 1) == upper[-1]


@settings(max_examples=150, deadline=None)
@given(
    start=starts,
    length=st.integers(2, 60),
    data=st.data(),
    step=st.sampled_from([2, 0, -1]),  # skip one period, repeat one, go back one
)
def test_gap_names_the_expected_period(csv_path, start, length, data, step):
    i = data.draw(st.integers(1, length - 1), label="broken row")
    labels = [_label(start, k) for k in range(length)]
    labels[i] = _label(start, i - 1 + step)
    _write(csv_path, labels, [1.0] * length)
    with pytest.raises(GapInDates) as info:
        ingest_csv(str(csv_path))
    assert info.value.expected == _label(start, i)
    assert info.value.found == labels[i]
