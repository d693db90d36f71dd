"""Property tests for the ``date,value`` ingest grammar.

Labels are built here by offset arithmetic from the start period, a route
independent of the period-index codec in ``cointkit.series``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointkit import ingest
from cointkit.errors import DataError, GapInDates, ParseError
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


# Ways to spoil one row of a canonical file. Some leave it valid but not
# canonical (lower-case q, padding, quotes, a value spanning two lines);
# the rest make it an error of each kind the row loop reports.
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
_SPOIL = {
    "lower_q": lambda d, v, nxt, prev: f"{d.replace('Q', 'q')},{v}",
    "pad": lambda d, v, nxt, prev: f"  {d}\t, {v} ",
    "quote": lambda d, v, nxt, prev: f'"{d}","{v}"',
    "multiline": lambda d, v, nxt, prev: f'{d},"{v}\n"',
    "non_ascii_digits": lambda d, v, nxt, prev: f"{d.translate(_ARABIC_INDIC)},{v}",
    "gap": lambda d, v, nxt, prev: f"{nxt},{v}",
    "repeat": lambda d, v, nxt, prev: f"{prev},{v}",
    "switch": lambda d, v, nxt, prev: f"{d[:4]}{'Q1' if '-' in d else '-01'},{v}",
    "bad_value": lambda d, v, nxt, prev: f"{d},1.0.0",
    "underscore_value": lambda d, v, nxt, prev: f"{d},1_{v}",
    "non_ascii_value": lambda d, v, nxt, prev: f"{d},{v.translate(_ARABIC_INDIC)}",
    "em_space_value": lambda d, v, nxt, prev: f"{d},\u2003{v}",
    "em_space_date": lambda d, v, nxt, prev: f"\u2003{d},{v}",
    "inf": lambda d, v, nxt, prev: f"{d},-inf",
    "nan": lambda d, v, nxt, prev: f"{d},nan",
    "blank": lambda d, v, nxt, prev: "",
    "blank_fields": lambda d, v, nxt, prev: " , ",
    "one_field": lambda d, v, nxt, prev: d,
    "three_fields": lambda d, v, nxt, prev: f"{d},{v},1",
}


@st.composite
def csv_texts(draw) -> str:
    """A ``date,value`` file, canonical or spoilt in up to three rows.

    Starts run up to year 9999, so some files cross into year 10000, whose
    five-digit labels the grammar rejects.
    """
    frequency = draw(st.sampled_from([MONTHLY, QUARTERLY]))
    year = draw(st.one_of(st.integers(1000, 9000), st.integers(9996, 9999)))
    start = (frequency, year, draw(st.integers(1, frequency)))
    n = draw(st.integers(1, 40))
    dates = [_label(start, k) for k in range(n)]
    values = [repr(v) for v in draw(st.lists(finite, min_size=n, max_size=n))]
    rows = [f"{d},{v}" for d, v in zip(dates, values)]
    spoilt = st.tuples(st.sampled_from(sorted(_SPOIL)), st.integers(0, n - 1))
    for kind, i in draw(st.lists(spoilt, max_size=3)):
        rows[i] = _SPOIL[kind](dates[i], values[i], _label(start, i + 1), _label(start, i - 1))
    return "date,value\n" + "\n".join(rows) + "\n"


def _outcome(path: str):
    """The series read from ``path``, or the type, text and line of the error."""
    try:
        return ingest_csv(path)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _row_loop_outcome(path: str):
    with mock.patch.object(ingest, "_canonical", return_value=None):
        return _outcome(path)


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
def test_bulk_pass_agrees_with_the_row_loop(csv_path, text):
    csv_path.write_text(text, encoding="utf-8")
    assert _outcome(str(csv_path)) == _row_loop_outcome(str(csv_path))


@settings(max_examples=100, deadline=None)
@given(start=starts, values=st.lists(finite, min_size=1, max_size=60))
def test_canonical_files_never_reach_the_row_loop(csv_path, start, values):
    _write(csv_path, [_label(start, k) for k in range(len(values))], values)
    with mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("row loop")):
        series = ingest_csv(str(csv_path))
    assert np.array_equal(series.values, np.array(values))


@pytest.mark.parametrize("frequency, last, beyond", [(MONTHLY, "9999-12", "10000-01"), (QUARTERLY, "9999Q4", "10000Q1")])
def test_year_10000_is_rejected_on_both_paths(csv_path, frequency, last, beyond):
    csv_path.write_text(f"date,value\n{last},1\n{beyond},2\n", encoding="utf-8")
    outcome = _outcome(str(csv_path))
    assert outcome == _row_loop_outcome(str(csv_path))
    assert outcome[0] is ParseError and outcome[2] == 3
