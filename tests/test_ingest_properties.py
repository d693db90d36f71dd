"""Property tests for the ``date,value`` ingest grammar.

Labels are built here by offset arithmetic from the start period, a route
independent of the period-index codec in ``cointkit.periods``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointkit import cli, ingest
from cointkit.cli import main
from cointkit.errors import CointkitError, DataError, GapInDates, ParseError
from cointkit.formats import json_dumps
from cointkit.ingest import IngestReport, ingest_csv
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


# Ways to spoil one row of a canonical file, each giving the row with its
# line end. Some leave the file valid but not canonical (lower-case q,
# padding, quotes, a value spanning two lines, a lone CR); the rest make it
# an error of each kind the row loop reports. The text pass must decline
# all of them, but for two line ends csv.reader splits like "\n": CRLF,
# and no newline after the last row.
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
_OVER_LIMIT = " " * csv.field_size_limit()  # pads a value past the csv module's field limit
_SPOIL = {
    "lower_q": lambda d, v, nxt, prev: f"{d.replace('Q', 'q')},{v}\n",
    "pad": lambda d, v, nxt, prev: f"  {d}\t, {v} \n",
    "quote": lambda d, v, nxt, prev: f'"{d}","{v}"\n',
    "quote_date": lambda d, v, nxt, prev: f'"{d}",{v}\n',
    "quote_value": lambda d, v, nxt, prev: f'{d},"{v}"\n',
    "multiline": lambda d, v, nxt, prev: f'{d},"{v}\n"\n',
    "crlf": lambda d, v, nxt, prev: f"{d},{v}\r\n",
    "lone_cr": lambda d, v, nxt, prev: f"{d},{v}\r",
    "lone_cr_in_row": lambda d, v, nxt, prev: f"{d},\r{v}\n",  # float() would strip it
    "no_newline": lambda d, v, nxt, prev: f"{d},{v}",
    "nul": lambda d, v, nxt, prev: f"{d},{v}\0\n",
    "over_field_limit": lambda d, v, nxt, prev: f"{d},{v}{_OVER_LIMIT}\n",
    # As the last row, this stands for the row's period and the next one.
    "no_comma_then_two": lambda d, v, nxt, prev: f"{d}\n{v},{nxt},{v}\n",
    "blank_after": lambda d, v, nxt, prev: f"{d},{v}\n\n",
    "non_ascii_digits": lambda d, v, nxt, prev: f"{d.translate(_ARABIC_INDIC)},{v}\n",
    "gap": lambda d, v, nxt, prev: f"{nxt},{v}\n",
    "repeat": lambda d, v, nxt, prev: f"{prev},{v}\n",
    "switch": lambda d, v, nxt, prev: f"{d[:4]}{'Q1' if '-' in d else '-01'},{v}\n",
    "bad_value": lambda d, v, nxt, prev: f"{d},1.0.0\n",
    "underscore_value": lambda d, v, nxt, prev: f"{d},1_{v}\n",
    "non_ascii_value": lambda d, v, nxt, prev: f"{d},{v.translate(_ARABIC_INDIC)}\n",
    "em_space_value": lambda d, v, nxt, prev: f"{d},\u2003{v}\n",
    "em_space_date": lambda d, v, nxt, prev: f"\u2003{d},{v}\n",
    "inf": lambda d, v, nxt, prev: f"{d},-inf\n",
    "nan": lambda d, v, nxt, prev: f"{d},nan\n",
    "blank": lambda d, v, nxt, prev: "\n",
    "blank_fields": lambda d, v, nxt, prev: " , \n",
    "one_field": lambda d, v, nxt, prev: f"{d}\n",
    "three_fields": lambda d, v, nxt, prev: f"{d},{v},1\n",
}


def _csv_text(start, values: list[str], spoils=()) -> str:
    """A ``date,value`` file of ``values`` from ``start``, its rows ``(kind, index)`` spoilt."""
    dates = [_label(start, k) for k in range(len(values))]
    rows = [f"{d},{v}\n" for d, v in zip(dates, values)]
    for kind, i in spoils:
        rows[i] = _SPOIL[kind](dates[i], values[i], _label(start, i + 1), _label(start, i - 1))
    return "date,value\n" + "".join(rows)


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
    values = [repr(v) for v in draw(st.lists(finite, min_size=n, max_size=n))]
    spoilt = st.tuples(st.sampled_from(sorted(_SPOIL)), st.integers(0, n - 1))
    return _csv_text(start, values, draw(st.lists(spoilt, max_size=3)))


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
    csv_path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(str(csv_path)) == _row_loop_outcome(str(csv_path))


_READ_BY_TEXT_PASS = {("crlf", 0), ("crlf", 4), ("no_newline", 4)}


@pytest.mark.parametrize("row", [0, 4], ids=["first_row", "last_row"])
@pytest.mark.parametrize("kind", sorted(_SPOIL))
def test_text_pass_declines_every_spoilt_row_but_line_ends(csv_path, kind, row):
    # Quarterly, so that lower_q changes the row too.
    text = _csv_text((QUARTERLY, 2000, 2), ["1.5", "-2.0", "3e-05", "4.0", "5.25"], [(kind, row)])
    assert (ingest._canonical(text) is None) == ((kind, row) not in _READ_BY_TEXT_PASS)
    csv_path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(str(csv_path)) == _row_loop_outcome(str(csv_path))


def _bulk_only(path: str):
    """``ingest_csv(path)``, failing if the row loop or ``csv.reader`` is called."""
    with (
        mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("row loop")),
        mock.patch.object(csv, "reader", side_effect=AssertionError("csv.reader")),
    ):
        return ingest_csv(path)


@settings(max_examples=100, deadline=None)
@given(
    start=starts,
    values=st.lists(finite, min_size=1, max_size=60),
    end=st.sampled_from(["\n", "\r\n"]),
    final_end=st.booleans(),
)
def test_canonical_files_never_reach_the_row_loop(csv_path, start, values, end, final_end):
    rows = [f"{_label(start, k)},{value!r}" for k, value in enumerate(values)]
    text = end.join(["date,value", *rows]) + (end if final_end else "")
    csv_path.write_text(text, encoding="utf-8", newline="")
    series = _bulk_only(str(csv_path))
    assert np.array_equal(series.values, np.array(values))


def test_a_large_canonical_file_never_reaches_the_row_loop(csv_path):
    # 20,000 rows: longer than the csv module's field size limit as a whole.
    values = np.random.default_rng(0).standard_normal(20_000).tolist()
    _write(csv_path, [_label((MONTHLY, 1000, 1), k) for k in range(len(values))], values)
    series = _bulk_only(str(csv_path))
    assert series.start == (1000, 1) and np.array_equal(series.values, np.array(values))


@pytest.mark.parametrize("frequency, last, beyond", [(MONTHLY, "9999-12", "10000-01"), (QUARTERLY, "9999Q4", "10000Q1")])
def test_year_10000_is_rejected_on_both_paths(csv_path, frequency, last, beyond):
    csv_path.write_text(f"date,value\n{last},1\n{beyond},2\n", encoding="utf-8")
    outcome = _outcome(str(csv_path))
    assert outcome == _row_loop_outcome(str(csv_path))
    assert outcome[0] is ParseError and outcome[2] == 3


_BOM = "\ufeff"


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(csv_texts(), st.text().filter(lambda t: not t.startswith(_BOM))))
def test_a_leading_byte_order_mark_is_dropped(csv_path, text):
    csv_path.write_text(text, encoding="utf-8", newline="")
    without = _outcome(str(csv_path))
    csv_path.write_text(_BOM + text, encoding="utf-8", newline="")
    assert _outcome(str(csv_path)) == without


def test_only_one_byte_order_mark_is_dropped_and_offsets_count_it(csv_path):
    csv_path.write_text(_BOM * 2 + "date,value\n2020-01,1\n", encoding="utf-8", newline="")
    assert _outcome(str(csv_path)) == (
        ParseError, "line 1: header must be 'date,value', got '\\ufeffdate,value'", 1
    )
    # Decode errors name the byte's offset in the file, mark included.
    csv_path.write_bytes(_BOM.encode("utf-8") + b"date,value\n2020-01,\xff\n")
    error_type, message, _ = _outcome(str(csv_path))
    assert error_type is DataError
    assert message.endswith("can't decode byte 0xff in position 22: invalid start byte (line 2)")


# ``cointkit ingest-check`` reads with ``ingest._read`` and builds its report
# without a TimeSeries; the reference is the report of the series route.


def _ingest_check(path, out) -> tuple:
    """Exit code, stderr and the JSON and CSV text (None if absent) of ingest-check on ``path``."""
    for suffix in (".json", ".csv"):
        out.with_suffix(suffix).unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["ingest-check", "--input", str(path), "--format", "both", "--output", str(out)])
    files = (out.with_suffix(".json"), out.with_suffix(".csv"))
    return code, err.getvalue(), *(p.read_text(encoding="utf-8") if p.exists() else None for p in files)


def _series_route(path) -> tuple:
    """What ingest-check gave when it built its report from ``ingest_csv``'s series."""
    try:
        report = IngestReport.from_series(ingest_csv(str(path)))
    except CointkitError as exc:
        record = {"error": type(exc).__name__, "message": str(exc).replace("\n", "; ")}
        return cli._exit_code(exc), f"cointkit-error: {json.dumps(record)}\n", None, None
    return 0, "", json_dumps(report.to_json_dict()), cli._csv_text(report.to_csv_rows())


@pytest.fixture(scope="module")
def out_stem(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest_check") / "report"


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_ingest_check_agrees_with_the_series_route(csv_path, out_stem, text):
    csv_path.write_text(text, encoding="utf-8", newline="")
    assert _ingest_check(csv_path, out_stem) == _series_route(csv_path)


# numpy's min and max may pick either of 0.0 and -0.0, by position (past row
# 16 too), where Python's keep the first: ingest-check takes a zero from numpy.
@pytest.mark.parametrize("positions", [(0, 1), (1, 0), (2, 3), (17, 30), (30, 17)])
@pytest.mark.parametrize("zeros", [("0", "-0"), ("0", "-0.0")])
@pytest.mark.parametrize("sign", ["", "-"], ids=["zero_min", "zero_max"])
@pytest.mark.parametrize("frequency", [MONTHLY, QUARTERLY])
def test_ingest_check_takes_a_signed_zero_as_numpy_does(
    csv_path, out_stem, frequency, sign, zeros, positions
):
    values = [f"{sign}{k + 1}.5" for k in range(40)]
    for zero, i in zip(zeros, positions):
        values[i] = zero
    csv_path.write_text(_csv_text((frequency, 2000, 2), values), encoding="utf-8", newline="")
    result = _ingest_check(csv_path, out_stem)
    assert result == _series_route(csv_path)
    assert result[0] == 0
