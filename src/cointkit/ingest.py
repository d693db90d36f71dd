"""CSV ingestion under the `date,value` contract.

Dates are ``YYYY-MM`` for monthly files or ``YYYYQn`` for quarterly ones,
in ASCII alone (digits and any surrounding spaces); rows must advance one
period at a time with no gaps. Values are ASCII decimal or exponent
notation (``_plain_value``). Anything malformed aborts with the 1-based
line number of the offending row. One leading UTF-8 byte-order mark is
dropped. Ingested series start with an empty transform lineage.

A file already in canonical form (header ``date,value``, one comma per
row, upper-case ``Q``, no quotes or padding) is accepted in one bulk pass
over its text, which splits it with ``str`` methods. The ``csv`` module
reads only the files that pass declines, and the row loop over its
records alone decides every error and every non-canonical row.

``_read`` does all of this without numpy, and ``ingest_csv`` wraps what it
reads in a ``TimeSeries``, which loads numpy. ``cointkit ingest-check``
builds its report from ``_read`` alone (``IngestReport.from_read``), so it
imports numpy only for a zero minimum or maximum, to give it numpy's sign.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass
from itertools import repeat
from operator import contains
from typing import TYPE_CHECKING

from cointkit.errors import DataError, EmptyFile, GapInDates, ParseError, instance_setting
from cointkit.formats import JsonRecord, fmt12s
from cointkit.periods import MONTHLY, QUARTERLY, _abs_index, period_labels

if TYPE_CHECKING:  # imported where used: series loads numpy, and _read needs none
    from cointkit.series import TimeSeries

_MONTHLY_RE = re.compile(r"^(\d{4})-(\d{2})$", re.ASCII)
_QUARTERLY_RE = re.compile(r"^(\d{4})[Qq]([1-4])$", re.ASCII)
_LAST_YEAR = 9999  # the grammar's years have four digits
_LINE_BREAK = re.compile(rb"\r\n?|\n")
_HEADER = "date,value\n"

CSV_COLUMNS = ("name", "frequency", "start", "end", "observations", "min", "max")


def _plain_value(text: str) -> bool:
    """Whether ``text`` keeps to the value grammar that ``float`` alone does not
    enforce: ASCII only (no other digits or spaces) and no ``_`` separators."""
    return text.isascii() and "_" not in text


def _parse_date(text: str, line: int) -> tuple[int, tuple[int, int]]:
    """Return (frequency, (year, month)) or raise ParseError."""
    m = _MONTHLY_RE.match(text)
    if m:
        year, month = int(m.group(1)), int(m.group(2))
        if not 1 <= month <= 12:
            raise ParseError(line, f"month {month:02d} out of range in {text!r}")
        return MONTHLY, (year, month)
    q = _QUARTERLY_RE.match(text)
    if q:
        year, quarter = int(q.group(1)), int(q.group(2))
        return QUARTERLY, (year, (quarter - 1) * 3 + 1)
    raise ParseError(line, f"date {text!r} is neither YYYY-MM nor YYYYQn")


@dataclass(frozen=True)
class IngestReport(JsonRecord):
    """What ``ingest-check`` reports of one ingested series."""

    _JSON_TYPE = "ingest_check"

    name: str
    frequency: int
    start: str
    end: str
    observations: int
    min: float
    max: float

    @classmethod
    def from_series(cls, series: TimeSeries) -> "IngestReport":
        return cls(
            name=series.name,
            frequency=series.frequency,
            start=series.start_label,
            end=series.end_label,
            observations=len(series),
            min=float(series.values.min()),
            max=float(series.values.max()),
        )

    @classmethod
    def from_read(cls, read: tuple[str, int, tuple[int, int], list[float]]) -> "IngestReport":
        """``from_series(ingest_csv(path))`` from ``_read(path)``, which loads no numpy."""
        name, frequency, start, values = read
        lo, hi = min(values), max(values)
        if lo == 0.0 or hi == 0.0:  # Python keeps the first of 0.0 and -0.0; numpy need not
            import numpy as np

            lo, hi = float(np.min(values)), float(np.max(values))
        first = _abs_index(start, frequency)
        labels = (period_labels(index, 1, frequency)[0] for index in (first, first + len(values) - 1))
        return cls(name, frequency, *labels, len(values), lo, hi)

    @property
    def frequency_label(self) -> str:
        return "monthly" if self.frequency == MONTHLY else "quarterly"

    def to_csv_rows(self) -> list[list[str]]:
        """The CSV_COLUMNS header and this report's one row."""
        row = [self.name, self.frequency_label, self.start, self.end, str(self.observations)]
        row += [fmt12s(self.min), fmt12s(self.max)]
        return [list(CSV_COLUMNS), row]


def ingest_csv(path: str) -> TimeSeries:
    """Read one series from the CSV file at ``path``, a ``str`` or an
    ``os.PathLike`` that gives one.

    Raises
    ------
    UsageError
        A ``path`` of any other type, before anything is opened: an int
        would be read as an open file descriptor, and closed.
    ParseError
        Malformed header, date, or value, with the offending line number.
    GapInDates
        Rows that skip, repeat, or reverse a period.
    EmptyFile
        A file with no data rows.
    DataError
        A file that cannot be opened, or is not valid UTF-8 (naming the byte
        offset in the file and its line).
    """
    from cointkit.series import TimeSeries

    name, frequency, start, values = _read(path)
    return TimeSeries(start=start, frequency=frequency, values=values, lineage=(), name=name)


def _read(path) -> tuple[str, int, tuple[int, int], list[float]]:
    """(name, frequency, start, values) of the CSV file at ``path``, with
    ``ingest_csv``'s errors; it loads no numpy."""
    if isinstance(path, os.PathLike):
        path = os.fspath(path)
    instance_setting("path", path, str)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK.split(data[: exc.start]))
        raise DataError(f"cannot read {path}: {exc} (line {line})") from None
    text = text.removeprefix("\ufeff")  # the byte-order mark of Excel's "CSV UTF-8"
    parsed = _canonical(text)
    if parsed is None:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            # Each record with the physical line it ends on: a quoted value may span lines.
            records = [(row, reader.line_num) for row in reader]
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ParseError(reader.line_num, str(exc)) from None
        if not records:
            raise EmptyFile(path)
        (header, header_end), *records = records
        if [h.strip().lower() for h in header] != ["date", "value"]:
            raise ParseError(1, f"header must be 'date,value', got {','.join(header)!r}")
        parsed = _parse_rows(records, header_end + 1)
        if parsed is None:
            raise EmptyFile(path)
    frequency, start, values = parsed
    return os.path.splitext(os.path.basename(path))[0], frequency, start, values


def _canonical(text: str) -> tuple[int, tuple[int, int], list[float]] | None:
    """(frequency, start, values) of a file's text in canonical form, else None.

    Canonical: once CRLF line ends are read as LF ones, the text holds no
    ``"``, ``\r`` or NUL, so ``csv.reader`` would split it at each newline
    and comma; the header line is ``date,value``; no line is blank or
    longer than the csv module's field size limit; every row has exactly
    one comma; the dates are the labels of consecutive periods from the
    first one; and every value is a finite float in the value grammar.
    Such a file is exactly one the row loop accepts unchanged, so this pass
    raises nothing and leaves every other file to the csv module.
    """
    if "\r\n" in text:  # Windows line ends; csv.reader ends a record at either
        text = text.replace("\r\n", "\n")
    if not text.startswith(_HEADER) or '"' in text or "\r" in text or "\0" in text:
        return None
    body = text[len(_HEADER) :].removesuffix("\n")
    rows = body.split("\n")
    # One comma per row on average, and none without one (so none blank):
    # exactly one in each.
    if text.count(",") != len(rows) + 1 or not all(map(contains, rows, repeat(","))):
        return None
    limit = csv.field_size_limit()
    if len(body) > limit and max(map(len, rows)) > limit:
        return None
    fields = body.replace("\n", ",").split(",")
    dates, texts = fields[::2], fields[1::2]
    try:
        frequency, start = _parse_date(dates[0], 0)
    except ParseError:
        return None
    first = _abs_index(start, frequency)
    if (first + len(dates) - 1) // frequency > _LAST_YEAR:
        return None
    if dates != period_labels(first, len(dates), frequency) or not _plain_value(body):
        return None
    try:
        values = list(map(float, texts))
    except ValueError:
        return None
    if not all(map(math.isfinite, values)):
        return None
    return frequency, start, values


def _parse_rows(records: list, line: int) -> tuple[int, tuple[int, int], list[float]] | None:
    """(frequency, start, values) of the records read row by row from ``line``, or None if none.

    Raises the first record's error, with the line it starts on.
    """
    frequency: int | None = None
    start: tuple[int, int] | None = None
    prev_index: int | None = None
    values: list[float] = []

    for row, end in records:
        if not row or all(not cell.strip() for cell in row):
            raise ParseError(line, "blank row")
        if len(row) != 2:
            raise ParseError(line, f"expected 2 fields, got {len(row)}")
        if not row[0].isascii():  # str.strip() would take other spaces too
            raise ParseError(line, f"date {row[0]!r} is neither YYYY-MM nor YYYYQn")
        date_text, value_text = row[0].strip(), row[1].strip()

        freq, period = _parse_date(date_text, line)
        if frequency is None:
            frequency, start = freq, period
        elif freq != frequency:
            raise ParseError(line, f"date {date_text!r} switches frequency mid-file")

        index = _abs_index(period, frequency)
        if prev_index is not None and index != prev_index + 1:
            expected, found = (period_labels(i, 1, frequency)[0] for i in (prev_index + 1, index))
            raise GapInDates(expected, found)
        prev_index = index

        if not _plain_value(row[1]):
            raise ParseError(line, f"value {row[1]!r} is not ASCII decimal or exponent notation")
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(line, f"cannot parse value {value_text!r}") from None
        if not math.isfinite(value):
            raise ParseError(line, f"value {value_text!r} is not finite")
        values.append(value)
        line = end + 1

    if not values:
        return None
    return frequency, start, values
