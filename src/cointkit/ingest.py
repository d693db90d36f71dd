"""CSV ingestion under the `date,value` contract.

Dates are ``YYYY-MM`` for monthly files or ``YYYYQn`` for quarterly ones;
rows must advance one period at a time with no gaps. Anything malformed
aborts with the 1-based line number of the offending row. Ingested series
start with an empty transform lineage.
"""

from __future__ import annotations

import csv
import math
import os
import re

from cointkit.errors import DataError, EmptyFile, GapInDates, ParseError
from cointkit.series import (
    MONTHLY,
    QUARTERLY,
    TimeSeries,
    _abs_index,
    _from_abs_index,
    period_label,
)

_MONTHLY_RE = re.compile(r"^(\d{4})-(\d{2})$")
_QUARTERLY_RE = re.compile(r"^(\d{4})[Qq]([1-4])$")


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


def ingest_csv(path: str) -> TimeSeries:
    """Read one series from a CSV file.

    Raises
    ------
    ParseError
        Malformed header, date, or value, with the offending line number.
    GapInDates
        Rows that skip, repeat, or reverse a period.
    EmptyFile
        A file with no data rows.
    DataError
        A file that cannot be opened or is not valid UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            # Each record with the physical line it starts on: a quoted
            # value may span lines.
            rows, line = [], 1
            for row in reader:
                rows.append((line, row))
                line = reader.line_num + 1
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(reader.line_num, str(exc)) from None
    if not rows:
        raise EmptyFile(path)
    (_, header), *records = rows
    if [h.strip().lower() for h in header] != ["date", "value"]:
        raise ParseError(1, f"header must be 'date,value', got {','.join(header)!r}")

    frequency: int | None = None
    start: tuple[int, int] | None = None
    prev_index: int | None = None
    values: list[float] = []

    for line, row in records:
        if not row or all(not cell.strip() for cell in row):
            raise ParseError(line, "blank row")
        if len(row) != 2:
            raise ParseError(line, f"expected 2 fields, got {len(row)}")
        date_text, value_text = row[0].strip(), row[1].strip()

        freq, period = _parse_date(date_text, line)
        if frequency is None:
            frequency, start = freq, period
        elif freq != frequency:
            raise ParseError(line, f"date {date_text!r} switches frequency mid-file")

        index = _abs_index(period, frequency)
        if prev_index is not None and index != prev_index + 1:
            expected = _from_abs_index(prev_index + 1, frequency)
            raise GapInDates(period_label(expected, frequency), period_label(period, frequency))
        prev_index = index

        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(line, f"cannot parse value {value_text!r}") from None
        if not math.isfinite(value):
            raise ParseError(line, f"value {value_text!r} is not finite")
        values.append(value)

    if not values:
        raise EmptyFile(path)
    name = os.path.splitext(os.path.basename(path))[0]
    return TimeSeries(start=start, frequency=frequency, values=values, lineage=(), name=name)
